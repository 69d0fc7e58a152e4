"""Tests for the canned query library over the SQL result store."""

import json

import pytest

from repro.scenarios.campaign import (
    SQLResultStore,
    aggregate_campaign,
    describe_queries,
    run_campaign,
    run_query,
    spec_from_mapping,
    store_summary,
)

SPEC_DOCUMENT = {
    "name": "queries",
    "num_processes": 3,
    "duration": 15.0,
    "collectors": ["rdt-lgc", "none"],
    "workloads": ["uniform-random"],
    "failure_counts": [0, 1],
    "seeds": 2,
}


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """One executed sweep in a SQL store, shared by every test here."""
    path = str(tmp_path_factory.mktemp("queries") / "sweep.sqlite")
    spec = spec_from_mapping(SPEC_DOCUMENT)
    run = run_campaign(spec, store_path=path)
    return path, run


class TestCannedQueries:
    def test_library_is_described(self):
        names = [name for name, _, _ in describe_queries()]
        assert "retained-winner" in names
        assert "collector-table" in names
        assert "churn-sensitivity" in names
        assert "live-vs-sim" in names

    def test_retained_winner_answers_the_papers_question(self, populated):
        path, run = populated
        rows = run_query(path, "retained-winner")
        # One winner per fault regime: protocol x workload x failures x network.
        regimes = {(r["protocol"], r["workload"], r["failures"], r["network"]) for r in rows}
        assert len(rows) == len(regimes) == 2  # failures=0 and failures=1
        assert all(r["rank"] == 1 for r in rows)
        # rdt-lgc retains strictly less than the no-collection baseline.
        assert {r["collector"] for r in rows} == {"rdt-lgc"}

    def test_collector_table_covers_every_group(self, populated):
        path, _ = populated
        rows = run_query(path, "collector-table")
        assert len(rows) == 4  # 2 collectors x 2 failure levels
        for row in rows:
            assert row["min_value"] <= row["mean_value"] <= row["max_value"]
            assert row["runs"] == 2

    def test_metric_parameter_is_honoured(self, populated):
        path, _ = populated
        by_peak = run_query(path, "collector-table", metric="peak_retained")
        by_final = run_query(path, "collector-table", metric="final_retained")
        assert by_peak != by_final

    def test_unknown_parameter_names_accepted_ones(self, populated):
        path, _ = populated
        with pytest.raises(ValueError, match="metric"):
            run_query(path, "retained-winner", metrik="peak_retained")

    def test_unknown_query_rejected(self, populated):
        path, _ = populated
        with pytest.raises(KeyError, match="retained-winner"):
            run_query(path, "no-such-query")

    def test_views_exist_in_schema(self, populated):
        path, _ = populated
        with SQLResultStore(path).connect() as connection:
            views = {
                row["name"]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'view'"
                )
            }
        assert {"v_collector_score", "v_retained_winner", "v_churn_sensitivity",
                "v_live_vs_sim"} <= views


class TestStoreSummary:
    def test_reducer_is_byte_identical_to_in_memory_aggregate(self, populated):
        path, run = populated
        summary = store_summary(path)
        reference = aggregate_campaign(run.records)
        assert summary.to_csv() == reference.to_csv()
        assert summary.to_json() == reference.to_json()

    def test_group_by_is_forwarded(self, populated):
        path, run = populated
        summary = store_summary(path, group_by=("collector",))
        reference = aggregate_campaign(run.records, group_by=("collector",))
        assert summary.to_json() == reference.to_json()

    def test_incomplete_store_is_refused_unless_allowed(self, tmp_path):
        path = str(tmp_path / "partial.sqlite")
        spec = spec_from_mapping(SPEC_DOCUMENT)
        store = SQLResultStore(path)
        store.enqueue(spec.cells())
        from repro.scenarios.campaign.executor import execute_cell

        cells = spec.cells()
        [claim] = store.claim(worker="w", limit=1)
        store.append(
            execute_cell(cells[claim.cell_index]), worker="w", attempt=claim.attempt
        )
        with pytest.raises(ValueError, match="incomplete"):
            store_summary(path)
        partial = store_summary(path, allow_incomplete=True)
        assert json.loads(partial.to_json())["campaign"] == "queries"
