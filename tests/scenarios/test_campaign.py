"""Tests for the campaign subsystem: expansion, seeding, store, pool, aggregation."""

import json
import statistics

import pytest

import repro.scenarios.campaign.executor as executor_module
from repro.api import SpecValidationError
from repro.scenarios.campaign import (
    CampaignSpec,
    CollectorSpec,
    SQLResultStore,
    WorkloadSpec,
    aggregate_campaign,
    run_campaign,
    spec_from_mapping,
)
from repro.scenarios.campaign.cli import main as campaign_main
from repro.membership import MembershipSchedule
from repro.scenarios.experiments import (
    fault_model_campaign_spec,
    hierarchical_network_config,
    membership_churn_smoke_spec,
    paper_campaign_spec,
    smoke_campaign_spec,
    topology_campaign_spec,
)
from repro.simulation.channels import (
    GilbertElliottChannel,
    PartitionSchedule,
)
from repro.simulation.failures import FailureModelSpec
from repro.simulation.network import NetworkConfig


def tiny_spec(*, seeds=(0, 1), failure_counts=(0,), name="tiny"):
    """A seconds-fast grid: 2 collectors x 1 workload x the given seeds."""
    return CampaignSpec(
        name=name,
        num_processes=3,
        duration=25.0,
        collectors=(
            CollectorSpec.of("rdt-lgc"),
            CollectorSpec.of("none"),
        ),
        workloads=(WorkloadSpec.of("uniform-random"),),
        failure_counts=failure_counts,
        seeds=seeds,
    )


class TestSpecExpansion:
    def test_cell_count_matches_expansion(self):
        spec = tiny_spec()
        assert spec.cell_count == 4
        assert len(spec.cells()) == 4

    def test_paper_grid_shape(self):
        spec = paper_campaign_spec()
        # 5 collectors x 4 workloads x 2 failure levels x 10 seeds
        assert spec.cell_count == 5 * 4 * 2 * 10

    def test_unknown_names_rejected_eagerly(self):
        with pytest.raises(SpecValidationError, match="no-such-collector") as raised:
            CollectorSpec.of("no-such-collector")
        assert raised.value.field == "name" and "rdt-lgc" in raised.value.accepted
        with pytest.raises(SpecValidationError, match="no-such-workload"):
            WorkloadSpec.of("no-such-workload")
        with pytest.raises(SpecValidationError, match="no-such-protocol") as raised:
            CampaignSpec(name="x", protocols=("no-such-protocol",))
        assert raised.value.field == "protocols[0]" and "fdas" in raised.value.accepted

    def test_bad_options_rejected_eagerly(self):
        # A typo'd option must fail at spec-build time, not surface as
        # per-cell "failed" records halfway through a sweep.
        with pytest.raises(SpecValidationError, match="perod"):
            WorkloadSpec.of("ring", {"perod": 2.0})
        with pytest.raises(SpecValidationError, match="periot") as raised:
            CollectorSpec.of("wang-coordinated", {"periot": 20.0})
        assert raised.value.field == "options"
        with pytest.raises(ValueError, match="must be a scalar"):
            CollectorSpec.of("rdt-lgc", {"p": [1, 2]})

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", seeds=())
        with pytest.raises(ValueError):
            CampaignSpec(name="x", collectors=())

    def test_negative_failure_counts_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", failure_counts=(-1,))

    def test_duplicate_axis_entries_rejected(self):
        # Duplicates would expand to identical cells (same cell_id), execute
        # twice and double-count in aggregation.
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(name="x", seeds=(0, 0))
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="x",
                collectors=(CollectorSpec.of("rdt-lgc"), CollectorSpec.of("rdt-lgc")),
            )

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ValueError, match="failure_count"):
            spec_from_mapping({"name": "x", "failure_count": [0, 2]})

    def test_bare_string_axes_rejected(self):
        # tuple("fdas") would expand per character into ('f','d','a','s').
        with pytest.raises(ValueError, match="must be a list"):
            spec_from_mapping({"name": "x", "protocols": "fdas"})
        with pytest.raises(ValueError, match="must be a list"):
            spec_from_mapping({"name": "x", "collectors": "rdt-lgc"})

    def test_spec_from_mapping(self):
        spec = spec_from_mapping(
            {
                "name": "mapped",
                "num_processes": 3,
                "duration": 30.0,
                "collectors": [
                    "rdt-lgc",
                    {"name": "wang-coordinated", "options": {"period": 10.0}},
                ],
                "workloads": [{"name": "ring", "params": {"period": 2.0}}],
                "failure_counts": [0, 1],
                "seeds": 3,
            }
        )
        assert spec.cell_count == 2 * 1 * 2 * 3
        assert spec.collectors[1].options_dict() == {"period": 10.0}
        assert spec.workloads[0].build().name == "ring"


class TestCellIdentity:
    def test_cell_id_independent_of_grid_position(self):
        forward = {c.cell_id: c for c in tiny_spec().cells()}
        spec_reversed = CampaignSpec(
            name="tiny",
            num_processes=3,
            duration=25.0,
            collectors=(CollectorSpec.of("none"), CollectorSpec.of("rdt-lgc")),
            workloads=(WorkloadSpec.of("uniform-random"),),
            failure_counts=(0,),
            seeds=(1, 0),
        )
        backward = {c.cell_id: c for c in spec_reversed.cells()}
        assert set(forward) == set(backward)
        for cell_id, cell in forward.items():
            assert backward[cell_id].seed == cell.seed

    def test_any_parameter_changes_the_identity(self):
        base = tiny_spec().cells()[0]
        sibling = tiny_spec(name="other").cells()[0]
        assert base.cell_id != sibling.cell_id
        assert base.seed != sibling.seed

    def test_cells_have_distinct_seeds(self):
        cells = paper_campaign_spec(num_seeds=5).cells()
        assert len({c.seed for c in cells}) == len(cells)

    def test_failure_schedule_is_reproducible_and_in_bounds(self):
        cell = tiny_spec(failure_counts=(2,)).cells()[0]
        first = cell.failure_schedule()
        second = cell.failure_schedule()
        assert first == second
        assert len(first) == 2
        for crash in first:
            assert crash.time < cell.duration

    def test_config_materialisation(self):
        cell = tiny_spec(failure_counts=(1,)).cells()[0]
        config = cell.config()
        assert config.num_processes == 3
        assert config.collector == cell.collector
        assert config.seed == cell.seed
        assert len(config.failures) == 1


class TestBackendAxis:
    """Execution backends are a grid axis; `sim` cells keep their identity."""

    def test_backends_axis_expands_and_materialises(self):
        spec = CampaignSpec(
            name="both-backends",
            num_processes=3,
            duration=25.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            backends=("sim", "live"),
        )
        assert spec.cell_count == 2
        sim_cell, live_cell = spec.cells()
        assert sim_cell.backend == "sim"
        assert live_cell.backend == "live"
        assert live_cell.config().backend == "live"

    def test_sim_cells_keep_their_pre_backend_identity(self):
        """`backend` hashes into the cell_id only when non-default, so every
        pre-existing sim study keeps its cell ids (and therefore seeds)."""
        spec = CampaignSpec(
            name="both-backends",
            num_processes=3,
            duration=25.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            backends=("sim", "live"),
        )
        sim_cell, live_cell = spec.cells()
        assert "backend" not in sim_cell.params()
        assert live_cell.params()["backend"] == "live"
        assert sim_cell.cell_id != live_cell.cell_id
        # The stable part: a sim-only spec and the sim half of a mixed spec
        # produce the same id for the same parameters.
        sim_only = CampaignSpec(
            name="both-backends",
            num_processes=3,
            duration=25.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
        ).cells()[0]
        assert sim_cell.cell_id == sim_only.cell_id

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backends"):
            CampaignSpec(name="x", backends=("sim", "emulated"))

    def test_backends_from_mapping(self):
        spec = spec_from_mapping(
            {"name": "x", "collectors": ["rdt-lgc"], "backends": ["sim", "live"]}
        )
        assert spec.backends == ("sim", "live")
        with pytest.raises(ValueError, match="must be a list"):
            spec_from_mapping({"name": "x", "backends": "live"})


class TestMembershipAxis:
    """Membership schedules are a grid axis; static cells keep their identity."""

    def _mixed_spec(self):
        return CampaignSpec(
            name="churny",
            num_processes=4,
            duration=40.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            memberships=(
                MembershipSchedule.static(),
                MembershipSchedule.of(joins=[(10.0, 3)], leaves=[(25.0, 1)]),
            ),
        )

    def test_memberships_axis_expands_and_materialises(self):
        spec = self._mixed_spec()
        assert spec.cell_count == 2
        static_cell, dynamic_cell = spec.cells()
        assert not static_cell.membership
        assert dynamic_cell.membership
        config = dynamic_cell.config()
        assert len(config.membership.joins) == 1
        assert len(config.membership.leaves) == 1

    def test_static_cells_keep_their_pre_membership_identity(self):
        static_cell, dynamic_cell = self._mixed_spec().cells()
        assert "membership" not in static_cell.params()
        assert dynamic_cell.params()["membership"] == (
            "membership(join=3@10.0,leave=1@25.0)"
        )
        assert static_cell.cell_id != dynamic_cell.cell_id
        static_only = CampaignSpec(
            name="churny",
            num_processes=4,
            duration=40.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
        ).cells()[0]
        assert static_cell.cell_id == static_only.cell_id

    def test_schedule_outside_grid_shape_rejected(self):
        with pytest.raises(ValueError, match="outside the campaign duration"):
            CampaignSpec(
                name="x",
                num_processes=4,
                duration=40.0,
                memberships=(MembershipSchedule.of(leaves=[(50.0, 1)]),),
            )
        with pytest.raises(Exception, match="only 2 processes"):
            CampaignSpec(
                name="x",
                num_processes=2,
                memberships=(MembershipSchedule.of(joins=[(10.0, 5)]),),
            )

    def test_dynamic_membership_with_live_backend_rejected(self):
        with pytest.raises(ValueError, match="'sim' backend only"):
            CampaignSpec(
                name="x",
                num_processes=4,
                duration=40.0,
                backends=("sim", "live"),
                memberships=(MembershipSchedule.of(leaves=[(20.0, 1)]),),
            )

    def test_memberships_from_mapping(self):
        spec = spec_from_mapping(
            {
                "name": "x",
                "num_processes": 4,
                "duration": 40.0,
                "collectors": ["rdt-lgc"],
                "memberships": [
                    "static",
                    {"joins": [[10.0, 3]], "leaves": [[25.0, 1]]},
                ],
            }
        )
        assert not spec.memberships[0]
        assert [(e.time, e.pid) for e in spec.memberships[1].joins] == [(10.0, 3)]
        with pytest.raises(ValueError, match="must be a list"):
            spec_from_mapping({"name": "x", "memberships": "static"})
        with pytest.raises(ValueError, match="unknown membership keys"):
            spec_from_mapping(
                {"name": "x", "memberships": [{"join": [[1.0, 0]]}]}
            )

    def test_membership_churn_cell_executes_end_to_end(self, tmp_path):
        """The acceptance path: a campaign cell with a join and a leave runs,
        writes a replay-verified trace, and the departed pid retains nothing."""
        from repro.traceio.reader import TraceReader, verify_trace

        spec = CampaignSpec(
            name="churn-accept",
            num_processes=4,
            duration=40.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            seeds=(0,),
            memberships=(MembershipSchedule.of(joins=[(10.0, 3)], leaves=[(25.0, 1)]),),
        )
        run = run_campaign(spec, trace_dir=str(tmp_path))
        assert run.executed == 1 and not run.failed_records
        trace_path = tmp_path / f"{spec.cells()[0].cell_id}.trace.jsonl"
        assert trace_path.exists()
        assert verify_trace(str(trace_path)) == []
        replayed = TraceReader(str(trace_path)).replay()
        assert replayed.recorder.departed == frozenset({1})
        assert replayed.recorder.membership.members == frozenset({0, 2, 3})

    def test_topology_and_smoke_specs_expand(self):
        assert topology_campaign_spec(num_seeds=1).cell_count > 0
        smoke = membership_churn_smoke_spec(num_seeds=1)
        assert all(smoke.memberships)
        network = hierarchical_network_config(num_processes=6, duration=60.0)
        network.validate_for(6)
        with pytest.raises(ValueError):
            network.validate_for(7)

    def test_identity_pins_taken_before_membership_spec_was_folded_away(self):
        # Literals recorded on the commit that still had `MembershipSpec`:
        # the schedule-as-axis-entry must not move a cell id or a seed.
        spec = spec_from_mapping(
            {
                "name": "pin",
                "protocols": ["fdas"],
                "num_processes": 5,
                "duration": 80,
                "memberships": ["static", {"joins": [[20.0, 4]], "leaves": [[60.0, 1]]}],
                "seeds": 1,
            }
        )
        static_cell, dynamic_cell = spec.cells()
        assert static_cell.cell_id == "8f8c4ea53ee69b6c"
        assert "membership" not in static_cell.params()
        assert static_cell.seed == 12609104933352482071
        assert dynamic_cell.cell_id == "07f95c67ae2ad103"
        assert dynamic_cell.params()["membership"] == "membership(join=4@20.0,leave=1@60.0)"
        assert dynamic_cell.seed == 6528555716792596975
        smoke = membership_churn_smoke_spec().cells()
        assert len(smoke) == membership_churn_smoke_spec().cell_count == 16
        assert (smoke[0].cell_id, smoke[-1].cell_id) == ("318621844f4f9b3b", "9cda28b99403a036")

    def test_label_renders_times_as_floats_however_they_were_given(self):
        from_ints = MembershipSchedule.of(joins=[(20, 4)], leaves=[(60, 1)])
        assert from_ints.label() == "membership(join=4@20.0,leave=1@60.0)"
        assert from_ints == MembershipSchedule.from_mapping(
            {"joins": [[20.0, 4]], "leaves": [[60.0, 1]]}
        )


class TestFaultModelAxes:
    """Fault models are first-class grid axes, hashed into cell identities."""

    def test_default_cell_params_keep_their_pre_fault_model_shape(self):
        """The network params of a default cell must stay exactly the three
        scalar keys — anything else silently re-identifies (and re-seeds)
        every existing study."""
        cell = tiny_spec().cells()[0]
        assert cell.params()["network"] == {
            "base_latency": 1.0,
            "jitter": 0.5,
            "drop_probability": 0.0,
        }
        assert cell.params()["failures"] == 0

    def test_fault_models_change_the_cell_identity(self):
        def with_network(network):
            return CampaignSpec(
                name="fault-id",
                num_processes=3,
                duration=25.0,
                collectors=(CollectorSpec.of("rdt-lgc"),),
                workloads=(WorkloadSpec.of("uniform-random"),),
                networks=(network,),
            ).cells()[0]

        base = with_network(NetworkConfig())
        bursty = with_network(NetworkConfig(channel=GilbertElliottChannel()))
        fifo = with_network(NetworkConfig(fifo=True))
        split = with_network(
            NetworkConfig(partitions=PartitionSchedule.of([(5.0, 10.0, ((0,),))]))
        )
        ids = {c.cell_id for c in (base, bursty, fifo, split)}
        assert len(ids) == 4
        seeds = {c.seed for c in (base, bursty, fifo, split)}
        assert len(seeds) == 4

    def test_churn_axis_entry_materialises_and_is_identity_bearing(self):
        spec = CampaignSpec(
            name="churny",
            num_processes=3,
            duration=60.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            failure_counts=(0, FailureModelSpec.of("churn", {"hazard_rate": 0.1})),
        )
        calm, churny = spec.cells()
        assert calm.cell_id != churny.cell_id
        assert churny.params()["failures"] == "churn(hazard_rate=0.1)"
        schedule = churny.failure_schedule()
        assert len(schedule) > 0
        assert churny.failure_schedule() == schedule  # derived, reproducible

    def test_mixed_failure_axis_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                name="bad",
                collectors=(CollectorSpec.of("rdt-lgc"),),
                workloads=(WorkloadSpec.of("uniform-random"),),
                failure_counts=("churn",),  # type: ignore[arg-type]
            )

    def test_spec_from_mapping_parses_fault_models(self):
        spec = spec_from_mapping(
            {
                "name": "json-faults",
                "num_processes": 3,
                "duration": 30.0,
                "collectors": ["rdt-lgc"],
                "workloads": ["uniform-random"],
                "networks": [
                    {},
                    {"channel": {"kind": "gilbert-elliott", "loss_bad": 0.7}},
                    {
                        "partitions": [
                            {"start": 5.0, "end": 15.0, "groups": [[0, 1]]}
                        ],
                        "fifo": True,
                    },
                ],
                "failure_counts": [0, {"model": "churn", "hazard_rate": 0.05}],
                "seeds": 2,
            }
        )
        assert spec.cell_count == 1 * 1 * 3 * 2 * 2
        kinds = {
            (network.channel.kind if network.channel else "uniform")
            for network in spec.networks
        }
        assert kinds == {"uniform", "gilbert-elliott"}
        assert any(network.fifo for network in spec.networks)
        assert any(network.partitions for network in spec.networks)
        assert any(
            isinstance(entry, FailureModelSpec) for entry in spec.failure_counts
        )

    def test_spec_from_mapping_rejects_model_without_name(self):
        with pytest.raises(ValueError):
            spec_from_mapping(
                {
                    "name": "bad",
                    "failure_counts": [{"hazard_rate": 0.05}],
                }
            )

    def test_same_channel_different_severity_never_pools(self):
        """Two parameterizations of one channel model must aggregate into
        distinct groups — a severity comparison silently averaged into one
        row is a corrupted study."""
        spec = CampaignSpec(
            name="severities",
            num_processes=3,
            duration=25.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("uniform-random"),),
            networks=(
                NetworkConfig(channel=GilbertElliottChannel(loss_bad=0.1)),
                NetworkConfig(channel=GilbertElliottChannel(loss_bad=0.9)),
            ),
        )
        run = run_campaign(spec)
        summary = aggregate_campaign(run.records, group_by=("network",))
        assert {group.key[0] for group in summary.groups} == {
            "ch=gilbert-elliott(loss_bad=0.1)",
            "ch=gilbert-elliott(loss_bad=0.9)",
        }

    def test_fault_model_sweep_executes_and_groups_per_regime(self):
        spec = fault_model_campaign_spec(
            num_processes=3,
            duration=30.0,
            num_seeds=1,
            collectors=(("rdt-lgc", {}),),
        )
        run = run_campaign(spec)
        assert run.cell_count == spec.cell_count
        summary = aggregate_campaign(
            run.records, group_by=("network", "failures")
        )
        regimes = {group.key[0] for group in summary.groups}
        assert "ch=gilbert-elliott(loss_bad=0.4,p_bad_to_good=0.3)" in regimes
        assert "ch=duplicating(duplicate_probability=0.2)" in regimes
        assert any(r.startswith("ch=latency-matrix(latencies#") for r in regimes)
        assert "lat=1.0/jit=0.5/drop=0.0/part[10,20)g0,1" in regimes
        assert "lat=1.0/jit=0.5/drop=0.0/fifo" in regimes
        # The adversaries' pressure is measured per cell.
        metrics = [
            r["metrics"] for r in run.records if r.get("status") == "ok"
        ]
        assert any(m["duplicated"] > 0 for m in metrics)
        assert any(m["partition_blocked"] > 0 for m in metrics)


class TestStore:
    """The unleased ``append``/``load`` surface the serial and pool executors use."""

    @staticmethod
    def _store_and_cells(tmp_path):
        cells = tiny_spec(seeds=(0,)).cells()
        store = SQLResultStore(str(tmp_path / "s.sqlite"))
        store.enqueue(cells)
        return store, cells

    def test_append_load_roundtrip(self, tmp_path):
        store, (a, b) = self._store_and_cells(tmp_path)
        store.append({"cell_id": a.cell_id, "params": a.params(), "metrics": {"x": 1.5}})
        store.append({"cell_id": b.cell_id, "params": b.params(), "metrics": {"x": 2.0}})
        loaded = store.load()
        assert set(loaded) == {a.cell_id, b.cell_id}
        assert loaded[a.cell_id]["metrics"]["x"] == 1.5

    def test_later_record_wins(self, tmp_path):
        store, (a, _) = self._store_and_cells(tmp_path)
        store.append({"cell_id": a.cell_id, "metrics": {"x": 1.0}})
        store.append({"cell_id": a.cell_id, "metrics": {"x": 9.0}})
        assert store.load()[a.cell_id]["metrics"]["x"] == 9.0

    def test_records_without_cell_id_rejected(self, tmp_path):
        store, _ = self._store_and_cells(tmp_path)
        with pytest.raises(ValueError):
            store.append({"metrics": {}})

    def test_append_needs_an_enqueued_cell(self, tmp_path):
        store, _ = self._store_and_cells(tmp_path)
        with pytest.raises(ValueError, match="enqueue it first"):
            store.append({"cell_id": "never-enqueued", "params": {}, "metrics": {}})
        assert store.load() == {}


class TestExecution:
    def test_pool_and_serial_runs_are_identical(self):
        spec = tiny_spec()
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=3)
        assert serial.executed == pooled.executed == spec.cell_count
        assert serial.records == pooled.records
        assert (
            aggregate_campaign(serial.records).to_csv()
            == aggregate_campaign(pooled.records).to_csv()
        )

    def test_records_follow_expansion_order(self):
        spec = tiny_spec()
        expected = [cell.cell_id for cell in spec.cells()]
        run = run_campaign(spec, workers=2)
        assert [record["cell_id"] for record in run.records] == expected

    def test_progress_reports_every_cell(self):
        spec = tiny_spec(seeds=(0,))
        seen = []
        run_campaign(spec, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_resume_after_kill_skips_completed_cells(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        store_path = str(tmp_path / "sweep.sqlite")
        uninterrupted = aggregate_campaign(run_campaign(spec).records)

        real = executor_module.execute_cell
        calls = {"n": 0}

        def dies_after_two(cell):
            if calls["n"] == 2:
                raise KeyboardInterrupt("killed mid-sweep")
            calls["n"] += 1
            return real(cell)

        monkeypatch.setattr(executor_module, "execute_cell", dies_after_two)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store_path=store_path)
        monkeypatch.setattr(executor_module, "execute_cell", real)
        assert len(SQLResultStore(store_path).load()) == 2

        executed = []
        monkeypatch.setattr(
            executor_module,
            "execute_cell",
            lambda cell: executed.append(cell.cell_id) or real(cell),
        )
        resumed = run_campaign(spec, store_path=store_path)
        assert resumed.executed == spec.cell_count - 2
        assert resumed.resumed == 2
        assert len(executed) == spec.cell_count - 2
        # Identical results to the uninterrupted run, and one row per cell.
        assert aggregate_campaign(resumed.records).to_csv() == uninterrupted.to_csv()
        assert SQLResultStore(store_path).status_counts() == {"ok": spec.cell_count}

        final = run_campaign(spec, store_path=store_path)
        assert final.executed == 0
        assert final.resumed == spec.cell_count

    def test_smoke_spec_runs_with_failures(self):
        run = run_campaign(smoke_campaign_spec(num_seeds=1))
        crashed = [
            r for r in run.records if r["params"]["failures"] and r["metrics"]["recoveries"]
        ]
        assert crashed, "failure cells must actually inject crashes"

    def test_failing_cells_are_recorded_not_fatal(self, tmp_path):
        # client-server on a single process raises inside the simulation; the
        # sweep must record the failure and keep going (the paper grid itself
        # contains such points: the unsafe collector breaking recovery).
        spec = CampaignSpec(
            name="partial-failure",
            num_processes=1,
            duration=20.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(
                WorkloadSpec.of("uniform-random"),
                WorkloadSpec.of("client-server"),
            ),
            seeds=(0, 1),
        )
        store_path = str(tmp_path / "partial.sqlite")
        run = run_campaign(spec, store_path=store_path)
        assert run.executed == 4
        failed = run.failed_records
        assert len(failed) == 2
        assert all(r["params"]["workload"] == "client-server" for r in failed)
        assert all("error" in r for r in failed)

        summary = aggregate_campaign(run.records, group_by=("workload",))
        by_workload = {g.key[0]: g for g in summary.groups}
        assert by_workload["uniform-random"].count == 2
        assert by_workload["uniform-random"].failed == 0
        assert by_workload["client-server"].count == 0
        assert by_workload["client-server"].failed == 2
        assert by_workload["client-server"].stats == {}
        rendered = summary.table().render()
        assert "failed" in rendered
        assert "-" in rendered  # metric cells of the all-failed group
        csv_rows = {line.split(",")[0]: line for line in summary.to_csv().splitlines()[1:]}
        assert csv_rows["client-server"].endswith(",0,2")  # 0 runs, 2 failed
        assert csv_rows["uniform-random"].endswith(",2,0")

        # Failed cells are persisted and not re-executed on resume.
        resumed = run_campaign(spec, store_path=store_path)
        assert resumed.executed == 0
        assert resumed.resumed == 4

        # retry_failed re-executes exactly the failed cells (deterministic
        # failures fail again; the escape hatch exists for transient causes).
        retried = run_campaign(spec, store_path=store_path, retry_failed=True)
        assert retried.executed == 2
        assert retried.resumed == 2
        assert len(retried.failed_records) == 2

    def test_all_failed_campaign_rejected_in_aggregation(self):
        spec = CampaignSpec(
            name="all-fail",
            num_processes=1,
            duration=20.0,
            collectors=(CollectorSpec.of("rdt-lgc"),),
            workloads=(WorkloadSpec.of("client-server"),),
            seeds=(0,),
        )
        run = run_campaign(spec)
        with pytest.raises(ValueError):
            aggregate_campaign(run.records)


class TestAggregation:
    def test_single_seed_has_zero_spread(self):
        run = run_campaign(tiny_spec(seeds=(0,)))
        summary = aggregate_campaign(run.records, group_by=("collector",))
        for group in summary.groups:
            assert group.count == 1
            for stats in group.stats.values():
                assert stats.stdev == 0.0
                assert stats.minimum == stats.maximum == stats.mean

    def test_multi_seed_uses_sample_stdev(self):
        run = run_campaign(tiny_spec(seeds=(0, 1, 2)))
        summary = aggregate_campaign(run.records, group_by=("collector",))
        by_collector = {g.key[0]: g for g in summary.groups}
        values = [
            r["metrics"]["peak_retained"]
            for r in run.records
            if r["params"]["collector"] == "rdt-lgc"
        ]
        stats = by_collector["rdt-lgc"].stats["peak_retained"]
        assert stats.count == 3
        assert stats.mean == pytest.approx(statistics.fmean(values))
        assert stats.stdev == pytest.approx(statistics.stdev(values))

    def test_group_by_and_tables(self):
        run = run_campaign(tiny_spec(failure_counts=(0, 1)))
        summary = aggregate_campaign(run.records)
        assert summary.group_by == ("workload", "collector", "failures")
        assert len(summary.groups) == 4  # 2 collectors x 2 failure levels
        text = summary.table().render()
        assert "rdt-lgc" in text and "±" in text
        sections = summary.tables_by("workload")
        assert len(sections) == 1 and sections[0][0] == "uniform-random"
        with pytest.raises(ValueError):
            summary.tables_by("collector_options")

    def test_unknown_metric_rejected(self):
        run = run_campaign(tiny_spec(seeds=(0,)))
        with pytest.raises(KeyError):
            aggregate_campaign(run.records, metrics=("no-such-metric",))

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            aggregate_campaign([])

    def test_csv_and_json_exports_are_full_precision(self):
        run = run_campaign(tiny_spec(seeds=(0, 1)))
        summary = aggregate_campaign(run.records, group_by=("collector",))
        csv_text = summary.to_csv()
        assert csv_text.splitlines()[0].startswith("collector,peak_retained_mean")
        document = json.loads(summary.to_json())
        assert document["campaign"] == "tiny"
        ratio = document["groups"][0]["stats"]["collection_ratio"]["mean"]
        assert 0.0 <= ratio <= 1.0


class TestCli:
    def test_dry_run_prints_expansion(self, capsys):
        assert campaign_main(["--dry-run", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "cells" in out and "paper-collector-comparison" in out

    def test_spec_file_run_with_store_and_out(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "cli-sweep",
                    "num_processes": 3,
                    "duration": 20.0,
                    "collectors": ["rdt-lgc"],
                    "workloads": ["uniform-random"],
                    "seeds": 2,
                }
            )
        )
        store = tmp_path / "store.sqlite"
        out_dir = tmp_path / "out"
        argv = [
            "--spec", str(spec_path),
            "--store", str(store),
            "--out", str(out_dir),
            "--group-by", "collector",
            "--quiet",
        ]
        assert campaign_main(argv) == 0
        first = capsys.readouterr().out
        assert "2 executed, 0 resumed" in first
        assert (out_dir / "cli-sweep.csv").exists()
        assert (out_dir / "cli-sweep.json").exists()
        # Second invocation resumes everything from the store.
        assert campaign_main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 resumed" in second

    def test_non_sqlite_store_is_a_usage_error(self, legacy_store_file, capsys):
        for mode in ([], ["--worker"]):
            with pytest.raises(SystemExit) as excinfo:
                campaign_main(
                    ["--seeds", "1", "--store", legacy_store_file, "--quiet", *mode]
                )
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert legacy_store_file in err and "not a SQLite database" in err

    def test_spec_file_rejects_default_grid_flags(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "x", "seeds": 1}))
        with pytest.raises(SystemExit):
            campaign_main(["--spec", str(spec_path), "--seeds", "50", "--dry-run"])
        assert "cannot be combined with --spec" in capsys.readouterr().err

    def test_group_by_typo_rejected_before_the_sweep_runs(self, capsys):
        with pytest.raises(SystemExit):
            campaign_main(["--group-by", "workload,colector", "--quiet"])
        assert "unknown --group-by axis colector" in capsys.readouterr().err
