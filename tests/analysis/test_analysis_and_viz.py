"""Tests for the analysis helpers and the ASCII diagrams."""

import pytest

from repro.analysis.metrics import aggregate
from repro.analysis.tables import TextTable
from repro.scenarios.figures import figure1_ccp
from repro.viz.ascii_diagram import render_ccp, render_gc_trace


class TestAggregation:
    def test_aggregate_statistics(self):
        stats = aggregate([1.0, 2.0, 3.0])
        assert stats.mean == 2.0
        assert stats.minimum == 1.0
        assert stats.maximum == 3.0
        assert stats.count == 3

    def test_spread_is_the_sample_stdev(self):
        # Seeded runs are a sample of the run distribution, so the spread must
        # use the n-1 estimator, not the population one.
        import statistics

        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = aggregate(values)
        assert stats.stdev == pytest.approx(statistics.stdev(values))
        assert stats.stdev > statistics.pstdev(values)

    def test_single_observation_has_zero_spread(self):
        assert aggregate([7.0]).stdev == 0.0

    def test_str_surfaces_the_spread(self):
        text = str(aggregate([1.0, 3.0]))
        assert "±" in text and "n=2" in text

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestTextTable:
    def test_render_aligns_columns(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row("alpha", 1)
        table.add_row("b", 123.456)
        text = table.render()
        assert "demo" in text
        assert "alpha" in text and "123.46" in text
        assert table.row_count == 2

    def test_row_arity_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            TextTable([])

    def test_add_rows(self):
        table = TextTable(["a"])
        table.add_rows([[1], [2]])
        assert table.row_count == 2

    def test_render_csv(self):
        table = TextTable(["name", "value"])
        table.add_row("with,comma", 1.5)
        lines = table.render_csv().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == '"with,comma",1.50'

    def test_render_json_keeps_raw_values(self):
        import json

        table = TextTable(["name", "value"], title="demo")
        table.add_row("alpha", 123.456)
        document = json.loads(table.render_json())
        assert document["title"] == "demo"
        assert document["rows"] == [{"name": "alpha", "value": 123.456}]


class TestAsciiDiagrams:
    def test_render_ccp_mentions_every_process(self):
        text = render_ccp(figure1_ccp())
        assert "p0:" in text and "p1:" in text and "p2:" in text
        assert "[0]" in text

    def test_render_ccp_respects_max_width(self):
        text = render_ccp(figure1_ccp(), max_width=40)
        assert all(len(line) <= 40 for line in text.splitlines())

    def test_render_gc_trace(self):
        text = render_gc_trace(
            [("p2 s^1", (1, 1, 0), (0, 1, None)), ("p2 final", (1, 4, 2), (0, 3, 1))]
        )
        assert "p2 s^1" in text
        assert "*" in text  # Null entries rendered as the paper's asterisk
