"""Tests for the shared main-table experiment driver."""

from repro.dbms.engine import PostgresSimulator
from repro.experiments.common import Scale
from repro.experiments.main_tables import TABLE_HEADER, main_table
from repro.workloads.catalog import get_workload

TINY = Scale(seeds=(1,), n_iterations=10)


class TestMainTableDriver:
    def test_main_table_report_structure(self):
        report, raw = main_table(
            "tableX", "test table", ("ycsb-a",), "random", TINY
        )
        assert report.experiment_id == "tableX"
        assert report.lines[0] == TABLE_HEADER
        assert "ycsb-a" in report.data
        assert set(report.data["ycsb-a"]) == {
            "improvement",
            "improvement_ci",
            "speedup",
            "speedup_ci",
            "tto_iteration",
        }
        base, treat = raw["ycsb-a"]
        assert len(base) == len(treat) == 1
        assert len(base[0].best_curve) == 10
        # The baseline tunes all 90 knobs, LlamaTune a 16-d projection.
        widths = [
            len(arm[0].knowledge_base.observations[0].optimizer_config)
            for arm in (base, treat)
        ]
        assert widths == [90, 16]

    def test_latency_mode_with_rate(self):
        report, raw = main_table(
            "tableX", "test table", ("tpcc",), "random", TINY,
            objective="latency", target_rates={"tpcc": 2000.0},
        )
        assert report.lines[1].startswith("tpcc")
        # Both arms minimize p95 latency at the table's request rate.
        simulator = PostgresSimulator(get_workload("tpcc"), target_rate=2000.0)
        default = simulator.default_measurement().value("latency")
        for (result,) in raw["tpcc"]:
            assert result.knowledge_base.maximize is False
            assert result.default_value == default
