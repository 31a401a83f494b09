"""Tests for the analytical PostgreSQL simulator — its structural
properties (calibration, special values, non-monotone memory, noise,
crashes, metrics)."""

import numpy as np
import pytest

from repro.dbms import (
    METRIC_NAMES,
    DbmsCrashError,
    PostgresSimulator,
    V96,
    V136,
)
from repro.space.postgres import postgres_v96_space, postgres_v136_space
from repro.workloads import WORKLOADS, get_workload


@pytest.fixture(scope="module")
def space():
    return postgres_v96_space()


class TestCalibration:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_default_matches_base_throughput(self, name):
        workload = get_workload(name)
        sim = PostgresSimulator(workload, noise_std=0.0)
        m = sim.default_measurement()
        assert m.throughput == pytest.approx(workload.base_throughput, rel=1e-6)

    def test_v136_baseline_scales(self):
        workload = get_workload("ycsb-b")
        v96 = PostgresSimulator(workload, version=V96, noise_std=0.0)
        v136 = PostgresSimulator(workload, version=V136, noise_std=0.0)
        ratio = v136.default_measurement().throughput / v96.default_measurement().throughput
        assert ratio == pytest.approx(1.40, rel=1e-6)


class TestDeterminismAndNoise:
    def test_noise_free_is_deterministic(self, space):
        sim = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        config = space.partial_configuration({"shared_buffers": 500_000})
        a = sim.evaluate(config)
        b = sim.evaluate(config)
        assert a.throughput == b.throughput

    def test_noise_varies_with_rng(self, space):
        sim = PostgresSimulator(get_workload("tpcc"), noise_std=0.02)
        config = space.default_configuration()
        a = sim.evaluate(config, rng=np.random.default_rng(1)).throughput
        b = sim.evaluate(config, rng=np.random.default_rng(2)).throughput
        assert a != b
        # ... but only by a few percent.
        assert abs(a - b) / a < 0.2


class TestSpecialValues:
    def test_backend_flush_after_discontinuity(self, space):
        """Figure 4's shape: 0 beats all non-special values on YCSB-B, and
        small values are the worst."""
        sim = PostgresSimulator(get_workload("ycsb-b"), noise_std=0.0)

        def tps(value):
            return sim.evaluate(
                space.partial_configuration({"backend_flush_after": value})
            ).throughput

        special = tps(0)
        assert special > tps(1) * 1.3
        assert special > tps(256)
        assert tps(256) > tps(1)  # large values recover part of the loss

    def test_wal_buffers_auto_sizing(self, space):
        """-1 (auto) should behave like a reasonable explicit setting, not
        like the minimum."""
        sim = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        auto = sim.evaluate(
            space.partial_configuration({"wal_buffers": -1})
        ).throughput
        tiny = sim.evaluate(
            space.partial_configuration({"wal_buffers": 8})  # 64 kB
        ).throughput
        assert auto >= tiny

    def test_writeback_effect_smaller_on_v136(self, space136=None):
        """Table 7's narrowing YCSB-B gap: v13.6 shrinks the writeback win."""
        space = postgres_v136_space()
        workload = get_workload("ycsb-b")

        def gap(version):
            sim = PostgresSimulator(workload, version=version, noise_std=0.0)
            special = sim.evaluate(
                space.partial_configuration({"backend_flush_after": 0})
            ).throughput
            worst = sim.evaluate(
                space.partial_configuration({"backend_flush_after": 1})
            ).throughput
            return special / worst

        assert gap(V96) > gap(V136) * 1.2


class TestMemoryBehaviour:
    def test_oversized_shared_buffers_crash(self, space):
        sim = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        config = space.partial_configuration(
            {"shared_buffers": space["shared_buffers"].upper}
        )
        with pytest.raises(DbmsCrashError):
            sim.evaluate(config)

    def test_buffer_pool_interior_optimum(self, space):
        """More shared_buffers helps up to a point, then hurts (swap
        pressure near the RAM wall) — the non-monotone response."""
        sim = PostgresSimulator(get_workload("ycsb-b"), noise_std=0.0)
        pages = [16_384, 655_360, 1_572_864, 1_835_008]  # 128MB..14GB
        tps = [
            sim.evaluate(
                space.partial_configuration({"shared_buffers": p})
            ).throughput
            for p in pages
        ]
        assert tps[2] > tps[0]  # a big pool beats the default
        assert tps[2] > tps[-1]  # but near-RAM sizing pays swap penalties

    def test_crash_reports_reason(self, space):
        sim = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        config = space.partial_configuration(
            {"shared_buffers": space["shared_buffers"].upper}
        )
        with pytest.raises(DbmsCrashError, match="shared memory"):
            sim.evaluate(config)


class TestLatencyModel:
    def test_closed_loop_p95_positive(self, space):
        sim = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        assert sim.default_measurement().p95_latency_ms > 0

    def test_open_loop_saturation(self, space):
        """A rate above capacity explodes the tail latency."""
        workload = get_workload("tpcc")
        low = PostgresSimulator(workload, noise_std=0.0, target_rate=500.0)
        high = PostgresSimulator(workload, noise_std=0.0, target_rate=5_000.0)
        config = space.default_configuration()
        assert high.evaluate(config).p95_latency_ms > 50 * low.evaluate(config).p95_latency_ms

    def test_better_config_lowers_latency(self, space):
        sim = PostgresSimulator(get_workload("tpcc"), noise_std=0.0, target_rate=1_000.0)
        base = sim.evaluate(space.default_configuration()).p95_latency_ms
        tuned = sim.evaluate(
            space.partial_configuration(
                {"synchronous_commit": "off", "max_wal_size": 16_384}
            )
        ).p95_latency_ms
        assert tuned < base

    def test_saturation_is_continuous(self, space):
        """p95 must not jump discontinuously at the saturation threshold:
        rates straddling rho = 0.97 by ±0.2% give nearby latencies (the old
        saturated branch jumped by two orders of magnitude here)."""
        workload = get_workload("tpcc")
        config = space.default_configuration()
        capacity = PostgresSimulator(workload, noise_std=0.0).evaluate(
            config
        ).throughput

        def p95_at(rho):
            sim = PostgresSimulator(
                workload, noise_std=0.0, target_rate=rho * capacity
            )
            return sim.evaluate(config).p95_latency_ms

        below, above = p95_at(0.968), p95_at(0.972)
        assert above > below  # still monotone in utilization
        assert above < below * 1.5  # ... but continuous, not a cliff

    def test_saturated_branch_keeps_commit_delay_and_tail(self, space):
        """The saturated regime scales the full queueing-branch latency, so
        commit_delay and the burst-driven tail factor still matter."""
        workload = get_workload("tpcc")
        sim = PostgresSimulator(workload, noise_std=0.0, target_rate=50_000.0)
        plain = sim.evaluate(space.default_configuration()).p95_latency_ms
        delayed = sim.evaluate(
            space.partial_configuration({"commit_delay": 100_000})
        ).p95_latency_ms
        bursty = sim.evaluate(
            space.partial_configuration({"max_wal_size": 32})
        ).p95_latency_ms
        assert delayed > plain
        assert bursty > plain


class TestMetrics:
    def test_27_metrics_emitted(self, space):
        sim = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        m = sim.default_measurement()
        assert set(m.metrics) == set(METRIC_NAMES)
        assert len(m.metrics) == 27

    def test_metrics_respond_to_configuration(self, space):
        sim = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        small = sim.evaluate(space.partial_configuration({"shared_buffers": 16_384}))
        large = sim.evaluate(space.partial_configuration({"shared_buffers": 917_504}))
        assert large.metrics["buffer_hit_ratio"] > small.metrics["buffer_hit_ratio"]

    def test_objective_selector(self, space):
        sim = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        m = sim.default_measurement()
        assert m.value("throughput") == m.throughput
        assert m.value("latency") == m.p95_latency_ms
        with pytest.raises(ValueError):
            m.value("energy")
