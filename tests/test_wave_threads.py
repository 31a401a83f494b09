"""Thread-count invariance pins for the multicore wave engine.

The multicore contract (ROADMAP.md): every parallel path added by the
multicore engine — threaded wave-member fits and the kernel's
worker-pool grouped leaf walk — is an *execution strategy only*.  Per-seed trajectories (knob values, measured
values, crash rows, early-stop iterations) and every optimizer/session
PCG64 stream position must be **byte-identical** at any thread count.
If one of these pins fails, a parallel path reordered RNG consumption or
let one member's state leak into another's; that is a correctness
regression, not a tolerance issue — do not loosen the comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from forest_reference import predict_mean_var_per_tree
from repro.optimizers import _forest_kernel
from repro.optimizers.forest import (
    RandomForestRegressor,
    predict_mean_var_stacked,
)
from repro.tuning import wave
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.wave import run_wave, wave_thread_count

SEEDS = (1, 2, 3)


def trajectory(result):
    return [
        (
            o.iteration,
            o.value,
            o.crashed,
            tuple(sorted(dict(o.target_config).items())),
        )
        for o in result.knowledge_base
    ]


class _CapturingSpec:
    """Duck-typed spec wrapper recording built sessions, so tests can
    compare post-run RNG stream positions across thread counts."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        self.sessions = []

    def build(self, seed: int):
        session = self.spec.build(seed)
        self.sessions.append(session)
        return session


def assert_thread_invariant(spec: SessionSpec, seeds=SEEDS, expect_crash=None):
    """``run_wave`` at 1 thread vs 4 threads: byte-identical results and
    identical final RNG stream positions for every session."""
    one_spec = _CapturingSpec(spec)
    one = run_wave(one_spec, seeds, threads=1)
    four_spec = _CapturingSpec(spec)
    four = run_wave(four_spec, seeds, threads=4)
    crashes = 0
    for a, b in zip(one, four):
        assert a.stopped_early_at == b.stopped_early_at
        assert a.default_value == b.default_value
        assert trajectory(a) == trajectory(b)
        crashes += sum(o.crashed for o in a.knowledge_base)
    for s1, s4 in zip(one_spec.sessions, four_spec.sessions):
        assert (
            s1.optimizer.rng.bit_generator.state
            == s4.optimizer.rng.bit_generator.state
        )
        assert s1.rng.bit_generator.state == s4.rng.bit_generator.state
    if expect_crash is not None:
        assert (crashes > 0) == expect_crash
    return one, four


class TestThreadCountResolution:
    def test_default_is_single_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAVE_THREADS", raising=False)
        assert wave_thread_count() == 1
        assert wave_thread_count(SessionSpec(workload="ycsb-a")) == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAVE_THREADS", "4")
        assert wave_thread_count() == 4

    def test_spec_field_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAVE_THREADS", "4")
        spec = SessionSpec(workload="ycsb-a", wave_threads=2)
        assert wave_thread_count(spec) == 2

    def test_override_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAVE_THREADS", "4")
        spec = SessionSpec(workload="ycsb-a", wave_threads=2)
        assert wave_thread_count(spec, override=8) == 8

    def test_garbage_and_nonpositive_env_fall_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WAVE_THREADS", "many")
        assert wave_thread_count() == 1
        monkeypatch.setenv("REPRO_WAVE_THREADS", "0")
        assert wave_thread_count() == 1

    def test_wave_threads_outside_spec_token(self):
        """The thread count is an execution knob, not part of the spec's
        identity — checkpoints and caches must not fork on it."""
        a = SessionSpec(workload="ycsb-a")
        b = SessionSpec(workload="ycsb-a", wave_threads=4)
        assert a.spec_token() == b.spec_token()


class TestWaveThreadInvariance:
    def test_smac_llamatune(self):
        assert_thread_invariant(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=14, n_init=6,
            )
        )

    def test_smac_vanilla_with_crashes(self):
        # The raw 90-knob space draws over-committed memory configs, so
        # crash rows (penalties + skipped noise draws) cross the threaded
        # prepare path too.
        assert_thread_invariant(
            SessionSpec(
                workload="tpcc", optimizer="smac", adapter=None,
                n_iterations=12, n_init=6,
            ),
            expect_crash=True,
        )

    def test_gpbo(self):
        assert_thread_invariant(
            SessionSpec(
                workload="ycsb-a", optimizer="gp-bo",
                adapter=llamatune_factory(), n_iterations=10, n_init=6,
            ),
            seeds=(1, 2),
        )

    def test_random(self):
        assert_thread_invariant(
            SessionSpec(
                workload="ycsb-a", optimizer="random",
                adapter=llamatune_factory(), n_iterations=10, n_init=4,
            )
        )

    def test_early_stopping_rows(self):
        one, __ = assert_thread_invariant(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=25, n_init=6,
                early_stopping=EarlyStoppingPolicy(
                    min_improvement=0.5, patience=4
                ),
            )
        )
        assert any(r.stopped_early_at is not None for r in one)

    def test_shared_pool_schedule_independent(self):
        """Shared-pool waves draw exactly one pool per wave regardless of
        the thread schedule (the provider lock serializes the first
        requester), so trajectories match the single-thread protocol."""
        spec = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=14, n_init=6,
        )
        one = run_wave(spec, SEEDS, shared_pool=True, pool_seed=7, threads=1)
        four = run_wave(spec, SEEDS, shared_pool=True, pool_seed=7, threads=4)
        for a, b in zip(one, four):
            assert trajectory(a) == trajectory(b)

    def test_more_threads_than_members(self, monkeypatch):
        spec = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
        )
        one = run_wave(spec, (1,), threads=1)
        many = run_wave(spec, (1,), threads=8)
        assert trajectory(one[0]) == trajectory(many[0])

        # A lone session's run() drives at one thread whatever the
        # environment asks for: it never starts an executor.
        def no_executor(*args, **kwargs):
            raise AssertionError("TuningSession.run() started an executor")

        monkeypatch.setenv("REPRO_WAVE_THREADS", "4")
        monkeypatch.setattr(wave, "ThreadPoolExecutor", no_executor)
        assert trajectory(spec.build(1).run()) == trajectory(one[0])

    def test_checkpoint_resume_mid_sweep(self, tmp_path):
        """A wave sweep killed mid-run resumes byte-identically *under
        threads* — checkpoint writes and restores happen outside the
        threaded prepare phase, so the thread count touches neither."""
        n_full, n_cut = 14, 9
        base = dict(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(target_dim=4), n_init=6,
        )
        full = run_spec(
            SessionSpec(**base, n_iterations=n_full), SEEDS, workers=1
        )
        truncated = SessionSpec(
            **base, n_iterations=n_cut, checkpoint_every=n_cut,
            checkpoint_dir=str(tmp_path), wave_threads=4,
        )
        run_spec(truncated, SEEDS, workers=1)
        resumed_spec = SessionSpec(
            **base, n_iterations=n_full, checkpoint_every=n_cut,
            checkpoint_dir=str(tmp_path), resume=True, wave_threads=4,
        )
        resumed = run_spec(resumed_spec, SEEDS, workers=1)
        for f, r in zip(full, resumed):
            assert trajectory(f) == trajectory(r)
            assert f.best_value == r.best_value

    def test_run_spec_wave_threads_plumbing(self, monkeypatch):
        """The spec's ``wave_threads`` field reaches the wave driver
        through ``run_spec`` — and neither it nor sharding changes a
        single byte of the results."""
        spec = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
        )
        threaded = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
            wave_threads=4,
        )
        monkeypatch.delenv("REPRO_WAVE_THREADS", raising=False)
        driven = []
        real_drive = wave.drive

        def spy(sessions, threads=1, pool_rng=None):
            driven.append(threads)
            return real_drive(sessions, threads=threads, pool_rng=pool_rng)

        monkeypatch.setattr(wave, "drive", spy)
        baseline = run_spec(spec, (1, 2), workers=1)
        via_spec = run_spec(threaded, (1, 2), workers=1)
        assert driven == [1, 4]
        via_shards = run_spec(threaded, (1, 2, 3), workers=2)
        for a, b, c in zip(baseline, via_spec, via_shards):
            assert trajectory(a) == trajectory(b) == trajectory(c)


needs_kernel = pytest.mark.skipif(
    not _forest_kernel.kernel_available(),
    reason="no C compiler / kernel disabled",
)


@needs_kernel
class TestParallelLeafWalk:
    """The kernel's worker-pool grouped walk vs the serial entry point."""

    @staticmethod
    def _stack(n_groups=5, rows=(1, 63, 64, 65, 129), d=7):
        rng = np.random.default_rng(42)
        forests = []
        slabs = []
        for g in range(n_groups):
            X = rng.normal(size=(80, d))
            y = rng.normal(size=80) + X[:, 0]
            f = RandomForestRegressor(n_trees=12, seed=g + 1)
            f.fit(X, y)
            forests.append(f)
            slabs.append(rng.normal(size=(rows[g % len(rows)], d)))
        return forests, slabs

    def test_stacked_mean_var_identical_across_thread_counts(self):
        forests, slabs = self._stack()
        X = np.concatenate(slabs)
        row_counts = np.array([len(s) for s in slabs], dtype=np.int64)
        serial = predict_mean_var_stacked(forests, X, row_counts, n_threads=1)
        for n_threads in (2, 3, 4, 8):
            threaded = predict_mean_var_stacked(
                forests, X, row_counts, n_threads=n_threads
            )
            for (m1, v1), (mt, vt) in zip(serial, threaded):
                assert np.array_equal(m1, mt)
                assert np.array_equal(v1, vt)

    def test_stacked_matches_per_forest_predict(self):
        forests, slabs = self._stack()
        X = np.concatenate(slabs)
        row_counts = np.array([len(s) for s in slabs], dtype=np.int64)
        stacked = predict_mean_var_stacked(forests, X, row_counts, n_threads=4)
        for forest, slab, (mean, var) in zip(forests, slabs, stacked):
            m, v = predict_mean_var_per_tree(forest, slab)
            assert np.array_equal(m, mean)
            assert np.array_equal(v, var)

    def test_empty_groups_and_tiny_rows(self):
        """Zero-row groups produce zero chunks; the task walker must skip
        them without misattributing neighbouring chunks."""
        forests, slabs = self._stack(rows=(1, 0, 64, 0, 3))
        X = np.concatenate([s for s in slabs if len(s)])
        row_counts = np.array([len(s) for s in slabs], dtype=np.int64)
        serial = predict_mean_var_stacked(forests, X, row_counts, n_threads=1)
        threaded = predict_mean_var_stacked(forests, X, row_counts, n_threads=4)
        for (m1, v1), (mt, vt) in zip(serial, threaded):
            assert np.array_equal(m1, mt)
            assert np.array_equal(v1, vt)
