"""Heterogeneous-wave equivalence pins (:func:`run_wave_mixed`).

Extends the wave contract (see ``test_wave.py``) to *mixed* task lists:
``(spec, seed)`` pairs with different workloads, optimizers, adapter
widths, and budgets run in ONE wave — one stacked forest scoring call
per model phase, one stacked simulator pass per simulator-identity
group — and every task stays byte-identical to its solo sequential
``run_spec``: knob values, measured values, crash rows, early-stop
iterations, and every optimizer/evaluation PCG64 stream position.  A
mismatch means the grouping leaked RNG draws or rows across specs; do
not loosen the comparison.
"""

import numpy as np

from repro.dbms.live import FakePg, FlakyPg
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.faults import FaultPolicy
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.wave import run_wave_mixed


class _CapturingSpec:
    """Duck-typed spec wrapper recording built sessions so tests can
    compare post-run RNG stream positions (delegates everything else)."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        self.sessions = []

    def __getattr__(self, name):
        return getattr(self.spec, name)

    def build(self, seed: int):
        session = self.spec.build(seed)
        self.sessions.append(session)
        return session


def run_both_mixed(tasks):
    """Run each task solo-sequentially and all tasks in one mixed wave,
    returning (solo_results, wave_results, solo_sessions, wave_sessions).
    """
    solo_sessions, solo_results = [], []
    for spec, seed in tasks:
        session = spec.build(seed)
        solo_sessions.append(session)
        solo_results.append(session.run())
    # Tasks sharing a spec must share ONE capturing wrapper so the wave
    # sees one spec identity (grouping dedupes by identity).
    by_id = {}
    deduped = []
    for spec, seed in tasks:
        wrapper = by_id.setdefault(id(spec), _CapturingSpec(spec))
        deduped.append((wrapper, seed))
    wave_results = run_wave_mixed(deduped)
    # Each wrapper built its sessions in task order, so popping per
    # wrapper reconstructs the task-order session list even when specs
    # interleave in the task list.
    queues = {id(w): list(w.sessions) for w in by_id.values()}
    wave_sessions = [
        queues[id(wrapper)].pop(0) for wrapper, _ in deduped
    ]
    return solo_results, wave_results, solo_sessions, wave_sessions


def assert_mixed_equivalent(tasks, expect_crash=None):
    solo_results, wave_results, solo_sessions, wave_sessions = (
        run_both_mixed(tasks)
    )
    crashes = 0
    for solo, wave in zip(solo_results, wave_results):
        assert solo.stopped_early_at == wave.stopped_early_at
        assert solo.quarantined_at == wave.quarantined_at
        assert solo.quarantined_row == wave.quarantined_row
        assert solo.quarantined_fingerprint == wave.quarantined_fingerprint
        assert solo.default_value == wave.default_value
        solo_obs = list(solo.knowledge_base)
        wave_obs = list(wave.knowledge_base)
        assert len(solo_obs) == len(wave_obs)
        for a, b in zip(solo_obs, wave_obs):
            assert a.iteration == b.iteration
            assert a.value == b.value
            assert a.crashed == b.crashed
            crashes += a.crashed
            assert dict(a.optimizer_config) == dict(b.optimizer_config)
            assert dict(a.target_config) == dict(b.target_config)
    for solo_session, wave_session in zip(solo_sessions, wave_sessions):
        assert (
            solo_session.optimizer.rng.bit_generator.state
            == wave_session.optimizer.rng.bit_generator.state
        )
        assert (
            solo_session.rng.bit_generator.state
            == wave_session.rng.bit_generator.state
        )
    if expect_crash is not None:
        assert (crashes > 0) == expect_crash
    return solo_results, wave_results


class TestHeterogeneousWaves:
    def test_two_workloads_same_optimizer(self):
        # Same simulator *type*, different workload profiles → two
        # evaluate_batch_stacked groups, one stacked forest scoring call.
        a = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=14, n_init=5,
        )
        b = SessionSpec(
            workload="tpcc", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=14, n_init=5,
        )
        assert_mixed_equivalent([(a, 1), (a, 2), (b, 1), (b, 2)])

    def test_mixed_optimizers_and_widths(self):
        # Forest (16d) + forest (8d) + GP (16d): the stacked call must
        # zero-pad the 8d candidate block, and the GP rounds must score
        # per-session without perturbing the stacked walk.
        a = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(target_dim=16),
            n_iterations=12, n_init=5,
        )
        b = SessionSpec(
            workload="tpcc", optimizer="smac",
            adapter=llamatune_factory(target_dim=8),
            n_iterations=12, n_init=5,
        )
        c = SessionSpec(
            workload="ycsb-a", optimizer="gp-bo",
            adapter=llamatune_factory(target_dim=16),
            n_iterations=12, n_init=5,
        )
        assert_mixed_equivalent([(a, 1), (b, 1), (c, 1), (b, 2)])

    def test_mixed_budgets_member_dropout(self):
        # Different n_iterations → short sessions drop out of the wave
        # while long ones keep stepping; survivors must not absorb the
        # departed members' RNG draws.
        a = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=8, n_init=4,
        )
        b = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=18, n_init=4,
        )
        assert_mixed_equivalent([(a, 1), (b, 1)])

    def test_early_stop_dropout_in_mixed_wave(self):
        # An aggressive early-stop policy on one spec forces mid-wave
        # dropout; the other spec's trajectory must be unaffected.
        a = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=20, n_init=4,
            early_stopping=EarlyStoppingPolicy(
                min_improvement=0.5, patience=3, warmup=5
            ),
        )
        b = SessionSpec(
            workload="tpcc", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=20, n_init=4,
        )
        solo, _ = assert_mixed_equivalent([(a, 1), (b, 1)])
        assert solo[0].stopped_early_at is not None
        assert solo[1].stopped_early_at is None

    def test_vanilla_space_crash_rows(self):
        # The raw 90-knob space draws over-committed memory configs, so
        # crash rows (penalty + skipped noise draw) cross the stacked
        # evaluation path alongside a healthy llamatune spec.
        a = SessionSpec(
            workload="tpcc", optimizer="smac", adapter=None,
            n_iterations=12, n_init=5,
        )
        b = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=12, n_init=5,
        )
        assert_mixed_equivalent([(a, 1), (b, 1)], expect_crash=True)

    def test_values_match_run_spec_sequential(self):
        # End-to-end sanity against the public runner (not just
        # session.run()): values arrays compare exactly.
        a = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
        )
        b = SessionSpec(
            workload="tpcc", optimizer="gp-bo",
            adapter=llamatune_factory(target_dim=8),
            n_iterations=10, n_init=4,
        )
        wave = run_wave_mixed([(a, 3), (b, 3)])
        solo_a = run_spec(a, [3])[0]
        solo_b = run_spec(b, [3])[0]
        np.testing.assert_array_equal(wave[0].values, solo_a.values)
        np.testing.assert_array_equal(wave[1].values, solo_b.values)


class _FlakyAfterWarmup(FlakyPg):
    """Drops the first tuned evaluation's connections (the session-start
    default measurement, connects 1-2, stays clean so the un-enveloped
    default evaluation succeeds); deterministic per build."""

    def __init__(self):
        super().__init__(policy=FaultPolicy(max_retries=0))
        self._connects = 0

    def _raw_connect(self):
        self._connects += 1
        if self._connects in (4, 5):
            raise ConnectionResetError("injected post-warmup failure")
        return super()._raw_connect()


class TestLiveBackendMembers:
    """Live/replay-backend sessions always carry a fault envelope and a
    subclassed ``evaluate``, so a mixed wave must route them down the
    per-session path — and the stacked simulator members must stay
    byte-identical to their solo runs with such a member alongside."""

    def test_replay_member_leaves_stacked_survivors_byte_identical(
        self, tmp_path
    ):
        trace_path = tmp_path / "trace.json"
        record = SessionSpec(
            workload="ycsb-a", optimizer="smac", n_iterations=10, n_init=4,
            backend="live", live_transport=FakePg,
            record_trace=str(trace_path),
        )
        run_spec(record, seeds=[1])
        replay = SessionSpec(
            workload="ycsb-a", optimizer="smac", n_iterations=10, n_init=4,
            backend="replay", trace=str(trace_path),
        )
        sim = SessionSpec(
            workload="tpcc", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
        )
        # A wave-induced divergence in the replay member would also
        # surface as a loud TraceMissError before any assertion.
        assert_mixed_equivalent([(replay, 1), (sim, 1), (sim, 2)])

    def test_fault_enveloped_live_member_retries_without_leaking(self):
        live = SessionSpec(
            workload="ycsb-a", optimizer="smac", n_iterations=10, n_init=4,
            backend="live", live_transport=_FlakyAfterWarmup,
        )
        sim = SessionSpec(
            workload="tpcc", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=10, n_init=4,
        )
        solo, _ = assert_mixed_equivalent([(live, 1), (sim, 1)])
        # The live member really did exercise its envelope (two dropped
        # connections on the first tuned evaluation) and still finished.
        assert solo[0].quarantined_at is None
        assert len(solo[0].knowledge_base) == 10
