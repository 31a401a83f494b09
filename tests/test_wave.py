"""Wave-scheduler equivalence pins (``run_spec(..., workers=1)``).

The wave scheduler's contract: per-seed trajectories are *byte-identical*
to sequential ``run_spec`` — knob values, measured values, crash rows and
penalties, early-stop iterations, and every optimizer/evaluation PCG64
stream position — even though the waves execute one stacked model phase
and one cross-session evaluation per round.  If one of these fails, the
wave reordered or shared some per-seed RNG consumption; that is a
correctness regression, not a tolerance issue — do not loosen the
comparison.
"""

from repro.dbms.engine import PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.wave import run_wave

SEEDS = (1, 2, 3)


class _CapturingSpec:
    """Duck-typed spec wrapper recording the sessions it builds, so the
    tests can compare post-run RNG stream positions."""

    def __init__(self, spec: SessionSpec):
        self.spec = spec
        self.sessions = []

    def build(self, seed: int):
        session = self.spec.build(seed)
        self.sessions.append(session)
        return session


def run_both(spec: SessionSpec, seeds=SEEDS):
    """Run sequentially and in wave mode, returning results plus the
    final RNG states of every session's optimizer and noise streams."""
    seq_spec = _CapturingSpec(spec)
    seq_results = [seq_spec.build(seed).run() for seed in seeds]
    wave_spec = _CapturingSpec(spec)
    wave_results = run_wave(wave_spec, seeds)
    return (
        seq_results,
        wave_results,
        seq_spec.sessions,
        wave_spec.sessions,
    )


def assert_equivalent(spec: SessionSpec, seeds=SEEDS, expect_crash=None):
    seq_results, wave_results, seq_sessions, wave_sessions = run_both(
        spec, seeds
    )
    crashes = 0
    for seq, wav in zip(seq_results, wave_results):
        assert seq.stopped_early_at == wav.stopped_early_at
        assert seq.default_value == wav.default_value
        seq_obs = list(seq.knowledge_base)
        wav_obs = list(wav.knowledge_base)
        assert len(seq_obs) == len(wav_obs)
        for a, b in zip(seq_obs, wav_obs):
            assert a.iteration == b.iteration
            assert a.value == b.value
            assert a.crashed == b.crashed
            crashes += a.crashed
            assert dict(a.optimizer_config) == dict(b.optimizer_config)
            assert dict(a.target_config) == dict(b.target_config)
    for seq_session, wave_session in zip(seq_sessions, wave_sessions):
        # Every driver leaves its sessions finished.
        assert seq_session.state == wave_session.state == "done"
        assert (
            seq_session.optimizer.rng.bit_generator.state
            == wave_session.optimizer.rng.bit_generator.state
        )
        assert (
            seq_session.rng.bit_generator.state
            == wave_session.rng.bit_generator.state
        )
    if expect_crash is not None:
        # The fixture must actually exercise the crash path for the
        # crash-row equivalence above to mean anything.
        assert (crashes > 0) == expect_crash
    return seq_results, wave_results


class TestWaveBitEquivalence:
    def test_smac_llamatune(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=18, n_init=6,
            )
        )

    def test_smac_vanilla_with_crashes(self):
        # The raw 90-knob space draws over-committed memory configs, so
        # crash rows (penalties + skipped noise draws) are exercised.
        assert_equivalent(
            SessionSpec(
                workload="tpcc", optimizer="smac", adapter=None,
                n_iterations=14, n_init=6,
            ),
            expect_crash=True,
        )

    def test_gpbo(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="gp-bo",
                adapter=llamatune_factory(), n_iterations=12, n_init=6,
            )
        )

    def test_gpbo_refit_every(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="gp-bo",
                adapter=llamatune_factory(), n_iterations=12, n_init=6,
                optimizer_kwargs=(("refit_every", 3),),
            ),
            seeds=(1, 2),
        )

    def test_random(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="random",
                adapter=llamatune_factory(), n_iterations=12, n_init=4,
            )
        )

    def test_ddpg_degrades_to_per_session_stepping(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="ddpg",
                adapter=llamatune_factory(), n_iterations=8, n_init=4,
            ),
            seeds=(1, 2),
        )

    def test_early_stopping_rows(self):
        results, _ = assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=25, n_init=6,
                early_stopping=EarlyStoppingPolicy(
                    min_improvement=0.5, patience=4
                ),
            )
        )
        assert any(r.stopped_early_at is not None for r in results)

    def test_suggest_batch_rounds(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=16, n_init=6,
                suggest_batch=3,
            ),
            seeds=(1, 2),
        )

    def test_single_seed(self):
        assert_equivalent(
            SessionSpec(
                workload="ycsb-a", optimizer="smac",
                adapter=llamatune_factory(), n_iterations=12, n_init=6,
            ),
            seeds=(4,),
        )

    def test_subclassed_simulator_honored(self):
        """A simulator subclass with a customized evaluation path (failure
        injection, real-DBMS drivers) opts the wave out of the stacked
        evaluator: every member's rows go through its *own* simulator, so
        injected behavior matches the sequential runner exactly."""

        class EveryThirdCrashes(PostgresSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._calls = 0

            def evaluate(self, config, rng=None):
                self._calls += 1
                if self._calls % 3 == 0:
                    if rng is not None:
                        rng.standard_normal(2)  # stateful stream use
                    raise DbmsCrashError("injected crash")
                return super().evaluate(config, rng=rng)

        class InjectingSpec:
            def __init__(self, spec):
                self.spec = spec
                self.sessions = []

            def build(self, seed):
                session = self.spec.build(seed)
                session.simulator = EveryThirdCrashes(
                    session.simulator.workload,
                    version=session.simulator.version,
                )
                self.sessions.append(session)
                return session

        base = SessionSpec(
            workload="ycsb-a", optimizer="smac",
            adapter=llamatune_factory(), n_iterations=12, n_init=5,
        )
        seq_spec = InjectingSpec(base)
        seq = [seq_spec.build(seed).run() for seed in (1, 2)]
        wav = run_wave(InjectingSpec(base), (1, 2))
        crashes = 0
        for a, b in zip(seq, wav):
            assert trajectory(a) == trajectory(b)
            crashes += a.crash_count
        assert crashes > 0  # the injection must actually fire


def trajectory(result):
    return [
        (o.iteration, o.value, o.crashed, tuple(sorted(dict(o.target_config).items())))
        for o in result.knowledge_base
    ]


class TestRunSpecWiring:
    def test_mode_wave_routes(self):
        spec = SessionSpec(
            workload="ycsb-a", optimizer="random",
            adapter=llamatune_factory(), n_iterations=6, n_init=3,
        )
        seq = run_spec(spec, (1, 2))
        wav = run_spec(spec, (1, 2), workers=1)
        for a, b in zip(seq, wav):
            assert trajectory(a) == trajectory(b)

    def test_empty_seed_list(self):
        spec = SessionSpec(workload="ycsb-a", n_iterations=4)
        assert run_spec(spec, (), workers=1) == []
        assert run_spec(spec, (), workers=2) == []
