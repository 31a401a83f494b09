"""Live-DBMS execution backend: driver, transport, fakes, failure matrix.

Pins the execution-backend contract (ROADMAP.md) hermetically — every
test runs against the in-process :class:`FakePg`/:class:`FlakyPg` server
models on a virtual clock, no PostgreSQL, no psycopg, no real sleeping:

* a clean live evaluation is deterministic and configuration-sensitive;
* the full failure matrix lands in the existing taxonomy: transport-level
  retries absorb short flakes invisibly, envelope retries absorb longer
  ones, phase-budget overruns surface as ``EvalTimeoutError``, exhausted
  budgets quarantine with row/fingerprint attribution, config-caused
  startup failures take the paper's crash penalty *after* auto.conf
  recovery, and an open circuit breaker fast-fails to quarantine;
* record → replay through ``run_spec`` is byte-identical, including
  across a SIGKILL mid-run + checkpoint resume in a fresh interpreter.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.dbms.errors import (
    DbmsCrashError,
    EvalTimeoutError,
    TransientEvalError,
)
from repro.dbms.live import (
    EvalTrace,
    FakePg,
    FaultScript,
    FlakyPg,
    LiveDbmsDriver,
    PhaseBudgets,
    TraceMissError,
)
from repro.space.configspace import Configuration, config_fingerprint
from repro.tuning.faults import (
    EXHAUSTED,
    FaultEnvelope,
    FaultPolicy,
    VirtualClock,
)
from repro.tuning.runner import SessionSpec, run_grid, run_spec
from repro.workloads import get_workload

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_driver(transport, **kwargs):
    return LiveDbmsDriver(get_workload("ycsb-a"), transport=transport, **kwargs)


def make_envelope(transport, **policy_kwargs):
    return FaultEnvelope(FaultPolicy(**policy_kwargs), clock=transport.clock)


def default_config(driver):
    return driver.space.default_configuration()


def variant_config(driver, **overrides):
    values = dict(default_config(driver).to_dict())
    values.update(overrides)
    return Configuration(driver.space, values)


class TestCleanEvaluation:
    def test_deterministic_across_fresh_fakes(self):
        outcomes = []
        for _ in range(2):
            driver = make_driver(FakePg())
            m = driver.evaluate(default_config(driver))
            outcomes.append((m.throughput, m.p95_latency_ms, tuple(sorted(m.metrics.items()))))
        assert outcomes[0] == outcomes[1]
        assert "pg_stat_database.xact_commit" in dict(outcomes[0][2])
        assert "pg_stat_bgwriter.buffers_alloc" in dict(outcomes[0][2])

    def test_configuration_moves_the_measurement(self):
        driver = make_driver(FakePg())
        base = driver.evaluate(default_config(driver))
        tuned = driver.evaluate(variant_config(driver, shared_buffers=262144))
        assert base.throughput != tuned.throughput

    def test_knobs_reach_the_server_via_alter_system(self):
        fake = FakePg()
        driver = make_driver(fake)
        driver.evaluate(variant_config(driver, shared_buffers=262144))
        assert fake.applied["shared_buffers"] == "262144"
        assert len(fake.applied) == len(driver.space.names)

    def test_rng_is_never_consumed(self):
        driver = make_driver(FakePg())
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        driver.evaluate(default_config(driver), rng=rng)
        assert rng.bit_generator.state == before


class TestFailureMatrix:
    def test_transport_retries_absorb_short_flakes_invisibly(self):
        clean = make_driver(FakePg())
        expected = clean.evaluate(default_config(clean))

        flaky = FlakyPg(script=FaultScript(drop_connects=2))
        driver = make_driver(flaky)
        envelope = make_envelope(flaky)
        got = envelope.evaluate(driver, default_config(driver))
        assert (got.throughput, got.p95_latency_ms) == (
            expected.throughput,
            expected.p95_latency_ms,
        )
        assert got.metrics == expected.metrics
        assert envelope.transient_retries == 0  # absorbed below the envelope
        assert flaky.injected_faults == 2

    def test_envelope_retries_then_succeeds(self):
        clean = make_driver(FakePg())
        expected = clean.evaluate(default_config(clean))

        flaky = FlakyPg(
            script=FaultScript(drop_connects=2), policy=FaultPolicy(max_retries=0)
        )
        driver = make_driver(flaky)
        envelope = make_envelope(flaky)
        got = envelope.evaluate(driver, default_config(driver))
        assert envelope.transient_retries == 2
        assert (got.throughput, got.metrics) == (
            expected.throughput,
            expected.metrics,
        )

    def test_hung_restart_is_a_timeout_then_quarantine(self):
        flaky = FlakyPg(script=FaultScript(hang_restarts=10), hang_seconds=120.0)
        driver = make_driver(flaky, budgets=PhaseBudgets(restart_seconds=60.0))
        with pytest.raises(EvalTimeoutError, match="restart phase"):
            driver.evaluate(default_config(driver))

        envelope = make_envelope(flaky, max_retries=2)
        outcome = envelope.evaluate(driver, default_config(driver))
        assert outcome is EXHAUSTED
        assert envelope.exhausted_evaluations == 1

    def test_budget_checked_before_liveness(self):
        """A restart that both hangs past its budget *and* leaves the
        server down is a timeout (infrastructure), not a crash (config):
        the deadline is measured first."""
        flaky = FlakyPg(
            script=FaultScript(hang_restarts=1, wedge_restarts=1),
            hang_seconds=120.0,
        )
        driver = make_driver(flaky, budgets=PhaseBudgets(restart_seconds=60.0))
        with pytest.raises(EvalTimeoutError):
            driver.evaluate(default_config(driver))

    def test_crash_recovers_on_last_good_and_penalizes(self):
        calls = []

        def wedge_second_restart(auto_conf):
            calls.append(dict(auto_conf))
            return len(calls) == 2

        fake = FakePg(wedge_when=wedge_second_restart)
        driver = make_driver(fake)
        good = driver.evaluate(default_config(driver))  # restart 1: fine
        assert driver._last_good is not None

        bad = variant_config(driver, shared_buffers=262144)
        with pytest.raises(DbmsCrashError, match="recovered on last-good"):
            driver.evaluate(bad)  # restart 2: wedged
        assert driver.recoveries == 1
        assert fake.running
        # The poisonous auto.conf was removed, then the last-good settings
        # were re-applied and are in effect again.
        assert fake.auto_conf == driver._last_good
        assert fake.applied == driver._last_good
        # last-good settings are back in effect: the next evaluation of
        # the good config measures exactly what it measured before.
        again = driver.evaluate(default_config(driver))
        assert again.throughput == good.throughput

        envelope = make_envelope(fake)
        fake.wedge_when = lambda conf: len(calls) == len(calls)  # never again
        assert envelope.evaluate(driver, default_config(driver)) is not None

    def test_crash_outcome_is_the_paper_penalty_not_a_retry(self):
        fired = []

        def wedge_once(auto_conf):
            if not fired:
                fired.append(True)
                return True
            return False

        fake = FakePg(wedge_when=wedge_once)
        driver = make_driver(fake)
        envelope = make_envelope(fake)
        assert envelope.evaluate(driver, default_config(driver)) is None
        assert envelope.transient_retries == 0

    def test_open_breaker_fast_fails_to_quarantine(self):
        flaky = FlakyPg(
            script=FaultScript(drop_connects=100),
            policy=FaultPolicy(max_retries=0),
            breaker_threshold=2,
        )
        driver = make_driver(flaky)
        envelope = make_envelope(flaky, max_retries=3)
        assert envelope.evaluate(driver, default_config(driver)) is EXHAUSTED
        assert flaky.breaker_open
        attempts_at_open = flaky.connect_attempts
        assert attempts_at_open == 2  # breaker opened, later tries never dialed
        with pytest.raises(TransientEvalError, match="breaker"):
            flaky.connect()
        assert flaky.connect_attempts == attempts_at_open

    def test_connect_backs_off_on_the_policy_schedule(self):
        """The transport retries and backs off with the envelope's
        ``FaultPolicy``: three dropped connects cost exactly the policy's
        first three delays on the virtual clock, and the breaker still
        opens at its threshold."""
        policy = FaultPolicy(
            max_retries=3, backoff_base=0.5, backoff_factor=3.0, backoff_max=2.0
        )
        schedule = sum(policy.backoff_delay(k) for k in (1, 2, 3))
        clock = VirtualClock()
        flaky = FlakyPg(
            script=FaultScript(drop_connects=3),
            policy=policy,
            clock=clock,
            connect_seconds=0.0,
        )
        flaky.connect()
        assert flaky.connect_attempts == 4
        assert clock.now() == schedule == 4.0

        clock = VirtualClock()
        dead = FlakyPg(
            script=FaultScript(drop_connects=100),
            policy=policy,
            breaker_threshold=2,
            clock=clock,
            connect_seconds=0.0,
        )
        for __ in range(2):
            with pytest.raises(TransientEvalError, match="after 4 attempts"):
                dead.connect()
        assert dead.breaker_open
        assert dead.connect_attempts == 8
        assert clock.now() == 2 * schedule
        with pytest.raises(TransientEvalError, match="breaker"):
            dead.connect()
        assert dead.connect_attempts == 8

    def test_chaos_rate_is_reproducible_per_key(self):
        def run(fault_seed):
            flaky = FlakyPg(
                fault_rate=0.3,
                spec_token=12345,
                session_seed=7,
                fault_seed=fault_seed,
                policy=FaultPolicy(max_retries=1),
            )
            driver = make_driver(flaky)
            envelope = make_envelope(flaky, max_retries=5)
            kinds = []
            for i in range(6):
                outcome = envelope.evaluate(
                    driver, variant_config(driver, shared_buffers=16384 + i)
                )
                kinds.append(
                    "x" if outcome is EXHAUSTED
                    else "c" if outcome is None
                    else "m"
                )
            return tuple(kinds), flaky.injected_faults

        assert run(fault_seed=1) == run(fault_seed=1)
        schedules = {run(fault_seed=s) for s in range(1, 5)}
        assert len(schedules) > 1  # the fault seed actually moves the schedule


class TestRecordReplay:
    def test_record_then_replay_is_byte_identical(self, tmp_path):
        path = tmp_path / "trace.json"
        recorder = make_driver(FakePg(), record_path=path)
        configs = [
            default_config(recorder),
            variant_config(recorder, shared_buffers=262144),
        ]
        live = [recorder.evaluate(c) for c in configs]

        replayer = LiveDbmsDriver(
            get_workload("ycsb-a"), trace=EvalTrace.load(path)
        )
        replayed = [replayer.evaluate(c) for c in configs]
        for a, b in zip(live, replayed):
            assert a.throughput == b.throughput
            assert a.p95_latency_ms == b.p95_latency_ms
            assert a.metrics == b.metrics

    def test_recorded_crash_replays_as_crash(self, tmp_path):
        path = tmp_path / "trace.json"
        fired = []

        def wedge_once(auto_conf):
            if not fired:
                fired.append(True)
                return True
            return False

        recorder = make_driver(FakePg(wedge_when=wedge_once), record_path=path)
        config = default_config(recorder)
        with pytest.raises(DbmsCrashError):
            recorder.evaluate(config)

        replayer = LiveDbmsDriver(
            get_workload("ycsb-a"), trace=EvalTrace.load(path)
        )
        with pytest.raises(DbmsCrashError, match="recovered on last-good"):
            replayer.evaluate(config)

    def test_replay_miss_fails_loudly(self, tmp_path):
        path = tmp_path / "trace.json"
        recorder = make_driver(FakePg(), record_path=path)
        recorder.evaluate(default_config(recorder))
        replayer = LiveDbmsDriver(
            get_workload("ycsb-a"), trace=EvalTrace.load(path)
        )
        with pytest.raises(TraceMissError):
            replayer.evaluate(variant_config(replayer, shared_buffers=262144))

    def test_trace_header_must_match_driver(self, tmp_path):
        path = tmp_path / "trace.json"
        recorder = make_driver(FakePg(), record_path=path)
        recorder.evaluate(default_config(recorder))
        with pytest.raises(ValueError, match="workload"):
            LiveDbmsDriver(get_workload("tpcc"), trace=EvalTrace.load(path))


def live_spec(trace_path=None, record=False, transport=FakePg, **kwargs):
    base = dict(
        workload="ycsb-a",
        optimizer="smac",
        n_init=4,
        n_iterations=10,
    )
    if record:
        base.update(
            backend="live",
            live_transport=transport,
            record_trace=str(trace_path),
        )
    elif trace_path is not None:
        base.update(backend="replay", trace=str(trace_path))
    base.update(kwargs)
    return SessionSpec(**base)


class TestSessionIntegration:
    def test_record_then_replay_sessions_are_byte_identical(self, tmp_path):
        path = tmp_path / "trace.json"
        live = run_spec(live_spec(path, record=True), seeds=[3])[0]
        replayed = run_spec(live_spec(path), seeds=[3])[0]
        assert np.array_equal(live.values, replayed.values)
        assert [o.crashed for o in live.knowledge_base] == [
            o.crashed for o in replayed.knowledge_base
        ]
        assert all(
            a.target_config == b.target_config
            for a, b in zip(live.knowledge_base, replayed.knowledge_base)
        )
        assert live.best_value == replayed.best_value
        assert live.default_value == replayed.default_value

    def test_timeout_quarantine_reports_row_and_fingerprint(self):
        class HangAfterFirstRestart(FlakyPg):
            def restart(self):
                if self.restarts >= 1:
                    self.script.hang_restarts = 1
                super().restart()

        spec = live_spec(record=False, transport=None)
        spec = SessionSpec(
            workload="ycsb-a",
            optimizer="smac",
            n_init=4,
            n_iterations=10,
            backend="live",
            live_transport=lambda: HangAfterFirstRestart(hang_seconds=120.0),
            fault_policy=FaultPolicy(max_retries=2, timeout_seconds=30.0),
        )
        result = run_spec(spec, seeds=[3])[0]
        assert result.quarantined_at == 0
        assert result.quarantined_row == 0
        assert isinstance(result.quarantined_fingerprint, str)
        assert len(result.quarantined_fingerprint) == 16
        assert len(result.knowledge_base) == 0

    def test_crash_penalty_and_recovery_keep_the_session_going(self):
        wedges = []
        transports = []

        def wedge_third_restart(auto_conf):
            wedges.append(True)
            return len(wedges) == 3

        def factory():
            transport = FakePg(wedge_when=wedge_third_restart)
            transports.append(transport)
            return transport

        spec = SessionSpec(
            workload="ycsb-a",
            optimizer="smac",
            n_init=4,
            n_iterations=10,
            backend="live",
            live_transport=factory,
        )
        result = run_spec(spec, seeds=[3])[0]
        assert result.quarantined_at is None
        assert len(result.knowledge_base) == 10
        crashed = [o for o in result.knowledge_base if o.crashed]
        assert len(crashed) == 1
        assert transports[0].running  # recovery left the server healthy

    def test_sigkill_mid_run_then_resume_is_byte_identical(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        ckpt_dir = tmp_path / "ckpt"
        seed = 5

        run_spec(live_spec(trace_path, record=True), seeds=[seed])
        full = run_spec(live_spec(trace_path), seeds=[seed])[0]

        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.tuning.runner import SessionSpec

            spec = SessionSpec(
                workload="ycsb-a", optimizer="smac", n_init=4,
                n_iterations=10, backend="replay",
                trace={str(trace_path)!r},
                checkpoint_every=6, checkpoint_dir={str(ckpt_dir)!r},
            )
            session = spec.build({seed})
            simulator = session.simulator
            real_evaluate = type(simulator).evaluate
            calls = [0]

            def kill_mid_evaluation(self, config, rng=None):
                calls[0] += 1
                if calls[0] == 9:  # two iterations past the checkpoint
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_evaluate(self, config, rng=rng)

            type(simulator).evaluate = kill_mid_evaluation
            session.run()
            raise SystemExit("unreachable: the session outlived its kill")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert any(ckpt_dir.iterdir())  # the round-boundary checkpoint landed

        resumed = run_spec(
            live_spec(
                trace_path,
                checkpoint_every=6,
                checkpoint_dir=str(ckpt_dir),
                resume=True,
            ),
            seeds=[seed],
        )[0]
        assert np.array_equal(full.values, resumed.values)
        assert all(
            a.target_config == b.target_config
            and a.optimizer_config == b.optimizer_config
            for a, b in zip(full.knowledge_base, resumed.knowledge_base)
        )
        assert full.best_value == resumed.best_value
        assert [o.crashed for o in full.knowledge_base] == [
            o.crashed for o in resumed.knowledge_base
        ]


class TestParallelSeedsRefused:
    """Parallel live seeds would reconfigure and restart one server
    concurrently, so one seed could measure under another's knobs."""

    SPEC = SessionSpec(
        workload="ycsb-a", optimizer="smac", n_init=4, n_iterations=6,
        backend="live", live_transport=FakePg,
    )
    SIM = SessionSpec(workload="tpcc", n_init=4, n_iterations=6)

    @pytest.mark.parametrize(
        "tasks",
        [
            pytest.param([(SPEC, 1), (SPEC, 2)], id="process"),
            # One live task among simulator tasks refuses the whole grid.
            pytest.param([(SIM, 1), (SPEC, 1), (SIM, 2)], id="mixed"),
        ],
    )
    def test_run_spec_refuses_parallel_seeds(self, tasks):
        with pytest.raises(ValueError, match="parallel"):
            run_grid(tasks, workers=2)

    def test_sequential_and_wave_runs_stay_allowed(self):
        sequential = run_spec(self.SPEC, seeds=[1, 2])
        waved = run_spec(self.SPEC, seeds=[1, 2], workers=1)
        for a, b in zip(sequential, waved):
            assert np.array_equal(a.values, b.values)

    def test_recording_refuses_any_workers(self, tmp_path):
        spec = dataclasses.replace(
            self.SPEC, record_trace=str(tmp_path / "trace.json")
        )
        for workers in (1, 2):
            with pytest.raises(ValueError, match="sequentially"):
                run_spec(spec, seeds=[1, 2], workers=workers)
        # One recording task among simulator tasks refuses the grid
        # before any task runs.
        with pytest.raises(ValueError, match="sequentially"):
            run_grid([(self.SIM, 1), (spec, 1)], workers=1)
        assert not (tmp_path / "trace.json").exists()

    def test_cli_exits_2(self, capsys):
        from repro.cli import main

        code = main([
            "--backend", "live", "--dsn", "dbname=tuning",
            "--seeds", "1,2", "--workers", "2", "--no-plot",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err


class TestDriverConstruction:
    def test_exactly_one_mode(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            LiveDbmsDriver(get_workload("ycsb-a"))
        with pytest.raises(ValueError, match="exactly one"):
            LiveDbmsDriver(
                get_workload("ycsb-a"),
                transport=FakePg(),
                trace=EvalTrace("ycsb-a", "9.6"),
            )
        with pytest.raises(ValueError, match="record_path requires"):
            LiveDbmsDriver(
                get_workload("ycsb-a"),
                trace=EvalTrace("ycsb-a", "9.6"),
                record_path=tmp_path / "t.json",
            )

    def test_realpg_requires_a_pg_module(self):
        from repro.dbms.live.transport import RealPg

        for module in ("psycopg", "psycopg2"):
            if module in sys.modules:
                pytest.skip("a postgres driver is installed here")
        with pytest.raises(ImportError, match="psycopg"):
            RealPg("dbname=test")

    def test_fingerprint_matches_configuration_method(self):
        driver = make_driver(FakePg())
        config = default_config(driver)
        assert config_fingerprint(config) == config.fingerprint()
