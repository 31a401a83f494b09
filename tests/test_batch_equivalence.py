"""Batch paths must be bit-identical to N scalar calls.

The vectorized layer (``to_unit_array``/``from_unit_array``,
``to_target_batch``, ``evaluate_batch``) promises exact equivalence with the
scalar APIs — same values, same native Python types, same noise streams —
for seeded random configurations, including hybrid-knob biasing and crash
handling.  These tests pin that contract; the adapter, whose ``to_target``
is itself a one-row batch, is pinned to its knob-by-knob reference
(``tests/adapter_reference.py``).
"""

import dataclasses

import numpy as np
import pytest

from adapter_reference import assert_matches_reference
from repro.core.pipeline import IdentityAdapter, LlamaTuneAdapter
from repro.dbms import engine as engine_module
from repro.dbms.components import BATCH_COMPONENTS
from repro.dbms.context import BatchEvalContext
from repro.dbms.engine import PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.dbms.hardware import C220G5
from repro.dbms.plan import EvalPlan
from repro.dbms.versions import V96, V136
from repro.optimizers import SMACOptimizer
from repro.optimizers.encoding import SpaceEncoding
from repro.space.configspace import Configuration, ConfigurationSpace
from repro.space.knob import IntegerKnob, KnobError
from repro.space.postgres import postgres_v96_space, postgres_v136_space
from repro.space.sampling import uniform_configurations
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.session import TuningSession
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def space():
    return postgres_v96_space()


def assert_identical(batch, scalars, space):
    """Equal values AND equal native types, knob by knob."""
    assert len(batch) == len(scalars)
    for b, s in zip(batch, scalars):
        assert b == s
        for name in space.names:
            assert type(b[name]) is type(s[name]), name


class TestUnitArrayEquivalence:
    def test_to_unit_array_matches_scalar(self, space):
        rng = np.random.default_rng(0)
        configs = uniform_configurations(space, 32, rng)
        batch = space.to_unit_array(configs)
        stacked = np.stack([space.to_unit_vector(c) for c in configs])
        np.testing.assert_array_equal(batch, stacked)

    def test_from_unit_array_matches_scalar(self, space):
        rng = np.random.default_rng(1)
        unit = rng.random((32, space.dim))
        unit[0] = 0.0  # exercise the cube corners
        unit[1] = 1.0
        batch = space.from_unit_array(unit)
        scalars = [space.from_unit_vector(row) for row in unit]
        assert_identical(batch, scalars, space)

    def test_from_unit_array_clips_like_scalar(self, space):
        rng = np.random.default_rng(2)
        unit = rng.random((8, space.dim)) * 3.0 - 1.0  # out-of-cube values
        batch = space.from_unit_array(unit)
        scalars = [space.from_unit_vector(row) for row in unit]
        assert_identical(batch, scalars, space)

    def test_round_trip(self, space):
        rng = np.random.default_rng(3)
        configs = uniform_configurations(space, 16, rng)
        back = space.from_unit_array(space.to_unit_array(configs))
        assert_identical(back, configs, space)

    def test_to_unit_array_matches_per_knob_reference(self, space):
        """Independent oracle: the scalar vector methods now delegate to the
        batch paths, so compare against Knob.to_unit itself."""
        rng = np.random.default_rng(20)
        configs = uniform_configurations(space, 16, rng)
        batch = space.to_unit_array(configs)
        for i, config in enumerate(configs):
            for j, knob in enumerate(space):
                assert batch[i, j] == knob.to_unit(config[knob.name]), knob.name

    def test_from_unit_array_matches_per_knob_reference(self, space):
        rng = np.random.default_rng(21)
        unit = rng.random((16, space.dim))
        unit[0] = 0.0
        unit[-1] = 1.0
        batch = space.from_unit_array(unit)
        for i, config in enumerate(batch):
            for j, knob in enumerate(space):
                expected = knob.from_unit(float(unit[i, j]))
                got = config[knob.name]
                assert got == expected, knob.name
                assert type(got) is type(expected), knob.name

    def test_bad_shape_rejected(self, space):
        with pytest.raises(KnobError):
            space.from_unit_array(np.zeros((4, space.dim + 1)))
        with pytest.raises(KnobError):
            space.from_unit_array(np.zeros(space.dim))

    def test_empty_batch(self, space):
        assert space.from_unit_array(np.empty((0, space.dim))) == []
        assert space.to_unit_array([]).shape == (0, space.dim)


class TestAdapterEquivalence:
    """The catalog spaces through every adapter kind, against the
    knob-by-knob reference (``tests/adapter_reference.py``)."""

    @pytest.mark.parametrize("projection", ["hesbo", "rembo"])
    @pytest.mark.parametrize("max_values", [10_000, None])
    def test_projection_pipeline(self, space, projection, max_values):
        adapter = LlamaTuneAdapter(
            space, projection=projection, seed=5, max_values=max_values
        )
        rng = np.random.default_rng(4)
        suggestions = uniform_configurations(adapter.optimizer_space, 24, rng)
        assert_matches_reference(
            adapter, suggestions, adapter.to_target_batch(suggestions)
        )

    @pytest.mark.parametrize("bias", [0.0, 0.2])
    @pytest.mark.parametrize("max_values", [10_000, None])
    def test_no_projection_pipeline(self, space, bias, max_values):
        adapter = LlamaTuneAdapter(
            space, projection=None, bias=bias, max_values=max_values
        )
        rng = np.random.default_rng(5)
        suggestions = uniform_configurations(adapter.optimizer_space, 24, rng)
        assert_matches_reference(
            adapter, suggestions, adapter.to_target_batch(suggestions)
        )

    @pytest.mark.parametrize("max_values", [None, 101])
    @pytest.mark.parametrize("bias", [0.2, 0.25])
    def test_band_edges(self, bias, max_values):
        """Unprojected rows exactly on the band edges ``u = i * p`` (both
        scales carry them exactly): ``i < m`` maps to the i-th special
        value and ``u = m * p`` to the first regular value, as the band is
        ``u < m * p``.  The knob with ``m`` specials has specials
        ``0 .. m-1`` and regular values from ``m``, so both read ``i``."""
        space = ConfigurationSpace([
            IntegerKnob(f"m{m}", default=0, lower=0, upper=1000,
                        special_values=tuple(range(m)))
            for m in (1, 2, 3)
        ])
        adapter = LlamaTuneAdapter(
            space, projection=None, bias=bias, max_values=max_values
        )
        scale = 1000 if max_values is None else max_values - 1
        bands = [i for i in range(4) if i * bias * scale % 1 == 0]
        opt_space = adapter.optimizer_space
        suggestions = [
            opt_space.configuration(
                {name: int(i * bias * scale) for name in opt_space.names}
            )
            for i in bands
        ]
        targets = adapter.to_target_batch(suggestions)
        assert_matches_reference(adapter, suggestions, targets)
        for i, target in zip(bands, targets):
            for m in range(max(i, 1), 4):
                assert target[f"m{m}"] == i, (i, m)

    def test_v136_hybrid_knobs(self):
        """v13.6 adds float hybrid knobs (the ``jit_*`` costs): projected
        and unprojected, they keep float values, specials included."""
        space = postgres_v136_space()
        rng = np.random.default_rng(6)
        for projection in ("hesbo", None):
            adapter = LlamaTuneAdapter(space, projection=projection, seed=1)
            suggestions = uniform_configurations(
                adapter.optimizer_space, 16, rng
            )
            assert_matches_reference(
                adapter, suggestions, adapter.to_target_batch(suggestions)
            )

    def test_biasing_actually_hits_specials(self, space):
        """The sampled batch must exercise the special-value branch."""
        adapter = LlamaTuneAdapter(space, projection="hesbo", bias=0.2, seed=2)
        rng = np.random.default_rng(7)
        suggestions = uniform_configurations(adapter.optimizer_space, 64, rng)
        batch = adapter.to_target_batch(suggestions)
        hybrid = space.hybrid_knobs
        hits = sum(
            config[k.name] in k.special_values for config in batch for k in hybrid
        )
        assert hits > 0

    def test_identity_adapter_batch(self, space):
        adapter = IdentityAdapter(space)
        rng = np.random.default_rng(8)
        configs = uniform_configurations(space, 4, rng)
        assert adapter.to_target_batch(configs) == configs


class TestEncodingEquivalence:
    @pytest.fixture(scope="class")
    def encoding(self):
        return SpaceEncoding(postgres_v96_space())

    def test_encode_batch(self, encoding):
        rng = np.random.default_rng(9)
        configs = uniform_configurations(encoding.space, 16, rng)
        batch = encoding.encode_batch(configs)
        stacked = np.stack([encoding.encode(c) for c in configs])
        np.testing.assert_array_equal(batch, stacked)

    def test_decode_batch(self, encoding):
        rng = np.random.default_rng(10)
        vectors = encoding.random_vectors(16, rng)
        batch = encoding.decode_batch(vectors)
        scalars = [encoding.decode(v) for v in vectors]
        assert_identical(batch, scalars, encoding.space)

    def test_encode_decode_round_trip(self, encoding):
        rng = np.random.default_rng(11)
        configs = uniform_configurations(encoding.space, 8, rng)
        back = encoding.decode_batch(encoding.encode_batch(configs))
        assert_identical(back, configs, encoding.space)


class TestComponentBatchEquivalence:
    """Every component's N-row batch pass must match one-row passes over
    each configuration bit for bit — scores, notes, and crash messages."""

    @pytest.mark.parametrize(
        "workload,version,spacename",
        [("tpcc", V96, "v96"), ("ycsb-b", V96, "v96"), ("seats", V136, "v136")],
    )
    def test_scores_and_notes_match_scalar(self, workload, version, spacename):
        space = postgres_v96_space() if spacename == "v96" else postgres_v136_space()
        rng = np.random.default_rng(33)
        configs = uniform_configurations(space, 24, rng)
        wl = get_workload(workload)

        plan = EvalPlan.for_rows(configs, wl, C220G5, version)
        bctx = BatchEvalContext.from_values(configs, plan)
        batch_scores = {name: fn(bctx) for name, fn in BATCH_COMPONENTS.items()}

        crashes = 0
        for i, config in enumerate(configs):
            row_plan = EvalPlan.for_rows([config], wl, C220G5, version)
            row = BatchEvalContext.from_values([config], row_plan)
            row_scores = {name: fn(row) for name, fn in BATCH_COMPONENTS.items()}
            assert row.crashed[0] == bctx.crashed[i]
            if bctx.crashed[i]:
                crashes += 1
                assert row.crash_messages[0] == bctx.crash_messages[i]
            for name, score in row_scores.items():
                assert np.asarray(score).reshape(-1)[0] == batch_scores[name][i], name
            assert row.notes.keys() == bctx.notes.keys()
            for key, column in bctx.notes.items():
                assert (
                    np.asarray(row.notes[key]).reshape(-1)[0]
                    == np.asarray(column)[i]
                ), key
        # The sampled batch must exercise both outcomes.
        assert 0 < crashes < len(configs)

    def test_memory_crash_precedence(self, space):
        """Startup failures outrank OOM kills, exactly as the scalar check
        order promises."""
        crasher = space.partial_configuration(
            {"shared_buffers": space["shared_buffers"].upper}
        )
        plan = EvalPlan.for_rows([crasher], get_workload("ycsb-a"), C220G5, V96)
        bctx = BatchEvalContext.from_values([crasher], plan)
        BATCH_COMPONENTS["memory"](bctx)
        assert bctx.crashed[0]
        assert "shared memory" in bctx.crash_messages[0]


class TestSimulatorBatchEquivalence:
    def _crashing_mix(self, space, n, seed):
        """Safe (default-based) configurations with a known crasher spliced
        in; uniform random 90-knob configurations crash too often to serve
        as reliable non-crashers."""
        rng = np.random.default_rng(seed)
        configs = [
            space.partial_configuration(
                {"work_mem": int(rng.integers(64, 8192))}
            )
            for _ in range(n)
        ]
        # Memory over-commit: maximal buffers and work_mem across many
        # clients reliably crashes the simulated DBMS.
        crasher = space.partial_configuration(
            {
                "shared_buffers": space["shared_buffers"].upper,
                "work_mem": space["work_mem"].upper,
                "maintenance_work_mem": space["maintenance_work_mem"].upper,
            }
        )
        configs[1] = crasher
        return configs, crasher

    def test_batch_matches_sequential_with_noise(self, space):
        simulator = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.05)
        rng = np.random.default_rng(12)
        configs = uniform_configurations(space, 12, rng)
        batch = simulator.evaluate_batch(
            configs, rng=np.random.default_rng(99), on_crash="none"
        )
        sequential = []
        rng2 = np.random.default_rng(99)
        for config in configs:
            try:
                sequential.append(simulator.evaluate(config, rng=rng2))
            except DbmsCrashError:
                sequential.append(None)
        assert len(batch) == len(sequential)
        for b, s in zip(batch, sequential):
            if s is None:
                assert b is None
                continue
            assert b.throughput == s.throughput
            assert b.p95_latency_ms == s.p95_latency_ms
            assert dict(b.metrics) == dict(s.metrics)
            assert dict(b.component_scores) == dict(s.component_scores)

    def test_batch_matches_sequential_open_loop_v136(self):
        """Noise + open-loop latency + v13.6 hybrid knobs in one batch."""
        space = postgres_v136_space()
        simulator = PostgresSimulator(
            get_workload("seats"), version=V136, noise_std=0.03, target_rate=900.0
        )
        rng = np.random.default_rng(40)
        configs = uniform_configurations(space, 10, rng)
        batch = simulator.evaluate_batch(
            configs, rng=np.random.default_rng(41), on_crash="none"
        )
        rng2 = np.random.default_rng(41)
        for config, b in zip(configs, batch):
            try:
                s = simulator.evaluate(config, rng=rng2)
            except DbmsCrashError:
                s = None
            if s is None:
                assert b is None
                continue
            assert b.throughput == s.throughput
            assert b.p95_latency_ms == s.p95_latency_ms

    def test_raise_policy_reports_scalar_message(self, space):
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        configs, crasher = self._crashing_mix(space, 5, seed=17)
        with pytest.raises(DbmsCrashError) as scalar_err:
            simulator.evaluate(crasher)
        with pytest.raises(DbmsCrashError) as batch_err:
            simulator.evaluate_batch(configs)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_raise_policy_preserves_noise_stream_position(self, space):
        """Sequential semantics: rows before the crash draw their noise
        pairs before the exception propagates, so a caller reusing the rng
        afterwards sees the same stream either way."""
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.05)
        configs, __ = self._crashing_mix(space, 5, seed=18)  # crash at row 1
        batch_rng = np.random.default_rng(77)
        with pytest.raises(DbmsCrashError):
            simulator.evaluate_batch(configs, rng=batch_rng)
        scalar_rng = np.random.default_rng(77)
        with pytest.raises(DbmsCrashError):
            for config in configs:
                simulator.evaluate(config, rng=scalar_rng)
        assert batch_rng.standard_normal() == scalar_rng.standard_normal()

    def test_stacked_blocks_match_per_block_calls(self, space):
        """One stacked pass over a block with a stream (and a crashing
        row), a block without one, and another streamed block equals one
        ``evaluate_batch`` call per block: values and stream positions."""
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.05)
        configs, __ = self._crashing_mix(space, 7, seed=19)  # crash at row 1
        seeds, counts = (5, None, 6), (3, 2, 2)

        def streams():
            return [None if s is None else np.random.default_rng(s) for s in seeds]

        stacked_rngs, block_rngs = streams(), streams()
        stacked = simulator.evaluate_batch_stacked(
            configs, list(zip(stacked_rngs, counts))
        )
        expected, start = [], 0
        for rng, count in zip(block_rngs, counts):
            expected += simulator.evaluate_batch(
                configs[start:start + count], rng=rng, on_crash="none"
            )
            start += count
        assert stacked[1] is None
        for s, e in zip(stacked, expected):
            if e is None:
                assert s is None
                continue
            assert s.throughput == e.throughput
            assert s.p95_latency_ms == e.p95_latency_ms
            assert dict(s.metrics) == dict(e.metrics)
        for a, b in zip(stacked_rngs, block_rngs):
            if a is not None:
                assert a.bit_generator.state == b.bit_generator.state

    def test_crash_handling_none_policy(self, space):
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        configs, crasher = self._crashing_mix(space, 6, seed=13)
        with pytest.raises(DbmsCrashError):
            simulator.evaluate(crasher)
        results = simulator.evaluate_batch(configs, on_crash="none")
        assert results[1] is None
        assert all(r is not None for i, r in enumerate(results) if i != 1)

    def test_crash_handling_raise_policy(self, space):
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        configs, __ = self._crashing_mix(space, 4, seed=14)
        with pytest.raises(DbmsCrashError):
            simulator.evaluate_batch(configs)

    def test_unknown_crash_policy_rejected(self, space):
        simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
        with pytest.raises(ValueError):
            simulator.evaluate_batch([], on_crash="penalty")

    def test_v136_calibrates_against_own_space(self):
        """V136 simulators calibrate on the v13.6 catalog defaults, so the
        default measurement lands exactly on the calibrated target."""
        from repro.dbms.versions import V136

        workload = get_workload("ycsb-b")
        simulator = PostgresSimulator(workload, version=V136, noise_std=0.0)
        target = workload.base_throughput * V136.baseline_scale(workload.name)
        assert simulator.default_measurement().throughput == pytest.approx(target)


class TestConfigurationHashCache:
    def test_hash_stable_and_equal(self, space):
        rng = np.random.default_rng(15)
        config = uniform_configurations(space, 1, rng)[0]
        rebuilt = Configuration(space, config.to_dict())
        assert hash(config) == hash(config)  # cached second call
        assert hash(config) == hash(rebuilt)
        assert config == rebuilt

    def test_replace_changes_hash_independently(self, space):
        config = space.default_configuration()
        __ = hash(config)  # populate the cache
        replaced = config.replace(work_mem=config["work_mem"] + 1)
        assert replaced != config
        assert hash(replaced) != hash(config) or replaced == config

    def test_index_of(self, space):
        for i, name in enumerate(space.names):
            assert space.index_of(name) == i
        with pytest.raises(KeyError):
            space.index_of("nonexistent_knob")


class TestCalibrationCacheValueIdentity:
    def test_fresh_equal_profiles_share_entry(self):
        """Structurally identical (but freshly constructed) profiles must
        hit the same cache entry instead of growing the cache forever."""
        workload = get_workload("twitter")
        first = PostgresSimulator(workload, noise_std=0.0)
        first.default_measurement()
        size_after_first = len(engine_module._CALIBRATION_CACHE)

        clone = dataclasses.replace(workload)
        assert clone is not workload
        second = PostgresSimulator(clone, noise_std=0.0)
        second.default_measurement()
        assert len(engine_module._CALIBRATION_CACHE) == size_after_first
        assert second._calibration == first._calibration

    def test_cache_holds_no_object_references(self):
        """Values are plain floats, so cached profiles are not pinned alive
        (the old id()-keyed cache leaked every profile ever calibrated)."""
        for value in engine_module._CALIBRATION_CACHE.values():
            assert isinstance(value, float)

    def test_distinct_workloads_get_distinct_entries(self):
        workload = get_workload("twitter")
        PostgresSimulator(workload, noise_std=0.0).default_measurement()
        size = len(engine_module._CALIBRATION_CACHE)
        rescaled = dataclasses.replace(workload, base_throughput=12345.0)
        PostgresSimulator(rescaled, noise_std=0.0).default_measurement()
        assert len(engine_module._CALIBRATION_CACHE) == size + 1


def run_round_by_round(session):
    """Drive ``session`` one ``wave.suggest_wave`` round at a time — the
    rounds the session server runs, one design point per round through
    the init phase — instead of ``run()``'s one batched init round."""
    from repro.tuning.wave import suggest_wave

    session.start()
    while session.live:
        (round_,) = suggest_wave([session])
        outcomes = session._evaluate_batch(round_.targets)
        session._feed_outcomes(
            round_.configs, round_.targets, outcomes, round_.suggest_seconds
        )
    return session.finish()


class TestSessionBatchInitEquivalence:
    """The batched LHS init phase must reproduce one round per design
    point exactly: same knowledge base, same noise stream, same crash
    penalties, same early-stopping decisions."""

    def _session(self, n_iterations=12, early_stopping=None,
                 objective="throughput"):
        space = postgres_v96_space()
        simulator = PostgresSimulator(
            get_workload("ycsb-a"),
            noise_std=0.05,
            target_rate=10_000.0 if objective == "latency" else None,
        )
        adapter = LlamaTuneAdapter(space, projection="hesbo", seed=5)
        optimizer = SMACOptimizer(adapter.optimizer_space, seed=7, n_init=8)
        return TuningSession(
            simulator,
            optimizer,
            adapter,
            objective=objective,
            n_iterations=n_iterations,
            seed=21,
            early_stopping=early_stopping,
        )

    def _run_both(self, early_stopping=None, **kwargs):
        """``run()`` and the round-by-round drive of two equal sessions;
        both optimizer streams and both noise streams must end in the
        same place (an init round ends at the earliest row an early stop
        could follow, so no design row past a stop draws noise)."""
        batched_session = self._session(
            early_stopping=early_stopping() if early_stopping else None,
            **kwargs,
        )
        rounds_session = self._session(
            early_stopping=early_stopping() if early_stopping else None,
            **kwargs,
        )
        batched = batched_session.run()
        per_round = run_round_by_round(rounds_session)
        for a, b in (
            (batched_session.optimizer.rng, rounds_session.optimizer.rng),
            (batched_session.rng, rounds_session.rng),
        ):
            assert a.bit_generator.state == b.bit_generator.state
        return batched, per_round

    def _assert_identical_results(self, batched, scalar):
        assert len(batched.knowledge_base) == len(scalar.knowledge_base)
        assert batched.stopped_early_at == scalar.stopped_early_at
        for b, s in zip(batched.knowledge_base, scalar.knowledge_base):
            assert b.iteration == s.iteration
            assert b.optimizer_config == s.optimizer_config
            assert b.target_config == s.target_config
            assert b.value == s.value
            assert b.crashed == s.crashed
            assert b.throughput == s.throughput
            assert b.p95_latency_ms == s.p95_latency_ms

    def test_batched_init_matches_scalar_loop(self):
        self._assert_identical_results(*self._run_both())

    def test_latency_objective(self):
        self._assert_identical_results(*self._run_both(objective="latency"))

    def test_budget_smaller_than_init_design(self):
        batched, per_round = self._run_both(n_iterations=4)
        assert len(batched.knowledge_base) == 4
        self._assert_identical_results(batched, per_round)

    def test_early_stop_inside_init_batch(self):
        policy = EarlyStoppingPolicy(min_improvement=10.0, patience=1, warmup=2)
        batched, per_round = self._run_both(early_stopping=policy.fresh)
        assert batched.stopped_early_at is not None
        assert batched.stopped_early_at < 8  # stopped mid-design
        self._assert_identical_results(batched, per_round)

    def test_early_stop_inside_init_batch_evaluates_only_recorded_rows(self):
        """No design row past the stop is evaluated: on the live backend
        each one would be a restart plus a workload replay."""
        session = self._session(
            early_stopping=EarlyStoppingPolicy(
                min_improvement=10.0, patience=1, warmup=2
            )
        )
        evaluated = []
        evaluate_batch = session.simulator.evaluate_batch

        def counting(configs, *args, **kwargs):
            evaluated.append(len(configs))
            return evaluate_batch(configs, *args, **kwargs)

        session.simulator.evaluate_batch = counting
        result = session.run()
        assert result.stopped_early_at == 3
        assert sum(evaluated) == len(result.knowledge_base) == 3

    def test_capped_init_rounds_keep_the_trajectory(self):
        """A policy whose stop never fires still caps every init round at
        its earliest possible stop; the design then runs over several
        rounds and the trajectory is the one without a policy."""
        never = EarlyStoppingPolicy(min_improvement=0.0, patience=1, warmup=2)
        capped, per_round = self._run_both(early_stopping=never.fresh)
        assert capped.stopped_early_at is None
        self._assert_identical_results(capped, per_round)
        self._assert_identical_results(capped, self._session().run())


class TestParallelRunnerEquivalence:
    def test_parallel_results_match_sequential(self):
        from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec

        spec = SessionSpec(
            workload="ycsb-a",
            adapter=llamatune_factory(),
            n_iterations=6,
        )
        sequential = run_spec(spec, seeds=(1, 2, 3))
        parallel = run_spec(spec, seeds=(1, 2, 3), workers=2)
        for s, p in zip(sequential, parallel):
            np.testing.assert_array_equal(s.best_curve, p.best_curve)
            assert s.default_value == p.default_value
            assert s.crash_count == p.crash_count
