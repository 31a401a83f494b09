"""Tests for the tuning session loop, crash handling, and knowledge base."""

import numpy as np
import pytest

from repro.core.pipeline import IdentityAdapter, SubspaceAdapter
from repro.dbms.engine import PostgresSimulator
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.space.postgres import postgres_v96_space
from repro.tuning.knowledge_base import KnowledgeBase, Observation
from repro.tuning.session import TuningSession
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def space():
    return postgres_v96_space()


def make_session(space, objective="throughput", n_iterations=15, seed=0, **kwargs):
    simulator = PostgresSimulator(
        get_workload("ycsb-a"),
        target_rate=10_000.0 if objective == "latency" else None,
    )
    adapter = IdentityAdapter(space)
    optimizer = RandomSearchOptimizer(space, seed=seed, n_init=5)
    return TuningSession(
        simulator,
        optimizer,
        adapter,
        objective=objective,
        n_iterations=n_iterations,
        seed=seed,
        **kwargs,
    )


class TestTuningSession:
    def test_runs_budget(self, space):
        result = make_session(space).run()
        assert len(result.knowledge_base) == 15
        assert len(result.best_curve) == 15

    def test_best_curve_monotone_nondecreasing(self, space):
        result = make_session(space).run()
        assert np.all(np.diff(result.best_curve) >= 0)

    def test_latency_best_curve_monotone_nonincreasing(self, space):
        result = make_session(space, objective="latency").run()
        assert np.all(np.diff(result.best_curve) <= 0)
        assert not result.maximize

    def test_crash_penalty_is_quarter_of_worst(self, space):
        """Crashed iterations get ¼ of the worst throughput seen so far."""
        result = make_session(space, n_iterations=40, seed=3).run()
        observations = list(result.knowledge_base)
        crashed = [o for o in observations if o.crashed]
        if not crashed:  # extremely unlikely over 40 random 90-dim configs
            pytest.skip("no crash sampled")
        for crash in crashed:
            prior = [
                o.value
                for o in observations[: crash.iteration]
                if not o.crashed
            ]
            worst = min(prior) if prior else result.default_value
            worst = min(worst, result.default_value)
            assert crash.value == pytest.approx(worst / 4.0)

    def test_mismatched_optimizer_space_rejected(self, space):
        simulator = PostgresSimulator(get_workload("ycsb-a"))
        sub = SubspaceAdapter(space, ["shared_buffers"])
        wrong_optimizer = RandomSearchOptimizer(space, seed=0)
        with pytest.raises(ValueError):
            TuningSession(simulator, wrong_optimizer, sub)

    def test_invalid_objective_rejected(self, space):
        simulator = PostgresSimulator(get_workload("ycsb-a"))
        optimizer = RandomSearchOptimizer(space, seed=0)
        with pytest.raises(ValueError):
            TuningSession(simulator, optimizer, objective="energy")

    def test_suggest_seconds_recorded(self, space):
        result = make_session(space).run()
        assert result.suggest_seconds_total >= 0.0
        assert all(o.suggest_seconds >= 0.0 for o in result.knowledge_base)

    def test_reproducible_given_seed(self, space):
        a = make_session(space, seed=11).run()
        b = make_session(space, seed=11).run()
        np.testing.assert_array_equal(a.values, b.values)


class TestKnowledgeBase:
    def _obs(self, i, value, crashed=False):
        space = postgres_v96_space()
        config = space.default_configuration()
        return Observation(
            iteration=i,
            optimizer_config=config,
            target_config=config,
            value=value,
            crashed=crashed,
            suggest_seconds=0.0,
        )

    def test_best_so_far_maximize(self):
        kb = KnowledgeBase(maximize=True)
        for i, v in enumerate([3.0, 1.0, 5.0, 2.0]):
            kb.record(self._obs(i, v))
        np.testing.assert_array_equal(kb.best_so_far(), [3, 3, 5, 5])
        assert kb.best_value() == 5.0

    def test_best_so_far_minimize(self):
        kb = KnowledgeBase(maximize=False)
        for i, v in enumerate([3.0, 1.0, 5.0]):
            kb.record(self._obs(i, v))
        np.testing.assert_array_equal(kb.best_so_far(), [3, 1, 1])
        assert kb.best_value() == 1.0

    def test_empty_kb_raises(self):
        with pytest.raises(RuntimeError, match="knowledge base is empty"):
            KnowledgeBase().best_value()

    def test_empty_kb_best_observation_raises(self):
        """Same guard as best_value (used to surface as a numpy argmax
        error through the CLI's --conf-out path)."""
        with pytest.raises(RuntimeError, match="knowledge base is empty"):
            KnowledgeBase().best_observation()

    def test_best_observation(self):
        kb = KnowledgeBase(maximize=True)
        kb.record(self._obs(0, 1.0))
        kb.record(self._obs(1, 9.0))
        assert kb.best_observation().iteration == 1
