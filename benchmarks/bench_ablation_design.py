"""Ablation benches for the repo's own design choices.

The reproduction makes two substrate-level choices the paper takes for
granted on real hardware: the measurement-noise level and the
crash-penalty policy (¼ of worst vs. alternatives).  These benches show
how sensitive the headline comparison is to each choice.
"""

import numpy as np
import pytest

from repro.dbms.engine import PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.optimizers import SMACOptimizer
from repro.core.pipeline import IdentityAdapter
from repro.space.postgres import postgres_v96_space
from repro.tuning.session import TuningSession
from repro.workloads import get_workload

ITERATIONS = 30
SEEDS = (1, 2)


def _run(noise_std: float, seed: int) -> float:
    space = postgres_v96_space()
    simulator = PostgresSimulator(get_workload("ycsb-a"), noise_std=noise_std)
    optimizer = SMACOptimizer(space, seed=seed, n_init=10)
    session = TuningSession(
        simulator, optimizer, IdentityAdapter(space), n_iterations=ITERATIONS,
        seed=seed,
    )
    return session.run().best_value


def test_noise_sensitivity(benchmark):
    """More measurement noise should not flip the tuner into nonsense —
    best found configs degrade gracefully as noise grows."""

    def sweep():
        return {
            noise: float(np.mean([_run(noise, s) for s in SEEDS]))
            for noise in (0.0, 0.02, 0.10)
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for noise, best in results.items():
        print(f"  noise_std={noise:4.2f}: mean best {best:10,.0f}")
    # Reported best under heavy noise is inflated by the noise itself, so
    # only sanity-check the ordering of the low-noise settings.
    assert results[0.02] > 0.8 * results[0.0]


def test_crash_penalty_policy(benchmark):
    """Compare the paper's ¼-of-worst crash penalty against ignoring
    crashes entirely (re-suggesting): the penalty variant should not be
    worse, because the optimizer learns to avoid the crash region."""
    space = postgres_v96_space()

    def run_policy(penalize: bool, seed: int) -> float:
        simulator = PostgresSimulator(get_workload("ycsb-a"))
        optimizer = SMACOptimizer(space, seed=seed, n_init=10)
        adapter = IdentityAdapter(space)
        if penalize:
            session = TuningSession(
                simulator, optimizer, adapter, n_iterations=ITERATIONS, seed=seed
            )
            return session.run().best_value
        # "ignore crashes": skip the observation, costing the iteration.
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(ITERATIONS):
            config = optimizer.suggest()
            try:
                value = simulator.evaluate(config, rng=rng).throughput
            except DbmsCrashError:
                continue
            optimizer.observe(config, value)
            best = max(best, value)
        return best

    def compare():
        penalty = float(np.mean([run_policy(True, s) for s in SEEDS]))
        ignore = float(np.mean([run_policy(False, s) for s in SEEDS]))
        return penalty, ignore

    penalty, ignore = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(f"  quarter-of-worst penalty: {penalty:10,.0f}")
    print(f"  ignore-crash policy:      {ignore:10,.0f}")
    assert penalty > 0.85 * ignore
