#!/usr/bin/env python3
"""Tail-latency tuning: minimize p95 latency at a fixed request rate.

Reproduces the paper's Table 6 scenario on TPC-C: the system receives a
fixed arrival rate (2,000 req/s — about half the best tuned throughput) and
the tuner minimizes 95th-percentile latency instead of maximizing
throughput.  Demonstrates the `objective="latency"` / `target_rate` knobs
of the public API.

Both arms and all their seeds run as one grid, in lockstep waves
sharded over two worker processes (``run_grid(tasks, workers=2)``; the
experiments CLI equivalent is ``--workers 2``).  Results are identical
to sequential execution — sessions share no mutable state.

Usage::

    python examples/latency_tuning.py
"""

import numpy as np

from repro.tuning import SessionSpec, llamatune_factory, run_grid
from repro.tuning.metrics import final_improvement

WORKLOAD = "tpcc"
RATE = 2_000.0  # requests per second
ITERATIONS = 60
SEEDS = (1, 2, 3)  # the paper averages several seeds; so do we


def main() -> None:
    print(
        f"Minimizing p95 latency on {WORKLOAD} at a fixed rate of "
        f"{RATE:,.0f} req/s ({len(SEEDS)} seeds)"
    )
    common = dict(
        workload=WORKLOAD,
        objective="latency",
        target_rate=RATE,
        n_iterations=ITERATIONS,
    )
    baseline_spec = SessionSpec(adapter=None, **common)
    treatment_spec = SessionSpec(adapter=llamatune_factory(), **common)
    tasks = [
        (spec, seed)
        for spec in (baseline_spec, treatment_spec)
        for seed in SEEDS
    ]
    results = run_grid(tasks, workers=2)
    baselines, treatments = results[:len(SEEDS)], results[len(SEEDS):]
    base_curve = np.mean([r.best_curve for r in baselines], axis=0)
    treat_curve = np.mean([r.best_curve for r in treatments], axis=0)

    print()
    print(f"{'iter':>4}  {'SMAC p95 (ms)':>14}  {'LlamaTune p95 (ms)':>19}")
    for i in range(0, ITERATIONS, 10):
        print(
            f"{i + 1:>4}  {base_curve[i]:>14,.1f}  "
            f"{treat_curve[i]:>19,.1f}"
        )

    reduction = final_improvement(treat_curve, base_curve, maximize=False)
    print()
    print(f"default p95:        {baselines[0].default_value:>10,.1f} ms (saturated)")
    print(f"SMAC final p95:     {base_curve[-1]:>10,.1f} ms (mean)")
    print(f"LlamaTune final p95:{treat_curve[-1]:>10,.1f} ms (mean)")
    print(f"LlamaTune changes final tail latency by {-reduction:+.1%}")


if __name__ == "__main__":
    main()
