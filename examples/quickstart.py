#!/usr/bin/env python3
"""Quickstart: tune PostgreSQL for YCSB-A with LlamaTune vs. vanilla SMAC.

Runs two 60-iteration tuning sessions against the simulated DBMS — one with
SMAC over all 90 knobs, one with SMAC behind LlamaTune's search-space
adapter (HeSBO-16 projection, 20% special-value bias, K=10,000
bucketization) — and compares convergence.

Usage::

    python examples/quickstart.py [workload] [seed]

For the paper's full five-seed protocol, use the CLI's multi-seed runner
instead: ``python -m repro --workload ycsb-a --seeds 1,2,3,4,5
--workers 2`` (see also ``examples/latency_tuning.py``).
"""

import sys

from repro import baseline_session, llamatune_session
from repro.analysis.textplot import ascii_plot
from repro.tuning.metrics import time_to_optimal_iteration


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "ycsb-a"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    iterations = 60

    print(f"Tuning {workload} for throughput ({iterations} iterations, seed {seed})")
    print()

    baseline = baseline_session(workload, seed=seed, n_iterations=iterations)
    treatment = llamatune_session(workload, seed=seed, n_iterations=iterations)

    print(
        ascii_plot(
            {
                "SMAC": baseline.best_curve,
                "LlamaTune (SMAC)": treatment.best_curve,
            },
            title=f"best throughput so far ({workload})",
        )
    )

    print()
    print(f"default configuration: {baseline.default_value:>12,.0f} reqs/sec")
    print(f"vanilla SMAC best:     {baseline.best_value:>12,.0f} reqs/sec "
          f"({baseline.crash_count} crashed configs)")
    print(f"LlamaTune best:        {treatment.best_value:>12,.0f} reqs/sec "
          f"({treatment.crash_count} crashed configs)")

    tto = time_to_optimal_iteration(treatment.best_curve, baseline.best_value)
    if tto is not None:
        print(
            f"LlamaTune matched the vanilla optimum at iteration {tto} "
            f"({iterations / tto:.1f}x speedup)"
        )
    else:
        print("LlamaTune did not reach the vanilla optimum in this run")

    best = treatment.knowledge_base.best_observation().target_config
    print()
    print("Best configuration found (non-default knobs):")
    defaults = {k.name: k.default for k in best.space}
    shown = 0
    for name, value in best.to_dict().items():
        if value != defaults[name] and shown < 10:
            print(f"  {name} = {value}")
            shown += 1
    print("  ...")


if __name__ == "__main__":
    main()
