"""Shared helpers for the experiment benchmarks.

Each ``bench_*`` file regenerates one of the paper's tables or figures at
``Scale.quick()`` (2 seeds × 40 iterations — enough for the qualitative
shape), times it with pytest-benchmark, prints the report rows, and asserts
the shape the paper reports.  Run everything with::

    pytest benchmarks/bench_*.py --benchmark-only -s

(naming the files: ``bench_*.py`` is outside pytest's default
``test_*.py`` pattern, so ``pytest benchmarks/`` collects nothing).
"""

from __future__ import annotations

import pytest

from repro.experiments import Scale, run_experiment
from repro.experiments.common import ExperimentReport


@pytest.fixture(scope="session")
def quick_scale() -> Scale:
    return Scale.quick()


def run_and_print(benchmark, experiment_id: str, scale: Scale) -> ExperimentReport:
    """Run one experiment under the benchmark timer and print its rows."""
    report = benchmark.pedantic(
        run_experiment, args=(experiment_id, scale), rounds=1, iterations=1
    )
    print()
    print(report.text())
    return report
