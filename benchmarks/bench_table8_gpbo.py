"""Benchmark: Table 8 — LlamaTune coupled with GP-BO."""

from benchmarks.conftest import run_and_print


def test_table8_gpbo(benchmark, quick_scale):
    report = run_and_print(benchmark, "table8", quick_scale)
    # report.data also records the refit preset and period beside the
    # per-workload rows; only the rows carry results.
    rows = {
        workload: row
        for workload, row in report.data.items()
        if isinstance(row, dict)
    }
    # Paper shape: gains generalize to the GP surrogate; YCSB-B and TPC-C
    # show the largest convergence speedups.
    assert sum(r["improvement"] for r in rows.values()) > 0
    assert rows["ycsb-b"]["speedup"] > 1.5
