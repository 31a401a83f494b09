"""Autovacuum / dead-tuple model.

Writes create dead tuples; lagging vacuum causes bloat (extra pages per
access), while an over-aggressive vacuum steals I/O from the workload.  The
trigger lag follows ``autovacuum_vacuum_scale_factor`` / ``_threshold``; the
vacuum pace follows the cost-based throttle, whose knobs have -1 special
values that defer to the plain ``vacuum_cost_*`` settings.  Autovacuum
silently stops working when ``track_counts`` is off — a cross-knob
interaction PostgreSQL documents and tuners routinely trip over.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext


def _vacuum_pace(ctx: BatchEvalContext) -> np.ndarray:
    """Relative cleaning pace; 1.0 matches the default throttle."""
    limit = ctx.autovacuum_cost_limit()
    delay_ms = ctx.autovacuum_cost_delay_ms()
    page_cost = (
        ctx.get("vacuum_cost_page_hit")
        + ctx.get("vacuum_cost_page_miss")
        + ctx.get("vacuum_cost_page_dirty")
    ) / 31.0  # defaults sum to 31
    pace = (limit / 200.0) / ((1.0 + delay_ms) * np.maximum(page_cost, 0.05))
    pace = pace * np.minimum(2.0, ctx.get("autovacuum_max_workers") / 3.0)
    return pace / 1.05  # default works out slightly above 1


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    writes = wl.write_txn_fraction

    works = ctx.is_on("autovacuum") & ctx.is_on("track_counts")

    # Autovacuum silently disabled: steady-state bloat, no vacuum runs.
    broken_score = 1.0 - 0.28 * writes

    # Trigger lag: fraction of a table that may be dead before vacuum runs.
    lag = ctx.get("autovacuum_vacuum_scale_factor")
    lag = lag + ctx.get("autovacuum_vacuum_threshold") / 2e6
    lag = lag + np.minimum(0.05, ctx.get("autovacuum_naptime") / 7200.0)
    bloat = writes * np.minimum(0.30, 0.80 * lag)

    pace = _vacuum_pace(ctx)
    # Too slow: cleaning cannot keep up, adding residual bloat.
    sluggish = 0.10 * writes * np.maximum(0.0, 1.0 - pace)
    # Too fast: vacuum I/O competes with the workload.
    interference = 0.05 * writes * np.maximum(0.0, np.minimum(3.0, pace) - 1.2)

    # Stale planner statistics if analyze lags far behind.
    analyze_lag = ctx.get("autovacuum_analyze_scale_factor")
    stale_stats = 0.05 * wl.join_complexity * np.minimum(1.0, analyze_lag / 0.5)

    ctx.notes["dead_tuple_ratio"] = np.where(
        works, np.minimum(0.30, 0.80 * lag), 0.30
    )
    ctx.notes["autovacuum_runs"] = np.where(works, pace, 0.0)
    ctx.notes["vacuum_pace"] = np.where(works, pace, 0.0)

    total = bloat + sluggish + interference + stale_stats
    working_score = np.maximum(0.3, 1.0 - total)
    return np.where(works, working_score, broken_score)
