"""Parallel-query and JIT model.

For OLTP, parallel workers mostly add setup overhead (v9.6 default disables
them: ``max_parallel_workers_per_gather = 0`` is the special value).  On
v13.6 the JIT compiler exists: with the default ``jit_above_cost`` it still
fires on the heavier OLTP queries, and the per-query compilation overhead
outweighs its benefit — disabling JIT via the special value
``jit_above_cost = -1`` (or ``jit = off``) is the hidden win the paper's
v13.6 experiments surface (Table 7: SEATS gains the most).
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext


def _jit_effect(ctx: BatchEvalContext) -> np.ndarray:
    zero = np.zeros(ctx.n)
    if not ctx.version.has_jit:
        return zero
    wl = ctx.workload
    above = ctx.get("jit_above_cost", 100000.0)
    # How often queries of this workload cross the JIT cost threshold.
    trigger = np.maximum(0.0, 1.0 - above / 400_000.0) * (0.3 + wl.join_complexity)
    overhead = 0.22 * trigger
    for threshold in (
        ctx.get("jit_inline_above_cost", 500000.0),
        ctx.get("jit_optimize_above_cost", 500000.0),
    ):
        overhead = overhead + np.where(
            (threshold != -1.0) & (threshold < 200_000.0), 0.05 * trigger, 0.0
        )
    # jit = off, or the jit_above_cost = -1 special value: JIT disabled.
    enabled = ctx.is_on("jit", default="on") & (above != -1.0)
    return np.where(enabled, -overhead, zero)


def _worker_effect(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    per_gather = ctx.get("max_parallel_workers_per_gather")
    if ctx.version.has_jit:
        # v13 parallelism can help the heavier analytical-ish queries a bit,
        # then oversubscription costs kick in.
        helpful = np.minimum(per_gather, 4) * 0.015 * wl.join_complexity
        oversub = 0.004 * np.maximum(0, per_gather - 4)
        effect = helpful - oversub
    else:
        effect = -0.010 * np.minimum(per_gather, 8) ** 0.5  # v9.6: overhead only
    forced = ctx.get("force_parallel_mode", "off") != "off"
    effect = np.where(forced, effect - 0.08, effect)
    effect = np.where(
        ctx.get("max_worker_processes") > ctx.hardware.cores * 4,
        effect - 0.01,
        effect,
    )
    # Special value: parallel query execution disabled (before the
    # force/worker modifiers, matching the scalar model's early return).
    return np.where(per_gather == 0, 0.0, effect)


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    jit = _jit_effect(ctx)
    effect = jit + _worker_effect(ctx)
    ctx.notes["jit_overhead"] = -jit
    return np.maximum(0.3, 1.0 + effect)
