"""Query-planner model.

Plan quality matters in proportion to the workload's join complexity.
Disabling essential plan operators (``enable_*`` toggles) degrades plans —
a large *negative* main effect with no positive headroom, which is exactly
the kind of knob SHAP tends to rank as "important" even though tuning it
cannot help (paper, Section 2.3).  Positive headroom comes from
SSD-appropriate cost constants (``random_page_cost``), better statistics,
and a plausible ``effective_cache_size``.  GEQO only engages when the
FROM-list exceeds ``geqo_threshold``, which none of the OLTP workloads'
queries do at the default threshold.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dbms.context import BatchEvalContext

GIB = 1024**3


def _toggle_penalty(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    complexity = wl.join_complexity

    index = ctx.is_on("enable_indexscan")
    index_only = ctx.is_on("enable_indexonlyscan")
    # Point lookups degrade to scans: hurts every OLTP workload badly,
    # softened only slightly by index-only scans remaining available.
    penalty = np.where(
        ~index,
        np.where(index_only, 0.60, 0.75),
        np.where(~index_only, 0.04 + 0.06 * complexity, 0.0),
    )

    hash_join = ctx.is_on("enable_hashjoin")
    merge_join = ctx.is_on("enable_mergejoin")
    penalty = penalty + np.where(
        ~hash_join & ~merge_join,
        0.35 * complexity,
        np.where(~hash_join, 0.08 * complexity, 0.0),
    )
    penalty = penalty + np.where(~ctx.is_on("enable_nestloop"), 0.20 * complexity, 0.0)
    penalty = penalty + np.where(
        ~ctx.is_on("enable_sort"), 0.12 * (complexity + wl.temp_heavy), 0.0
    )
    penalty = penalty + np.where(~ctx.is_on("enable_hashagg"), 0.06 * complexity, 0.0)
    penalty = penalty + np.where(~ctx.is_on("enable_seqscan"), 0.03 * complexity, 0.0)
    penalty = penalty + np.where(
        ~ctx.is_on("enable_bitmapscan"), 0.03 * complexity, 0.0
    )
    penalty = penalty + np.where(~ctx.is_on("enable_material"), 0.02 * complexity, 0.0)
    return penalty


def _cost_model_gain(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    complexity = wl.join_complexity

    # SSD-appropriate random_page_cost (optimum near 1.2, default 4.0).
    rpc = np.maximum(0.05, ctx.get("random_page_cost"))
    miss_match = 1.0 - np.minimum(1.0, np.abs(np.log(rpc / 1.2)) / math.log(80.0))
    gain = 0.08 * complexity * miss_match

    spc = np.maximum(0.05, ctx.get("seq_page_cost"))
    ratio_ok = np.where(rpc >= spc, 1.0, 0.0)  # inverted costs confuse the planner
    gain = gain - 0.05 * complexity * (1.0 - ratio_ok)

    # Better statistics help plans up to a plateau, with a tiny ANALYZE cost.
    dst = ctx.get("default_statistics_target")
    gain = gain + 0.04 * complexity * np.minimum(1.0, dst / 500.0)
    gain = gain - 0.01 * (dst / 10000.0)

    # effective_cache_size close to actual cached memory improves choices.
    ecs_bytes = ctx.get("effective_cache_size") * 8192
    actual_cache = ctx.shared_buffers_bytes() + 0.5 * ctx.hardware.ram_bytes
    closeness = 1.0 - np.minimum(
        1.0, np.abs(np.log(np.maximum(ecs_bytes, 1) / actual_cache)) / 4.0
    )
    gain = gain + 0.03 * complexity * closeness

    # Flattening limits below the workload's join count block good orders.
    needed = max(2, int(round(wl.tables * 0.7)))
    gain = gain - np.where(
        ctx.get("join_collapse_limit") < needed, 0.04 * complexity, 0.0
    )
    gain = gain - np.where(
        ctx.get("from_collapse_limit") < needed, 0.02 * complexity, 0.0
    )
    return gain


def _geqo_effect(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    # Genetic search replaces exhaustive search: cheaper planning but
    # noisier plans; pool/generation special values (0) pick sane defaults.
    pool = ctx.get("geqo_pool_size")
    pool_ok = (pool == 0) | (pool >= 50)
    quality = -0.05 * wl.join_complexity * np.where(pool_ok, 0.4, 1.0)
    quality = quality + 0.004 * (ctx.get("geqo_effort") - 5)
    # GEQO never engages when the threshold exceeds the workload's FROM list.
    engaged = ctx.is_on("geqo") & (ctx.get("geqo_threshold") <= wl.tables)
    return np.where(engaged, quality, 0.0)


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    penalty = _toggle_penalty(ctx)
    gain = _cost_model_gain(ctx) + _geqo_effect(ctx)
    ctx.notes["plan_quality_penalty"] = penalty
    return np.maximum(0.1, (1.0 - np.minimum(0.9, penalty)) * (1.0 + gain))
