"""Buffer-manager model: two-tier caching of data pages.

Reads are served from (1) the DBMS shared buffer pool, (2) the OS page
cache, or (3) the SSD.  Hit fractions follow a concave cache curve whose
shape depends on the workload's Zipfian skew.  Oversizing
``shared_buffers`` starves the OS page cache (double-buffering), so the
response is non-monotone with an interior optimum — one of the structural
properties LlamaTune's projections must cope with.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext

GIB = 1024**3


def cache_hit_fraction(cache_bytes, working_set_bytes, skew):
    """Fraction of page accesses served by a cache of the given size.

    Uses a concave power-law approximation of the Zipfian hit curve:
    ``hit = (cache / working_set) ** alpha`` with ``alpha = 1 / (1 + 2*skew)``
    so that skewed workloads reach high hit rates with small caches.
    Accepts scalars or arrays (the batch path passes ``(N,)`` columns).
    """
    if working_set_bytes <= 0:
        return np.ones_like(np.asarray(cache_bytes, dtype=float)) if np.ndim(
            cache_bytes
        ) else 1.0
    coverage = np.minimum(1.0, np.maximum(0.0, cache_bytes / working_set_bytes))
    alpha = 1.0 / (1.0 + 2.0 * max(0.0, skew))
    return coverage**alpha


#: Fraction of page accesses that hit the hot working set; the rest scan the
#: cold tail of the full 20 GB database (low skew), which exceeds RAM and is
#: what keeps the SSD in the picture.
HOT_ACCESS_FRACTION = 0.85


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    hw = ctx.hardware
    wl = ctx.workload
    working_set = wl.working_set_gb * GIB
    database = wl.database_gb * GIB

    sb = ctx.shared_buffers_bytes()
    os_cache = np.maximum(0.0, hw.ram_bytes - sb - hw.fixed_overhead_bytes) * 0.85

    def tier_hits(span, skew):
        in_sb = cache_hit_fraction(sb, span, skew)
        in_total = cache_hit_fraction(sb + os_cache, span, skew)
        return in_sb, np.maximum(0.0, in_total - in_sb)

    hot_sb, hot_os = tier_hits(working_set, wl.zipf_skew)
    cold_sb, cold_os = tier_hits(database, wl.zipf_skew * 0.3)

    h = HOT_ACCESS_FRACTION
    hit_sb = h * hot_sb + (1.0 - h) * cold_sb
    hit_os = h * hot_os + (1.0 - h) * cold_os
    miss = np.maximum(0.0, 1.0 - hit_sb - hit_os)

    hp = ctx.get("huge_pages", "try")
    hp_wanted = (hp == "on") | (hp == "try")
    t_sb = np.where(
        hp_wanted & (sb >= 2 * GIB),
        hw.shared_buffer_read_ms * 0.88,  # fewer TLB misses, large pool
        hw.shared_buffer_read_ms,
    )

    read_ms = hit_sb * t_sb + hit_os * hw.os_cache_read_ms + miss * hw.ssd_read_ms

    ctx.notes["buffer_hit_ratio"] = hit_sb
    ctx.notes["os_cache_hit_ratio"] = hit_os
    ctx.notes["page_read_ms"] = read_ms
    ctx.notes["blks_read_fraction"] = miss

    # Per-access time includes a CPU floor so the score's dynamic range stays
    # physical (a fully cached page still costs executor CPU).
    cpu_floor_ms = 0.008
    return cpu_floor_ms / (cpu_floor_ms + read_ms)
