"""Forced-writeback model (``backend_flush_after`` and friends).

``backend_flush_after = 0`` (the special value) disables forced writeback
and lets the OS manage dirty pages — a large win for read-heavy workloads
because forced flushes evict useful page-cache content (paper, Figure 4).
Small non-zero values are the worst case (frequent tiny flushes); large
values recover part of the loss.  For write-heavy workloads a moderate
value mildly smooths I/O.

The magnitude of the whole effect is scaled by the version profile: v13.6's
improved writeback handling narrows the gap (paper, Table 7 discussion).
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    impact = ctx.version.writeback_impact

    bfa = ctx.get("backend_flush_after")
    disabled = bfa == 0
    # 1 page -> ~0.55, 256 pages -> ~0.85 of the writeback-free speed.
    read_side = np.where(disabled, 1.0, 0.55 + 0.30 * (bfa / 256.0) ** 0.7)
    # Only the modeled fraction of the penalty applies on newer versions.
    read_side = 1.0 - impact * (1.0 - read_side)

    # Mild I/O smoothing benefit of moderate writeback for writers.
    smooth = np.where(
        disabled,
        1.0,
        1.0 + 0.04 * wl.write_txn_fraction * (1.0 - np.abs(bfa - 64) / 256.0),
    )

    ctx.notes["bgwriter_flushes"] = np.where(
        disabled, 0.0, 256.0 / np.where(disabled, 1, bfa)
    )
    return read_side * smooth
