"""Statistics-collection overhead model.

The ``track_*`` knobs trade a little per-operation bookkeeping for
observability.  Note the important interaction: turning ``track_counts``
off also silently disables autovacuum's trigger mechanism — that penalty
lives in :mod:`repro.dbms.components.vacuum`, which checks the same knob.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    gain = np.where(~ctx.is_on("track_activities"), 0.004, 0.0)
    # Bookkeeping saved; vacuum.py charges the real cost.
    gain = gain + np.where(~ctx.is_on("track_counts"), 0.006, 0.0)
    # Two clock reads per block I/O.
    gain = gain - np.where(ctx.is_on("track_io_timing", default="off"), 0.010, 0.0)
    gain = gain + np.where(~ctx.is_on("update_process_title"), 0.003, 0.0)
    return 1.0 + gain
