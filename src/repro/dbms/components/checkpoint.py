"""Checkpoint and background-writer model.

Frequent checkpoints re-arm full-page writes (WAL amplification) and cause
I/O bursts; ``max_wal_size`` / ``checkpoint_timeout`` set the checkpoint
interval, ``checkpoint_completion_target`` spreads the burst, and the
background writer (``bgwriter_*``) keeps clean buffers ahead of backends.
``bgwriter_lru_maxpages = 0`` (special value) disables background writing
entirely, pushing evictions onto backends.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext


def checkpoint_interval_s(ctx: BatchEvalContext) -> np.ndarray:
    """Expected seconds between checkpoints under this workload."""
    wl = ctx.workload
    volume = ctx.notes.get("wal_volume_multiplier", 1.0)
    # Rough default-config WAL production rate for this workload (MB/s).
    wal_rate = np.maximum(
        0.2, wl.base_throughput * wl.write_txn_fraction * 0.03 * volume / 1.5
    )
    wal_trigger = ctx.get("max_wal_size") / wal_rate
    return np.minimum(ctx.get("checkpoint_timeout"), wal_trigger)


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    interval = checkpoint_interval_s(ctx)

    # WAL amplification + burst cost, decaying with longer intervals.
    fpw_factor = np.where(ctx.is_on("full_page_writes"), 0.38, 0.10)
    burst = fpw_factor * (300.0 / np.maximum(interval, 5.0)) ** 0.65

    target = ctx.get("checkpoint_completion_target")
    spread = 1.15 - 0.35 * target  # higher target -> smoother writes

    flush_smooth = np.where(ctx.get("checkpoint_flush_after") > 0, 0.95, 1.0)

    penalty = burst * spread * flush_smooth * wl.write_txn_fraction

    # Background writer: disabled (special value 0) shifts evictions onto
    # backends; an active bgwriter with a sane pace removes part of them.
    lru_max = ctx.get("bgwriter_lru_maxpages")
    pace = np.minimum(1.0, lru_max / 400.0) * np.minimum(
        1.0, 200.0 / ctx.get("bgwriter_delay")
    )
    pace = pace * np.minimum(1.5, 0.5 + ctx.get("bgwriter_lru_multiplier") / 4.0)
    active = 1.0 + 0.035 * wl.write_txn_fraction * np.minimum(1.0, pace)
    active = np.where(
        ctx.get("bgwriter_flush_after") == 0,
        active - 0.01 * wl.write_txn_fraction,
        active,
    )
    bg = np.where(lru_max == 0, 1.0 - 0.05 * wl.write_txn_fraction, active)

    ctx.notes["checkpoint_interval_s"] = interval
    ctx.notes["checkpoint_burst"] = burst * spread
    ctx.notes["checkpoints_per_run"] = 300.0 / np.maximum(interval, 5.0)

    return bg / (1.0 + penalty)
