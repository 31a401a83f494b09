"""WAL / commit-path model.

Covers the durable-commit cost (``synchronous_commit``, ``fsync``,
``wal_sync_method``), group commit (``commit_delay`` + ``commit_siblings``),
WAL volume modifiers (``full_page_writes``, ``wal_compression``,
``wal_level``), WAL buffering (``wal_buffers``, including the -1 auto-size
special value), and the WAL-writer knobs that matter for asynchronous
commits (``wal_writer_delay``, ``wal_writer_flush_after`` with its
flush-immediately special value 0).
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext

MIB = 1024**2

#: Relative cost of a durable WAL flush per wal_sync_method.
_SYNC_METHOD_COST = {
    "fdatasync": 1.00,
    "fsync": 1.15,
    "open_datasync": 0.92,
    "open_sync": 1.30,
}

#: WAL volume multiplier per wal_level.
_WAL_LEVEL_VOLUME = {"minimal": 1.00, "replica": 1.06, "logical": 1.14}


def _wal_volume_multiplier(ctx: BatchEvalContext) -> np.ndarray:
    volume = ctx.map_values("wal_level", _WAL_LEVEL_VOLUME)
    # No full-page images after checkpoints.
    volume = np.where(ctx.is_on("full_page_writes"), volume, volume * 0.62)
    compressed = ctx.is_on("wal_compression", default="off")
    return np.where(compressed, volume * 0.78, volume)


def _commit_sync_ms(ctx: BatchEvalContext) -> np.ndarray:
    """Time a committing backend spends making its WAL durable, resolved as
    a branch-free selection over the scalar model's decision tree."""
    hw = ctx.hardware
    wl = ctx.workload

    # Asynchronous commits: the WAL writer absorbs the flush; larger
    # flush-after and saner delays amortize flushes better.  wal_writer_
    # flush_after = 0 is the flush-on-every-pass special value.
    wwfa = ctx.get("wal_writer_flush_after")
    delay_ms = ctx.get("wal_writer_delay")
    amortize = np.minimum(1.0, (wwfa * 8192) / (2 * MIB)) * np.minimum(
        1.0, delay_ms / 100.0
    )
    async_ms = np.where(wwfa == 0, 0.190, 0.175 - 0.065 * amortize)

    t_sync = hw.fsync_ms * ctx.map_values("wal_sync_method", _SYNC_METHOD_COST)

    # Group commit: the delay batches concurrent committers into one flush,
    # at the price of added latency for each of them.
    delay_us = ctx.get("commit_delay")
    siblings = ctx.get("commit_siblings")
    batch = 1.0 + np.minimum(7.0, (delay_us / 150.0) ** 0.8)
    added_latency_ms = (delay_us / 1000.0) * 0.25
    grouped = (delay_us > 0) & (wl.clients > siblings)
    sync_ms = np.where(grouped, t_sync / batch + added_latency_ms, t_sync)

    async_commit = ctx.get("synchronous_commit") == "off"
    out = np.where(async_commit, async_ms, sync_ms)
    # fsync off: writes are not forced; still pay buffered-write CPU.
    return np.where(ctx.is_on("fsync"), out, 0.13)


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    hw = ctx.hardware
    wl = ctx.workload

    volume = _wal_volume_multiplier(ctx)
    t_commit = _commit_sync_ms(ctx)

    # Streaming the WAL bytes themselves (~30 kB per writing transaction).
    wal_bytes_per_txn = 30_000 * volume
    t_stream = wal_bytes_per_txn / (hw.seq_write_mb_s * MIB) * 1000.0

    # Undersized WAL buffers stall writers waiting for buffer space.
    wal_buf = ctx.wal_buffers_bytes()
    t_stall = 0.15 * np.maximum(0.0, 1.0 - wal_buf / (1 * MIB))

    t_cpu = np.where(ctx.is_on("wal_compression", default="off"), 0.02, 0.0)

    t_wal = t_commit + t_stream + t_stall + t_cpu

    ctx.notes["wal_bytes_per_txn"] = wal_bytes_per_txn
    ctx.notes["commit_sync_ms"] = t_commit
    ctx.notes["wal_volume_multiplier"] = volume

    # Floor represents the non-WAL work of a writing transaction.
    floor_ms = 0.55
    return floor_ms / (floor_ms + t_wal * wl.write_txn_fraction * 2.0)
