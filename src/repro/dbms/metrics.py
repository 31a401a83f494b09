"""Internal DBMS metrics.

The paper's DDPG integration (Section 6.4) feeds 27 system-wide PostgreSQL
metrics, averaged over each iteration, to the actor network as the DBMS
state.  We derive the same kind of metrics from the simulator's component
models so the RL path exercises realistic, configuration-dependent state.

:func:`derive_metrics_batch` derives them for ``N`` evaluations at once
from ``(N,)`` note columns, as one ``(27, N)`` matrix; the engine calls it
once per matrix pass.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

#: Names of the 27 internal metrics, in their canonical vector order.
METRIC_NAMES: tuple[str, ...] = (
    "xact_commit_rate",
    "xact_rollback_rate",
    "blks_read_rate",
    "blks_hit_rate",
    "buffer_hit_ratio",
    "os_cache_hit_ratio",
    "tup_returned_rate",
    "tup_inserted_rate",
    "tup_updated_rate",
    "tup_deleted_rate",
    "wal_bytes_rate",
    "checkpoints_per_run",
    "checkpoint_write_time",
    "buffers_checkpoint",
    "buffers_clean",
    "buffers_backend",
    "maxwritten_clean",
    "dead_tuple_ratio",
    "autovacuum_runs",
    "temp_files_rate",
    "temp_bytes_rate",
    "deadlocks_per_min",
    "lock_wait_fraction",
    "active_connections",
    "cpu_utilization",
    "io_utilization",
    "memory_pressure",
)

assert len(METRIC_NAMES) == 27


def derive_metrics_batch(
    notes: Mapping[str, np.ndarray],
    throughput: np.ndarray,
    clients: int,
    read_fraction: float,
) -> np.ndarray:
    """Build the 27 metrics for ``N`` evaluations at once: a ``(27, N)``
    float matrix whose rows follow :data:`METRIC_NAMES`.

    ``notes`` values are ``(N,)`` arrays or scalars (scalars broadcast);
    missing notes fall back to neutral defaults.
    """

    def note(key: str, default: float):
        return notes.get(key, default)

    hit_ratio = note("buffer_hit_ratio", 0.5)
    os_hit = note("os_cache_hit_ratio", 0.3)
    miss = note("blks_read_fraction", 0.1)
    reads_per_txn = 6.0
    writes = 1.0 - read_fraction
    wal_bytes = note("wal_bytes_per_txn", 30000.0)
    burst = note("checkpoint_burst", 0.3)
    spill = note("temp_spill_ratio", 0.0)
    # Shared left factors: each product below still multiplies left to
    # right exactly as written out in full.
    reads = throughput * reads_per_txn
    written = throughput * writes
    spilled = throughput * spill

    metrics = {
        "xact_commit_rate": throughput,
        "xact_rollback_rate": throughput * 0.01
        + throughput * note("deadlocks_per_min", 0.0) * 0.001,
        "blks_read_rate": reads * miss,
        "blks_hit_rate": reads * hit_ratio,
        "buffer_hit_ratio": hit_ratio,
        "os_cache_hit_ratio": os_hit,
        "tup_returned_rate": reads * 3.0,
        "tup_inserted_rate": written * 1.5,
        "tup_updated_rate": written * 2.5,
        "tup_deleted_rate": written * 0.3,
        "wal_bytes_rate": written * wal_bytes,
        "checkpoints_per_run": note("checkpoints_per_run", 1.0),
        "checkpoint_write_time": burst * 100.0,
        "buffers_checkpoint": written * burst * 2.0,
        "buffers_clean": note("bgwriter_flushes", 1.0) * 100.0,
        "buffers_backend": written * 0.5,
        "maxwritten_clean": burst * 10.0,
        "dead_tuple_ratio": note("dead_tuple_ratio", 0.05),
        "autovacuum_runs": note("autovacuum_runs", 1.0),
        "temp_files_rate": spilled * 0.1,
        "temp_bytes_rate": spilled * 1e5,
        "deadlocks_per_min": note("deadlocks_per_min", 0.0),
        "lock_wait_fraction": note("lock_wait_fraction", 0.0),
        "active_connections": float(clients),
        "cpu_utilization": np.minimum(1.0, 0.3 + 0.5 * hit_ratio),
        "io_utilization": np.minimum(1.0, miss * 2.0 + writes * 0.4),
        "memory_pressure": note("memory_pressure", 0.3),
    }
    out = np.empty((len(METRIC_NAMES), throughput.shape[0]))
    for row, name in zip(out, METRIC_NAMES):
        row[...] = metrics[name]
    return out


def metrics_vector(metrics: Mapping[str, float]) -> np.ndarray:
    """Metrics in canonical order, log-compressed for use as an RL state."""
    raw = np.array([metrics[name] for name in METRIC_NAMES], dtype=float)
    return np.sign(raw) * np.log1p(np.abs(raw))
