"""Working-memory and memory-pressure model.

Small ``work_mem`` spills sorts/hashes to temp files; the total memory
footprint creates swap pressure as it approaches RAM and **crashes the
DBMS** beyond hard limits — the simulator's source of the failed
configurations the paper's protocol penalizes with ¼ of the worst observed
throughput (Section 6.1).

Two crash modes mirror real PostgreSQL behaviour:

* *startup failure*: the fixed shared allocation (shared buffers, WAL
  buffers, connection slots) exceeds RAM — the server cannot start;
* *OOM kill*: the peak runtime footprint (work memory, temp buffers,
  autovacuum workers on top of the shared allocation) overcommits far
  beyond RAM.

The batch model never raises: crashing rows are flagged on the context
(startup failures take precedence over OOM kills, matching the scalar
check order) and the engine applies the caller's crash policy.
"""

from __future__ import annotations

import numpy as np

from repro.dbms.context import BatchEvalContext

KIB = 1024
MIB = 1024**2


def startup_allocation_bytes(ctx: BatchEvalContext) -> np.ndarray:
    """Shared memory the server must allocate before accepting queries."""
    connections = ctx.get("max_connections") * 2.5 * MIB
    return (
        ctx.shared_buffers_bytes()
        + ctx.wal_buffers_bytes()
        + connections
        + ctx.hardware.fixed_overhead_bytes
    )


def runtime_footprint_bytes(ctx: BatchEvalContext) -> np.ndarray:
    """Estimated peak resident memory of the DBMS under load."""
    wl = ctx.workload
    work_mem = ctx.get("work_mem") * KIB
    hash_mult = ctx.get("hash_mem_multiplier", 1.0)
    # Memory-hungry operations in flight at once scale with temp-heaviness.
    concurrent_ops = 1.0 + wl.clients * wl.temp_heavy * 0.12
    work_total = work_mem * concurrent_ops * (0.5 + 0.5 * np.minimum(hash_mult, 4.0))

    temp_buffers = (
        ctx.get("temp_buffers") * 8192 * wl.clients * wl.temp_heavy * 0.15
    )
    autovac = (
        np.minimum(ctx.get("autovacuum_max_workers"), 4)
        * ctx.autovacuum_work_mem_bytes()
        * 0.25
    )
    return startup_allocation_bytes(ctx) + work_total + temp_buffers + autovac


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    ram = ctx.hardware.ram_bytes

    startup = startup_allocation_bytes(ctx)
    ctx.flag_crashes(
        startup > ram,
        lambda i: (
            f"could not allocate shared memory: {startup[i] / MIB:.0f} MiB "
            f"requested, {ram / MIB:.0f} MiB RAM"
        ),
    )

    footprint = runtime_footprint_bytes(ctx)
    pressure = footprint / ram
    ctx.notes["memory_pressure"] = pressure
    ctx.flag_crashes(
        pressure > 1.35,
        lambda i: (
            f"out of memory under load: peak footprint "
            f"{footprint[i] / MIB:.0f} MiB on {ram / MIB:.0f} MiB RAM"
        ),
    )

    # Swapping region between comfortable and OOM: steep but smooth.
    swap_penalty = 0.8 * np.maximum(0.0, (pressure - 0.85) / 0.5)

    # Sort/hash spills when work_mem is below what the workload needs.
    work_mem_kb = ctx.get("work_mem")
    need_kb = 8192.0
    spill = wl.temp_heavy * 0.30 * np.maximum(0.0, 1.0 - work_mem_kb / need_kb) ** 0.7
    ctx.notes["temp_spill_ratio"] = spill

    # temp_file_limit only bites when tiny and the workload spills a lot.
    tfl = ctx.get("temp_file_limit")
    spill = np.where((tfl != -1) & (tfl < 1024) & (spill > 0.05), spill + 0.03, spill)

    return np.maximum(0.15, (1.0 - spill) * (1.0 - np.minimum(0.8, swap_penalty)))
