"""Lock-contention model.

Contention-heavy workloads (ResourceStresser by design, Twitter's hot rows,
TPC-C's warehouse rows) waste time in lock waits and deadlock resolution.
Most of that cost is inherent to the workload; the tunable part is small:
deadlock detection cadence and lock-table sizing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dbms.context import BatchEvalContext


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    wl = ctx.workload
    contention = wl.contention

    # Deadlock detection: ~200 ms is the sweet spot for contended OLTP;
    # very low values burn CPU on checks, very high ones stall victims.
    dt = ctx.get("deadlock_timeout")
    tuning = 1.0 - np.minimum(1.0, np.abs(np.log(dt / 200.0)) / math.log(3000.0))
    gain = 0.06 * contention * tuning

    # Generous lock tables avoid lock-escalation style slowdowns for
    # schema-heavy workloads.
    gain = gain + np.where(
        (ctx.get("max_locks_per_transaction") >= 128) & (wl.tables >= 5),
        0.015 * contention,
        0.0,
    )
    gain = gain - np.where(
        ctx.get("max_pred_locks_per_transaction") < 32, 0.01 * contention, 0.0
    )

    ctx.notes["lock_wait_fraction"] = contention * (0.25 - 0.1 * tuning)
    ctx.notes["deadlocks_per_min"] = contention * 2.0 * (1.0 - tuning)

    return 1.0 + gain
