"""Long-tail "texture": small smooth effects from every knob.

Real DBMS response surfaces are not exactly flat in the unimportant knobs:
every knob nudges performance a little, differently per workload.  This
component gives each knob a deterministic, smooth, workload-dependent
contribution of at most a few tenths of a percent, so that

* the effective dimensionality stays low (the component models above carry
  the real headroom), but
* no dimension is exactly dead — random projections and importance ranking
  face the same long tail they face on a real system.

Determinism: coefficients are derived from a stable hash of
``(workload name, knob name)``, so results are reproducible and identical
across processes.  The simulator's :class:`~repro.dbms.plan.EvalPlan`
computes the per-knob coefficients and the per-category embeddings once
per row layout, so the sha256 work is paid once per plan instead of once
per evaluation.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.dbms.context import BatchEvalContext

#: Maximum absolute contribution of a single knob (fractional speed).
_AMPLITUDE = 0.0035


def knob_coefficients(workload_name: str, knob_name: str) -> tuple[float, float, float]:
    """Stable pseudo-random (a, b, phase) coefficients in [-1, 1] / [0, 2π)."""
    digest = hashlib.sha256(f"{workload_name}:{knob_name}".encode()).digest()
    a = int.from_bytes(digest[0:4], "big") / 2**32 * 2.0 - 1.0
    b = int.from_bytes(digest[4:8], "big") / 2**32 * 2.0 - 1.0
    phase = int.from_bytes(digest[8:12], "big") / 2**32 * 2.0 * math.pi
    return a, b, phase


def category_unit(value: str) -> float:
    """[0, 1) embedding of a categorical value (sha256 of its string)."""
    digest = hashlib.sha256(value.encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    plan = ctx.plan
    # Cheap [0, 1] embedding of every knob, (N, D): numeric columns are
    # squashed to (0, 1) smoothly regardless of the knob's range, and
    # categorical codes look up their embeddings.  The blocks come out
    # int, float, categorical; the gather restores the row's knob order.
    numeric = np.concatenate((ctx.ints.T, ctx.floats.T), axis=1).astype(
        float, copy=False
    )
    squashed = 0.5 + np.arctan(numeric / (1.0 + np.abs(numeric) * 0.5)) / math.pi
    unit = np.concatenate((squashed, plan.unit_table[ctx.codes.T]), axis=1)[
        :, plan.texture_order
    ]

    contributions = _AMPLITUDE * (
        plan.texture_a * np.sin(2.0 * math.pi * unit + plan.texture_phase)
        + plan.texture_b * (unit - 0.5)
    )
    # Accumulate knob by knob, left to right (not np.sum's pairwise
    # reduction), so every batch size sums in the identical order.  The
    # last column is strided; exp gets a contiguous copy, the layout its
    # vectorized loop has always been given here.
    total = np.add.accumulate(contributions, axis=1)[:, -1]
    return np.exp(np.ascontiguousarray(total))
