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
across processes.  The batch path caches the per-(workload, knob-set)
coefficient table and the per-category embeddings, so the sha256 work is
paid once per testbed instead of once per evaluation.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.dbms.context import BatchEvalContext

#: Maximum absolute contribution of a single knob (fractional speed).
_AMPLITUDE = 0.0035

#: (workload name, knob-name tuple) -> (a, b, phase) coefficient arrays.
_COEFFICIENT_CACHE: dict[tuple[str, tuple[str, ...]], tuple[np.ndarray, ...]] = {}

#: Categorical value -> unit embedding (sha256 of the value string).
_STRING_UNIT_CACHE: dict[str, float] = {}


def _knob_coefficients(workload_name: str, knob_name: str) -> tuple[float, float, float]:
    """Stable pseudo-random (a, b, phase) coefficients in [-1, 1] / [0, 2π)."""
    digest = hashlib.sha256(f"{workload_name}:{knob_name}".encode()).digest()
    a = int.from_bytes(digest[0:4], "big") / 2**32 * 2.0 - 1.0
    b = int.from_bytes(digest[4:8], "big") / 2**32 * 2.0 - 1.0
    phase = int.from_bytes(digest[8:12], "big") / 2**32 * 2.0 * math.pi
    return a, b, phase


def _coefficient_table(
    workload_name: str, names: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    key = (workload_name, names)
    table = _COEFFICIENT_CACHE.get(key)
    if table is None:
        coeffs = [_knob_coefficients(workload_name, name) for name in names]
        table = tuple(np.array(col) for col in zip(*coeffs))
        _COEFFICIENT_CACHE[key] = table
    return table


def _string_unit(value: str) -> float:
    unit = _STRING_UNIT_CACHE.get(value)
    if unit is None:
        digest = hashlib.sha256(value.encode()).digest()
        unit = int.from_bytes(digest[:4], "big") / 2**32
        _STRING_UNIT_CACHE[value] = unit
    return unit


def _unit_matrix(ctx: BatchEvalContext, names: tuple[str, ...]) -> np.ndarray:
    """Cheap [0, 1] embedding of every knob column, ``(N, D)``.

    Numeric columns are squashed to (0, 1) smoothly regardless of the
    knob's range in one whole-matrix arctan pass; categorical columns hash
    each (cached) value.
    """
    unit = np.empty((ctx.n, len(names)))
    numeric_js = []
    for j, name in enumerate(names):
        column = ctx.columns[name]
        if column.dtype == object:
            unit[:, j] = [_string_unit(v) for v in column]
        else:
            unit[:, j] = column
            numeric_js.append(j)
    numeric = unit[:, numeric_js]
    unit[:, numeric_js] = 0.5 + np.arctan(
        numeric / (1.0 + np.abs(numeric) * 0.5)
    ) / math.pi
    return unit


def score_batch(ctx: BatchEvalContext) -> np.ndarray:
    names = tuple(ctx.columns)
    a, b, phase = _coefficient_table(ctx.workload.name, names)
    unit = _unit_matrix(ctx, names)

    contributions = _AMPLITUDE * (
        a * np.sin(2.0 * math.pi * unit + phase) + b * (unit - 0.5)
    )
    # Accumulate knob by knob (not np.sum's pairwise reduction) so every
    # batch size sums in the identical order.
    total = np.zeros(ctx.n)
    for j in range(contributions.shape[1]):
        total = total + contributions[:, j]
    return np.exp(total)
