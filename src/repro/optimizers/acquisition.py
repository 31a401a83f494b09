"""Acquisition functions for Bayesian optimization (maximization form)."""

from __future__ import annotations

import numpy as np
from scipy import special


#: Predictive standard deviations at or below this are treated as zero.
ZERO_STD_THRESHOLD = 1e-12

#: The standard-normal pdf normalizer, built exactly like scipy's
#: ``_norm_pdf_C`` so :func:`_norm_pdf` stays byte-identical to
#: ``stats.norm.pdf``.
_NORM_PDF_C = np.sqrt(2 * np.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard-normal CDF, byte-identical to ``stats.norm.cdf``.

    ``stats.norm.cdf`` bottoms out in ``special.ndtr`` after ~100us of
    distribution-framework dispatch per call; the EI hot path calls the
    special function directly.
    """
    return special.ndtr(z)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard-normal PDF, byte-identical to ``stats.norm.pdf`` (same ops
    as scipy's ``_norm_pdf`` on the same values), minus the dispatch."""
    return np.exp(-z**2 / 2.0) / _NORM_PDF_C


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: float | np.ndarray,
    xi: float = 0.01,
) -> np.ndarray:
    """Expected improvement over the incumbent ``best`` (maximization).

    ``best`` is the incumbent value — a scalar for one session, or a
    broadcastable per-row array when several sessions' candidate blocks
    are scored in one stacked pass (the wave scheduler's cross-session
    model phase): every op is elementwise, so each block's values are
    byte-identical to a per-session call with its scalar incumbent.

    ``xi`` is the usual exploration jitter.  Points with (numerically) zero
    predictive standard deviation (``std <= ZERO_STD_THRESHOLD``) get zero
    EI.  The threshold is applied once, up front: degenerate rows skip the
    CDF/PDF evaluation entirely instead of computing a full pass that the
    final mask would zero anyway (historically ``z`` was gated on
    ``std > 0`` but the result on ``std > 1e-12`` — two different cutoffs,
    one wasted evaluation).
    """
    mean, std = np.broadcast_arrays(
        np.asarray(mean, dtype=float), np.asarray(std, dtype=float)
    )
    improvement = mean - best - xi
    positive = std > ZERO_STD_THRESHOLD
    if positive.all():
        z = improvement / std
        return np.maximum(
            improvement * _norm_cdf(z) + std * _norm_pdf(z), 0.0
        )
    ei = np.zeros(std.shape)
    if positive.any():
        imp, s = improvement[positive], std[positive]
        z = imp / s
        ei[positive] = np.maximum(
            imp * _norm_cdf(z) + s * _norm_pdf(z), 0.0
        )
    return ei


def top_q_distinct(scores: np.ndarray, rows: np.ndarray, q: int) -> np.ndarray:
    """Indices of the ``q`` best-scoring *distinct* rows.

    Ranking is stable (ties keep pool order), so the first index equals
    ``argmax(scores)`` — the batch-of-one winner is bit-identical to the
    scalar acquisition argmax.  Duplicate candidate rows (e.g. a local
    neighbor colliding with a random candidate) are skipped so a batch
    never proposes the same configuration twice; if the pool holds fewer
    than ``q`` distinct rows, all of them are returned.
    """
    scores = np.asarray(scores, dtype=float)
    if q == 1:
        # The stable descending sort's first entry is the first maximum —
        # exactly np.argmax — so the batch-of-one winner skips the sort.
        return np.array([np.argmax(scores)])
    order = np.argsort(-scores, kind="stable")
    picked: list[int] = []
    seen: set[bytes] = set()
    for i in order:
        key = rows[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        picked.append(int(i))
        if len(picked) == q:
            break
    return np.asarray(picked, dtype=int)
