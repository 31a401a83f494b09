"""Early-stopping policy for tuning sessions (paper, Appendix A).

The policy watches the best performance achieved so far and terminates the
session when ``patience`` iterations pass without an aggregate relative
improvement of at least ``min_improvement``.  The paper evaluates the
(0.5%, 10), (1%, 10) and (1%, 20) settings (Table 11).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EarlyStoppingPolicy:
    """(min-improvement, patience) early stopping on the best-so-far curve.

    Args:
        min_improvement: Required relative improvement over the window
            (e.g. 0.01 for 1%).
        patience: Window length in iterations.
        warmup: Iterations always allowed before stopping is considered
            (the LHS initialization phase should never trigger a stop).
    """

    min_improvement: float = 0.01
    patience: int = 10
    warmup: int = 10

    def __post_init__(self) -> None:
        if self.min_improvement < 0:
            raise ValueError("min_improvement must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        self._reference: float | None = None
        self._reference_iteration = 0

    def fresh(self) -> "EarlyStoppingPolicy":
        """A new policy with the same parameters and pristine state.

        ``should_stop`` mutates per-session tracking state, so every tuning
        session must watch its own copy; sharing one instance across the
        seeds of a multi-seed run leaks the previous seed's reference point
        into the next (and races under the parallel runner).
        """
        return EarlyStoppingPolicy(
            min_improvement=self.min_improvement,
            patience=self.patience,
            warmup=self.warmup,
        )

    def earliest_stop(self, iteration: int) -> int:
        """The first iteration (0-based, ``>= iteration``) after which
        :meth:`should_stop` could return True from the current state: a
        stop needs the warmup behind it and ``patience`` iterations past
        the reference, which only ever moves forward (with no reference
        yet, the row at ``iteration`` sets it)."""
        reference = (
            iteration if self._reference is None else self._reference_iteration
        )
        return max(self.warmup, reference + self.patience, iteration)

    def should_stop(self, iteration: int, best_value: float, maximize: bool) -> bool:
        """Feed the best-so-far value after ``iteration`` (0-based); returns
        True when the session should terminate."""
        signed = best_value if maximize else -best_value
        if self._reference is None:
            self._reference = signed
            self._reference_iteration = iteration
            return False

        improvement = (signed - self._reference) / max(abs(self._reference), 1e-12)
        if improvement >= self.min_improvement:
            self._reference = signed
            self._reference_iteration = iteration
            return False
        if iteration < self.warmup:
            return False
        return iteration - self._reference_iteration >= self.patience
