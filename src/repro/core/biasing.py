"""Special-value biasing (SVB) for hybrid knobs (paper, Section 4.1).

Hybrid knobs have special values (0, -1, ...) that break the numeric
ordering of their range.  With uniform sampling, the probability of ever
trying such a value is tiny (e.g. < 4% for ``backend_flush_after`` over 10
random samples), so the optimizer may never observe the discontinuity.

SVB reserves a fixed probability mass ``p`` of the knob's normalized
``[0, 1]`` range per special value: a normalized value landing in
``[i*p, (i+1)*p)`` maps to the i-th special value, and the remaining
``[m*p, 1]`` is rescaled onto the knob's regular (non-special) range.
With the paper's default ``p = 20%`` and 10 initial samples, each special
value is observed at least once with ~90% confidence.  The transformation
happens strictly *after* the optimizer's suggestion, so it composes with
any optimizer and any projection (design requirement 2, Section 5).
"""

from __future__ import annotations

import numpy as np

from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, FloatKnob, IntegerKnob, Knob, KnobValue


class _BiasedColumn:
    """Precomputed per-knob arrays for the vectorized bias transform."""

    __slots__ = ("index", "specials", "total_mass", "regular_lo", "regular_hi",
                 "is_integer")

    def __init__(self, index: int, knob: IntegerKnob | FloatKnob, bias: float):
        self.index = index
        self.is_integer = isinstance(knob, IntegerKnob)
        dtype = np.int64 if self.is_integer else float
        self.specials = np.asarray(knob.special_values, dtype=dtype)
        self.total_mass = bias * len(knob.special_values)
        if self.total_mass >= 1.0:
            raise ValueError(
                f"{knob.name}: bias {bias} with {len(knob.special_values)} "
                "special values consumes the whole range"
            )
        self.regular_lo, self.regular_hi = knob.regular_range


class SpecialValueBiaser:
    """Maps normalized knob values to native values with special-value bias.

    Args:
        space: Target configuration space (its hybrid knobs get biased).
        bias: Probability mass ``p`` reserved per special value (0 disables
            biasing entirely; the paper default is 0.2).
    """

    def __init__(self, space: ConfigurationSpace, bias: float = 0.2):
        if not 0.0 <= bias < 0.5:
            raise ValueError(f"bias must be in [0, 0.5), got {bias}")
        self.space = space
        self.bias = bias
        self._hybrid_names = frozenset(k.name for k in space.hybrid_knobs)
        self._columns: dict[int, _BiasedColumn] | None = None

    def is_biased(self, name: str) -> bool:
        return self.bias > 0.0 and name in self._hybrid_names

    def value_for(self, knob: Knob, unit: float) -> KnobValue:
        """Convert a normalized ``[0, 1]`` value to a native knob value,
        applying the special-value bias for hybrid knobs."""
        unit = min(max(unit, 0.0), 1.0)
        if not self.is_biased(knob.name):
            return knob.from_unit(unit)

        assert isinstance(knob, (IntegerKnob, FloatKnob))
        specials = knob.special_values
        total_mass = self.bias * len(specials)
        if total_mass >= 1.0:
            raise ValueError(
                f"{knob.name}: bias {self.bias} with {len(specials)} special "
                "values consumes the whole range"
            )
        if unit < total_mass:
            index = min(int(unit / self.bias), len(specials) - 1)
            return specials[index]

        # Rescale the remaining mass onto the regular (non-special) range.
        rescaled = (unit - total_mass) / (1.0 - total_mass)
        lo, hi = knob.regular_range
        if isinstance(knob, IntegerKnob):
            return int(lo + round(rescaled * (hi - lo)))
        return lo + rescaled * (hi - lo)

    def special_probability(self, knob: Knob) -> float:
        """Probability mass mapped onto special values for this knob."""
        if not self.is_biased(knob.name):
            return 0.0
        specials = getattr(knob, "special_values", ())
        return self.bias * len(specials)

    # --- vectorized path ---------------------------------------------------

    def biased_columns(self) -> dict[int, _BiasedColumn]:
        """Precomputed bias arrays keyed by knob index (lazily built)."""
        if self._columns is None:
            knobs = self.space.knobs
            self._columns = {
                j: _BiasedColumn(j, knobs[j], self.bias)
                for j in map(int, np.flatnonzero(self.space.arrays.is_hybrid))
                if self.is_biased(knobs[j].name)
            }
        return self._columns

    def bias_column(self, column: _BiasedColumn, unit: np.ndarray) -> list:
        """Native values for one biased knob from a unit-interval column.

        Vectorized equivalent of mapping :meth:`value_for` over ``unit``.
        """
        unit = np.clip(unit, 0.0, 1.0)
        index = np.minimum(
            (unit / self.bias).astype(np.int64), len(column.specials) - 1
        )
        special = column.specials[index]
        rescaled = (unit - column.total_mass) / (1.0 - column.total_mass)
        lo, hi = column.regular_lo, column.regular_hi
        if column.is_integer:
            regular = np.rint(rescaled * (hi - lo)).astype(np.int64) + lo
        else:
            regular = lo + rescaled * (hi - lo)
        return np.where(unit < column.total_mass, special, regular).tolist()

    def biased_value_columns(self, unit: np.ndarray) -> dict[int, list]:
        """Native value columns for every biased knob of a unit matrix.

        Vectorized over the rows via :meth:`bias_column` — equivalent to
        mapping :meth:`value_for` over every (knob, row) pair.

        Args:
            unit: ``N x D`` matrix over the target space (clipped here).

        Returns:
            Mapping from knob index to a native value column of length N.
        """
        return {
            j: self.bias_column(column, unit[:, j])
            for j, column in self.biased_columns().items()
        }
