"""Special-value biasing (SVB) for hybrid knobs (paper, Section 4.1).

Hybrid knobs have special values (0, -1, ...) that break the numeric
ordering of their range.  With uniform sampling, the probability of ever
trying such a value is tiny (e.g. < 4% for ``backend_flush_after`` over 10
random samples), so the optimizer may never observe the discontinuity.

SVB reserves a fixed probability mass ``p`` of the knob's normalized
``[0, 1]`` range per special value: a normalized value ``u`` below the
total mass ``m * p`` maps to the special value ``min(int(u / p), m - 1)``,
and the rest is rescaled, ``(u - m * p) / (1 - m * p)``, onto the knob's
regular (non-special) range.  With the paper's default ``p = 20%`` and 10
initial samples, each special value is observed at least once with ~90%
confidence.  The transformation happens strictly *after* the optimizer's
suggestion, so it composes with any optimizer and any projection (design
requirement 2, Section 5).

:class:`SpecialValueBiaser` builds its tables at construction and applies
them to whole unit matrices, one masked pass per knob kind; the per-knob
definition it must equal is in ``tests/adapter_reference.py``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.space.configspace import Configuration, ConfigurationSpace
from repro.space.knob import IntegerKnob, Knob


class _BiasedKnob(NamedTuple):
    """One biased knob's SVB parameters, as native Python scalars."""

    index: int  # position in the space
    specials: tuple  # typed like the knob (int or float)
    mass: float  # bias * len(specials)
    lo: int | float  # the regular range
    hi: int | float


class _BiasTable:
    """Padded special-value tables of the biased knobs of one kind, and
    where those knobs sit in the space's native block of that kind."""

    def __init__(self, knobs: list[_BiasedKnob], block_cols: np.ndarray,
                 integer: bool):
        self.integer = integer
        dtype = np.int64 if integer else np.float64
        self.columns = np.array([k.index for k in knobs], dtype=np.int64)
        self.block = np.searchsorted(block_cols, self.columns)
        width = max((len(k.specials) for k in knobs), default=1)
        # Row-major (knob, special) table, each row padded with its last
        # special value; ``flat_offset`` is where each knob's row starts.
        self.specials = np.array(
            [s for k in knobs
             for s in k.specials + k.specials[-1:] * (width - len(k.specials))],
            dtype=dtype,
        )
        self.flat_offset = np.arange(len(knobs)) * width
        self.last = np.array([len(k.specials) - 1 for k in knobs], dtype=np.int64)
        self.mass = np.array([k.mass for k in knobs], dtype=float)
        self.rest = 1.0 - self.mass
        self.lo = np.array([k.lo for k in knobs], dtype=dtype)
        self.width = np.array([k.hi - k.lo for k in knobs], dtype=float)

    def apply(self, unit: np.ndarray, block: np.ndarray, bias: float) -> None:
        """Overwrite this kind's biased columns of ``block`` with the SVB
        values of the matching columns of ``unit`` (already in [0, 1])."""
        if not len(self.columns):
            return
        u = unit[:, self.columns]
        index = np.minimum((u / bias).astype(np.int64), self.last)
        special = self.specials[index + self.flat_offset]
        rescaled = (u - self.mass) / self.rest
        if self.integer:
            regular = np.rint(rescaled * self.width).astype(np.int64) + self.lo
        else:
            regular = self.lo + rescaled * self.width
        block[:, self.block] = np.where(u < self.mass, special, regular)


class SpecialValueBiaser:
    """Maps normalized knob values to native values with special-value bias.

    Args:
        space: Target configuration space (its hybrid knobs get biased).
        bias: Probability mass ``p`` reserved per special value (0 disables
            biasing entirely; the paper default is 0.2).

    Raises:
        ValueError: ``bias`` is outside ``[0, 0.5)``, or a hybrid knob's
            special values would take the whole normalized range.
    """

    def __init__(self, space: ConfigurationSpace, bias: float = 0.2):
        if not 0.0 <= bias < 0.5:
            raise ValueError(f"bias must be in [0, 0.5), got {bias}")
        self.space = space
        self.bias = bias
        self._hybrid_names = frozenset(k.name for k in space.hybrid_knobs)
        #: The biased knobs' parameters, keyed by their position in the space.
        self.biased: dict[int, _BiasedKnob] = {
            j: self._biased_knob(j, knob)
            for j, knob in enumerate(space)
            if self.is_biased(knob.name)
        }
        arrays = space.arrays
        ints = [k for k in self.biased.values() if arrays.is_integer[k.index]]
        floats = [k for k in self.biased.values() if not arrays.is_integer[k.index]]
        self._ints = _BiasTable(ints, arrays.integer_cols, integer=True)
        self._floats = _BiasTable(floats, arrays.float_cols, integer=False)

    def _biased_knob(self, index: int, knob: Knob) -> _BiasedKnob:
        specials = knob.special_values  # type: ignore[attr-defined]
        mass = self.bias * len(specials)
        if mass >= 1.0:
            raise ValueError(
                f"{knob.name}: bias {self.bias} with {len(specials)} special "
                "values consumes the whole range"
            )
        native = int if isinstance(knob, IntegerKnob) else float
        lo, hi = knob.regular_range  # type: ignore[attr-defined]
        return _BiasedKnob(
            index, tuple(native(s) for s in specials), mass, native(lo), native(hi)
        )

    def is_biased(self, name: str) -> bool:
        return self.bias > 0.0 and name in self._hybrid_names

    def from_unit_array(self, unit: np.ndarray) -> list[Configuration]:
        """The space's :meth:`~ConfigurationSpace.from_unit_array` with
        every biased knob's value taken through SVB.

        Args:
            unit: ``N x D`` matrix over the space (clipped to ``[0, 1]``
                here).
        """
        space = self.space
        unit = np.clip(unit, 0.0, 1.0)
        floats, ints = space._numeric_blocks(unit)
        self._ints.apply(unit, ints, self.bias)
        self._floats.apply(unit, floats, self.bias)
        return space._from_blocks(
            len(unit), floats, ints, space._category_codes(unit)
        )
