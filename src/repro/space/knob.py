"""Knob (configuration parameter) definitions.

A DBMS exposes configuration *knobs* of three kinds (paper, Section 2.1):

* numeric knobs (integer or float) with a ``[lower, upper]`` range,
* categorical knobs with a finite list of choices,
* *hybrid* knobs (paper, Section 4.1): numeric knobs that additionally have
  one or more *special values* (e.g. ``0`` or ``-1``) whose semantics break
  the natural ordering of the numeric range (disable a feature, defer to an
  internal heuristic, derive the value from another knob, ...).

Every knob knows how to convert between its native value domain and the
normalized unit interval ``[0, 1]`` used by optimizers and by LlamaTune's
projection pipeline (paper, Section 3.3: min-max uniform scaling for numeric
knobs; equal-width binning for categorical knobs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

KnobValue = Union[int, float, str, bool]


class KnobError(ValueError):
    """Raised when a knob is defined or used inconsistently."""


def _clip_unit(x: float) -> float:
    """Clamp ``x`` into the closed unit interval."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


@dataclass(frozen=True)
class Knob:
    """Base class for a single configuration knob.

    Attributes:
        name: Unique knob identifier (the DBMS GUC name).
        default: Value used by the DBMS default configuration.
        description: Short human-readable documentation string.
    """

    name: str
    default: KnobValue
    description: str = ""

    # --- interface -------------------------------------------------------

    def validate(self, value: KnobValue) -> None:
        """Raise :class:`KnobError` if ``value`` is not legal for this knob."""
        raise NotImplementedError

    def to_unit(self, value: KnobValue) -> float:
        """Map a native knob value to ``[0, 1]``."""
        raise NotImplementedError

    def from_unit(self, u: float) -> KnobValue:
        """Map a unit-interval value to a legal native knob value."""
        raise NotImplementedError

    @property
    def num_values(self) -> float:
        """Number of distinct legal values (``math.inf`` for floats)."""
        raise NotImplementedError

    @property
    def is_hybrid(self) -> bool:
        """True if the knob has special values (paper, Section 4.1)."""
        return bool(getattr(self, "special_values", ()))


@dataclass(frozen=True)
class IntegerKnob(Knob):
    """A discrete numeric knob taking integer values in ``[lower, upper]``.

    ``special_values`` lists values (inside or at the edge of the range) with
    out-of-band semantics; a knob with special values is a *hybrid* knob.
    ``unit`` is purely documentary (e.g. ``"8kB pages"``, ``"µs"``).
    """

    lower: int = 0
    upper: int = 1
    special_values: tuple[int, ...] = ()
    unit: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise KnobError(
                f"{self.name}: lower bound {self.lower} > upper bound {self.upper}"
            )
        for sv in self.special_values:
            if not self.lower <= sv <= self.upper:
                raise KnobError(
                    f"{self.name}: special value {sv} outside "
                    f"[{self.lower}, {self.upper}]"
                )
        self.validate(self.default)

    def validate(self, value: KnobValue) -> None:
        if not isinstance(value, (int,)) or isinstance(value, bool):
            raise KnobError(f"{self.name}: expected int, got {value!r}")
        if not self.lower <= value <= self.upper:
            raise KnobError(
                f"{self.name}: value {value} outside [{self.lower}, {self.upper}]"
            )

    def to_unit(self, value: KnobValue) -> float:
        self.validate(value)
        if self.upper == self.lower:
            return 0.0
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: float) -> int:
        u = _clip_unit(u)
        value = self.lower + round(u * (self.upper - self.lower))
        return int(value)

    @property
    def num_values(self) -> float:
        return self.upper - self.lower + 1

    @property
    def regular_range(self) -> tuple[int, int]:
        """The numeric range excluding edge special values.

        Only special values at the extreme ends of the range shrink the
        regular range; interior special values (rare) leave it unchanged.
        """
        lo, hi = self.lower, self.upper
        changed = True
        while changed:
            changed = False
            if lo in self.special_values and lo < hi:
                lo += 1
                changed = True
            if hi in self.special_values and hi > lo:
                hi -= 1
                changed = True
        return lo, hi


@dataclass(frozen=True)
class FloatKnob(Knob):
    """A continuous numeric knob taking float values in ``[lower, upper]``."""

    lower: float = 0.0
    upper: float = 1.0
    special_values: tuple[float, ...] = ()
    unit: str = ""

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise KnobError(
                f"{self.name}: lower bound {self.lower} > upper bound {self.upper}"
            )
        self.validate(self.default)

    def validate(self, value: KnobValue) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise KnobError(f"{self.name}: expected float, got {value!r}")
        if not self.lower <= value <= self.upper:
            raise KnobError(
                f"{self.name}: value {value} outside [{self.lower}, {self.upper}]"
            )

    def to_unit(self, value: KnobValue) -> float:
        self.validate(value)
        if self.upper == self.lower:
            return 0.0
        return (value - self.lower) / (self.upper - self.lower)

    def from_unit(self, u: float) -> float:
        u = _clip_unit(u)
        return self.lower + u * (self.upper - self.lower)

    @property
    def num_values(self) -> float:
        return math.inf

    @property
    def regular_range(self) -> tuple[float, float]:
        return self.lower, self.upper


@dataclass(frozen=True)
class CategoricalKnob(Knob):
    """A categorical knob choosing one of ``choices``.

    The unit-interval mapping splits ``[0, 1]`` into ``len(choices)``
    equal-width bins (paper, Section 3.3).
    """

    choices: tuple[str, ...] = ("off", "on")

    def __post_init__(self) -> None:
        if len(self.choices) < 2:
            raise KnobError(f"{self.name}: need at least two choices")
        if len(set(self.choices)) != len(self.choices):
            raise KnobError(f"{self.name}: duplicate choices {self.choices}")
        self.validate(self.default)

    def validate(self, value: KnobValue) -> None:
        if value not in self.choices:
            raise KnobError(
                f"{self.name}: value {value!r} not in choices {self.choices}"
            )

    def to_unit(self, value: KnobValue) -> float:
        self.validate(value)
        index = self.choices.index(value)  # type: ignore[arg-type]
        # Center of the bin, so round-tripping is stable.
        return (index + 0.5) / len(self.choices)

    def from_unit(self, u: float) -> str:
        u = _clip_unit(u)
        index = min(int(u * len(self.choices)), len(self.choices) - 1)
        return self.choices[index]

    @property
    def num_values(self) -> float:
        return len(self.choices)


def boolean_knob(name: str, default: str = "on", description: str = "") -> CategoricalKnob:
    """Convenience constructor for the ubiquitous on/off categorical knob."""
    return CategoricalKnob(
        name=name, default=default, description=description, choices=("off", "on")
    )
