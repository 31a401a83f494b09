"""Configuration spaces and concrete configurations.

A :class:`ConfigurationSpace` is an ordered collection of knobs; it defines
the ``D``-dimensional input space :math:`X_D` from the paper (Section 3).
A :class:`Configuration` is one point of that space: an immutable mapping
from knob name to native value.

The space also provides vector conversions used throughout the tuner stack:

* ``to_unit_vector`` / ``from_unit_vector``: native values <-> ``[0, 1]^D``
  (min-max scaling for numerics, bin centers/bins for categoricals).
* ``to_unit_array`` / ``from_unit_array``: the batched equivalents, mapping
  ``N`` configurations <-> an ``N x D`` matrix in one vectorized pass.

The scalar conversions are thin wrappers over the batch paths.  Every
unit -> native conversion (``from_unit_array``, the surrogate encoding's
``decode_batch``, the LlamaTune adapter's projected pass) ends in one
assembly, :meth:`ConfigurationSpace._from_blocks`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.space.knob import (
    CategoricalKnob,
    FloatKnob,
    IntegerKnob,
    Knob,
    KnobError,
    KnobValue,
)


def config_fingerprint(values: Mapping[str, KnobValue]) -> str:
    """Collision-resistant 64-bit digest of a knob-value assignment.

    The canonical form sorts by knob name and uses ``repr`` for values
    (``repr`` round-trips binary64 floats exactly and keeps ints and
    floats distinct), so a :class:`Configuration` and a plain dict with
    the same values — e.g. one restored from a JSON trace — fingerprint
    identically.  Used to key recorded evaluation traces and to name the
    configuration in quarantine reports.
    """
    method = getattr(values, "fingerprint", None)
    if callable(method):
        return method()
    text = "\n".join(f"{name}={value!r}" for name, value in sorted(values.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Configuration(Mapping[str, KnobValue]):
    """An immutable assignment of one value to every knob of a space."""

    __slots__ = ("_space", "_values", "_hash")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, KnobValue]):
        unknown = set(values) - set(space.names)
        if unknown:
            raise KnobError(f"unknown knobs: {sorted(unknown)}")
        missing = set(space.names) - set(values)
        if missing:
            raise KnobError(f"missing knobs: {sorted(missing)}")
        self._values = dict(values)
        for name, value in values.items():
            knob = space[name]
            knob.validate(value)
            # A float knob stores a float: an int that passed validation
            # (4 for 4.0) would otherwise reach the simulator's float
            # columns as an int.
            if isinstance(value, int) and isinstance(knob, FloatKnob):
                self._values[name] = float(value)
        self._space = space
        self._hash: int | None = None

    @classmethod
    def _trusted(
        cls, space: "ConfigurationSpace", values: dict[str, KnobValue]
    ) -> "Configuration":
        """Construct without validation from values known to be legal.

        Used by the batch conversion paths, whose outputs are legal by
        construction; ``values`` must be a fresh dict covering every knob.
        """
        config = object.__new__(cls)
        config._space = space
        config._values = values
        config._hash = None
        return config

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    def __getitem__(self, name: str) -> KnobValue:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._space.names)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        # Structural space equality (same knob names), so configurations
        # survive serialization round trips into freshly built spaces.
        return (
            self._space.names == other._space.names
            and self._values == other._values
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._values.items())))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={self._values[k]!r}" for k in self._space.names[:4])
        more = "" if len(self) <= 4 else f", ... ({len(self)} knobs)"
        return f"Configuration({inner}{more})"

    def replace(self, **updates: KnobValue) -> "Configuration":
        """Return a copy with some knob values replaced."""
        new_values = dict(self._values)
        new_values.update(updates)
        return Configuration(self._space, new_values)

    def to_dict(self) -> dict[str, KnobValue]:
        return dict(self._values)

    def fingerprint(self) -> str:
        """Collision-resistant 64-bit digest of this assignment (see
        :func:`config_fingerprint`; equal values — even via a plain dict
        or a JSON round trip — produce equal fingerprints)."""
        text = "\n".join(
            f"{name}={value!r}" for name, value in sorted(self._values.items())
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SpaceArrays:
    """Precomputed array metadata for vectorized space conversions.

    ``is_integer``, ``lower``/``span`` (zeros for categoricals) and
    ``n_choices`` are indexed by knob position; the ``*_cols`` arrays list
    each kind's columns, and the arrays after them hold the unit -> native
    constants of those columns, in the same order.
    """

    names: tuple[str, ...]
    is_integer: np.ndarray  # bool D
    lower: np.ndarray  # float D (0 for categoricals)
    span: np.ndarray  # float D, upper - lower (0 for categoricals)
    n_choices: np.ndarray  # int D (0 for numerics)
    numeric_cols: np.ndarray  # int indices of numeric knobs
    integer_cols: np.ndarray  # int indices of integer knobs
    float_cols: np.ndarray  # int indices of float knobs
    categorical_cols: np.ndarray  # int indices of categorical knobs
    choice_index: tuple[dict | None, ...]  # per-knob choice -> index maps
    float_lower: np.ndarray  # float
    float_span: np.ndarray  # float
    int_lower: np.ndarray  # int64
    int_span: np.ndarray  # float
    cat_size: np.ndarray  # float, number of choices
    cat_last: np.ndarray  # int64, cat_size - 1
    choice_table: np.ndarray  # object, every categorical knob's choices
    choice_offset: np.ndarray  # int64, a column's first entry in choice_table


class ConfigurationSpace:
    """An ordered set of knobs defining the tuning search space."""

    def __init__(self, knobs: Iterable[Knob], name: str = "space"):
        self._knobs: dict[str, Knob] = {}
        for knob in knobs:
            if knob.name in self._knobs:
                raise KnobError(f"duplicate knob name: {knob.name}")
            self._knobs[knob.name] = knob
        if not self._knobs:
            raise KnobError("configuration space needs at least one knob")
        self.name = name
        self._names: tuple[str, ...] = tuple(self._knobs)
        self._index: dict[str, int] = {n: i for i, n in enumerate(self._names)}
        self._arrays: SpaceArrays | None = None

    # --- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self._knobs)

    def __iter__(self) -> Iterator[Knob]:
        return iter(self._knobs.values())

    def __contains__(self, name: str) -> bool:
        return name in self._knobs

    def __getitem__(self, name: str) -> Knob:
        return self._knobs[name]

    def __repr__(self) -> str:
        return f"ConfigurationSpace({self.name!r}, {len(self)} knobs)"

    # --- structure --------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def dim(self) -> int:
        """Dimensionality ``D`` of the space."""
        return len(self._knobs)

    @property
    def knobs(self) -> tuple[Knob, ...]:
        return tuple(self._knobs.values())

    @property
    def hybrid_knobs(self) -> tuple[Knob, ...]:
        """The knobs that have special values (paper, Section 4.1)."""
        return tuple(k for k in self if k.is_hybrid)

    @property
    def categorical_knobs(self) -> tuple[CategoricalKnob, ...]:
        return tuple(k for k in self if isinstance(k, CategoricalKnob))

    def index_of(self, name: str) -> int:
        return self._index[name]

    def subspace(self, names: Iterable[str], name: str | None = None) -> "ConfigurationSpace":
        """Restrict the space to a subset of knobs (used for Fig. 2 studies)."""
        names = list(names)
        missing = [n for n in names if n not in self._knobs]
        if missing:
            raise KnobError(f"unknown knobs: {missing}")
        sub_name = name if name is not None else f"{self.name}/subset{len(names)}"
        return ConfigurationSpace((self._knobs[n] for n in names), name=sub_name)

    @property
    def arrays(self) -> SpaceArrays:
        """Array metadata for the vectorized conversion paths (cached)."""
        if self._arrays is None:
            knobs = list(self._knobs.values())
            is_cat = np.array(
                [isinstance(k, CategoricalKnob) for k in knobs], dtype=bool
            )
            is_int = np.array([isinstance(k, IntegerKnob) for k in knobs], dtype=bool)
            lower = np.array(
                [0.0 if c else k.lower for k, c in zip(knobs, is_cat)], dtype=float
            )
            upper = np.array(
                [0.0 if c else k.upper for k, c in zip(knobs, is_cat)], dtype=float
            )
            span = upper - lower
            n_choices = np.array(
                [len(k.choices) if c else 0 for k, c in zip(knobs, is_cat)],
                dtype=int,
            )
            int_cols = np.flatnonzero(is_int)
            float_cols = np.flatnonzero(~is_cat & ~is_int)
            cat_cols = np.flatnonzero(is_cat)
            cat_size = n_choices[cat_cols]
            self._arrays = SpaceArrays(
                names=self._names,
                is_integer=is_int,
                lower=lower,
                span=span,
                n_choices=n_choices,
                numeric_cols=np.flatnonzero(~is_cat),
                integer_cols=int_cols,
                float_cols=float_cols,
                categorical_cols=cat_cols,
                choice_index=tuple(
                    {choice: i for i, choice in enumerate(k.choices)} if c else None
                    for k, c in zip(knobs, is_cat)
                ),
                float_lower=lower[float_cols],
                float_span=span[float_cols],
                int_lower=lower[int_cols].astype(np.int64),
                int_span=span[int_cols],
                cat_size=cat_size.astype(float),
                cat_last=(cat_size - 1).astype(np.int64),
                choice_table=np.array(
                    [c for j in cat_cols for c in knobs[j].choices], dtype=object
                ),
                choice_offset=(np.cumsum(cat_size) - cat_size).astype(np.int64),
            )
        return self._arrays

    # --- configurations ----------------------------------------------------

    def configuration(self, values: Mapping[str, KnobValue]) -> Configuration:
        return Configuration(self, values)

    def default_configuration(self) -> Configuration:
        return Configuration(self, {k.name: k.default for k in self})

    def partial_configuration(
        self, overrides: Mapping[str, KnobValue]
    ) -> Configuration:
        """Default configuration with some knobs overridden."""
        values = {k.name: k.default for k in self}
        values.update(overrides)
        return Configuration(self, values)

    # --- vector conversions -------------------------------------------------

    def to_unit_vector(self, config: Configuration) -> np.ndarray:
        """Map a configuration to a point in ``[0, 1]^D``."""
        return self.to_unit_array([config])[0]

    def from_unit_vector(self, vector: np.ndarray) -> Configuration:
        """Map a point of ``[0, 1]^D`` to a legal configuration.

        Values outside the unit cube are clipped per-dimension, matching the
        clipping semantics in the paper's projection pipeline (Section 3.2).
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dim,):
            raise KnobError(
                f"expected vector of shape ({self.dim},), got {vector.shape}"
            )
        return self.from_unit_array(vector[None, :])[0]

    def to_unit_array(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Map ``N`` configurations to an ``N x D`` matrix in ``[0, 1]``.

        One vectorized pass per knob kind; equivalent to stacking
        ``to_unit_vector`` over ``configs``.
        """
        a = self.arrays
        n = len(configs)
        unit = np.empty((n, self.dim), dtype=float)
        if n and len(a.numeric_cols):
            num_names = [a.names[j] for j in a.numeric_cols]
            raw = np.array(
                [[c._values[nm] for nm in num_names] for c in configs], dtype=float
            )
            lower = a.lower[a.numeric_cols]
            span = a.span[a.numeric_cols]
            with np.errstate(invalid="ignore", divide="ignore"):
                scaled = (raw - lower) / span
            unit[:, a.numeric_cols] = np.where(span > 0.0, scaled, 0.0)
        if n:
            for j in a.categorical_cols:
                index_of = a.choice_index[j]
                name = a.names[j]
                idx = np.array(
                    [index_of[c._values[name]] for c in configs], dtype=float
                )
                unit[:, j] = (idx + 0.5) / a.n_choices[j]
        return unit

    def from_unit_array(self, unit: np.ndarray) -> list[Configuration]:
        """Map an ``N x D`` matrix in ``[0, 1]`` to ``N`` configurations.

        Out-of-cube values are clipped per-dimension; equivalent to mapping
        ``from_unit_vector`` over the rows.
        """
        unit = np.asarray(unit, dtype=float)
        if unit.ndim != 2 or unit.shape[1] != self.dim:
            raise KnobError(
                f"expected matrix of shape (N, {self.dim}), got {unit.shape}"
            )
        unit = np.clip(unit, 0.0, 1.0)
        floats, ints = self._numeric_blocks(unit)
        return self._from_blocks(
            len(unit), floats, ints, self._category_codes(unit)
        )

    # --- batch internals ----------------------------------------------------
    # A block is ``None`` when the space has no knob of its kind, so a
    # space of one kind (SMAC's synthetic all-integer space) pays for one.

    def _numeric_blocks(
        self, unit: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Native float and int blocks of a unit matrix already in [0, 1]:
        ``lower + u * span``, and ``rint(u * span) + lower`` (``np.rint``
        rounds half to even, as ``IntegerKnob.from_unit``'s ``round``)."""
        a = self.arrays
        floats = ints = None
        if len(a.float_cols):
            floats = a.float_lower + unit[:, a.float_cols] * a.float_span
        if len(a.integer_cols):
            ints = np.rint(unit[:, a.integer_cols] * a.int_span).astype(np.int64)
            ints += a.int_lower
        return floats, ints

    def _category_codes(self, unit: np.ndarray) -> np.ndarray | None:
        """Choice indices (equal-width bins) of a unit matrix in [0, 1]."""
        a = self.arrays
        if not len(a.categorical_cols):
            return None
        codes = (unit[:, a.categorical_cols] * a.cat_size).astype(np.int64)
        return np.minimum(codes, a.cat_last)

    def _from_blocks(
        self, n: int, floats: np.ndarray | None, ints: np.ndarray | None,
        codes: np.ndarray | None,
    ) -> list[Configuration]:
        """The one unit -> native assembly: ``n`` trusted configurations
        from the float, int and categorical code blocks.  One object matrix
        gathers them into name order, so every value leaves as its knob
        kind's Python type (``float``, ``int`` or ``str``)."""
        a = self.arrays
        rows = np.empty((n, self.dim), dtype=object)
        if floats is not None:
            rows[:, a.float_cols] = floats
        if ints is not None:
            rows[:, a.integer_cols] = ints
        if codes is not None:
            rows[:, a.categorical_cols] = a.choice_table[codes + a.choice_offset]
        names = self._names
        return [
            Configuration._trusted(self, dict(zip(names, row)))
            for row in rows.tolist()
        ]
