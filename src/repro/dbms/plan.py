"""The compiled evaluation plan behind every simulator pass.

An :class:`EvalPlan` holds everything about a row layout that stays the
same from one evaluation to the next.  A simulator builds one per knob-name
tuple on first use and keeps it on the instance.  The plan records:

* each knob's column position and its block (int64, float64 or
  categorical), decided from the values exactly as numpy would type each
  column on its own;
* the categorical vocabulary, with per-code tables: the ``"on"`` mask, the
  value strings and the memoized :meth:`map_table` lookups;
* texture's per-knob ``(a, b, phase)`` coefficients and per-category unit
  embeddings;
* the component weights of the workload's geometric reduction.

:meth:`EvalPlan.fill` turns N rows into one int64, one float64 and one code
matrix, each stored knob-major so a knob's column is a contiguous row.  It
refuses (``TypeError``) any value that numpy would type differently on its
own column, such as 2.5 in an int column: the fixed block dtypes would
otherwise truncate it silently.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.dbms.components import BATCH_COMPONENTS, texture
from repro.dbms.context import CATEGORICAL, FLOAT, INT
from repro.dbms.hardware import Hardware
from repro.dbms.versions import PostgresVersion
from repro.space.configspace import Configuration
from repro.space.knob import KnobValue
from repro.workloads.base import Workload

#: Per numeric block: its dtype, and the Python type whose values the fill
#: accepts without checking each column's own ``np.asarray`` type.
_BLOCK_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))
_BLOCK_TYPES = (int, float)


def _as_mapping(row: Mapping[str, KnobValue]) -> Mapping[str, KnobValue]:
    """A plain dict view of a row: knob lookups on it stay in C."""
    return row.to_dict() if isinstance(row, Configuration) else row


def _column_kind(name: str, values: list) -> int:
    """The block a column belongs to, decided as a per-column numpy array
    would type it: strings are categorical, and numbers take the dtype
    ``np.asarray`` gives the whole column."""
    if isinstance(values[0], str):
        return CATEGORICAL
    dtype = np.asarray(values).dtype
    for kind, block_dtype in enumerate(_BLOCK_DTYPES):
        if dtype == block_dtype:
            return kind
    raise TypeError(f"knob {name!r}: values of dtype {dtype} are not supported")


class EvalPlan:
    """The fixed layout and lookup tables for rows with one knob-name tuple.

    Build it with :meth:`for_rows`; a simulator keeps one per name tuple.
    ``names`` is the row order (texture accumulates in it), and ``slots``
    maps each name to ``(block, index within block)``.
    """

    def __init__(
        self,
        names: tuple[str, ...],
        kinds: Sequence[int],
        workload: Workload,
        hardware: Hardware,
        version: PostgresVersion,
        vocabulary: Iterable[str],
    ):
        self.names = names
        self.workload = workload
        self.hardware = hardware
        self.version = version
        blocks: tuple[list[str], ...] = ([], [], [])
        self.slots: dict[str, tuple[int, int]] = {}
        for name, kind in zip(names, kinds):
            self.slots[name] = (kind, len(blocks[kind]))
            blocks[kind].append(name)
        self.blocks = tuple(tuple(block) for block in blocks)
        ordered = self.blocks[INT] + self.blocks[FLOAT] + self.blocks[CATEGORICAL]
        self._getter = itemgetter(*ordered)
        n_int, n_float = len(self.blocks[INT]), len(self.blocks[FLOAT])
        self._split = (n_int, n_int + n_float)

        # Texture: coefficients in row order, and the gather that puts a
        # block-ordered unit matrix back into row order.
        offsets = (0, *self._split)
        self.texture_order = np.array(
            [offsets[kind] + j for kind, j in (self.slots[name] for name in names)],
            dtype=np.intp,
        )
        coefficients = [
            texture.knob_coefficients(workload.name, name) for name in names
        ]
        self.texture_a, self.texture_b, self.texture_phase = (
            np.array(column) for column in zip(*coefficients)
        )

        # The geometric reduction skips zero-weight components.
        weighted = [
            (k, workload.weight(name))
            for k, name in enumerate(BATCH_COMPONENTS)
            if workload.weight(name)
        ]
        self.weighted = np.array([k for k, __ in weighted], dtype=np.intp)
        self.weights = np.array([w for __, w in weighted], dtype=float)[:, None]

        self._set_vocabulary(tuple(dict.fromkeys(vocabulary)))

    @classmethod
    def for_rows(
        cls,
        rows: Sequence[Mapping[str, KnobValue]],
        workload: Workload,
        hardware: Hardware,
        version: PostgresVersion,
    ) -> "EvalPlan":
        """The plan for ``rows``' layout: the first row's knob order, each
        column's block decided from the values of all ``rows``.  A
        :class:`Configuration` row seeds the vocabulary with its space's
        categorical choices, so later rows of that space never extend it.
        """
        first = rows[0]
        names = tuple(first)
        kinds = [_column_kind(name, [row[name] for row in rows]) for name in names]
        vocabulary: list[str] = []
        if isinstance(first, Configuration):
            for name, kind in zip(names, kinds):
                if kind == CATEGORICAL:
                    vocabulary.extend(first.space[name].choices)
        return cls(names, kinds, workload, hardware, version, vocabulary)

    # --- the per-call fill ----------------------------------------------------

    def fill(
        self, rows: Sequence[Mapping[str, KnobValue]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rows`` as knob-major ``(K_int, N)`` int64, ``(K_float, N)``
        float64 and ``(K_cat, N)`` code matrices."""
        values = [self._getter(_as_mapping(row)) for row in rows]
        if len(self.names) == 1:
            values = [(value,) for value in values]
        lo, hi = self._split
        return (
            self._numeric([v[:lo] for v in values], INT),
            self._numeric([v[lo:hi] for v in values], FLOAT),
            self._codes([v[hi:] for v in values]),
        )

    def _numeric(self, rows: list[tuple], kind: int) -> np.ndarray:
        dtype = _BLOCK_DTYPES[kind]
        if not self.blocks[kind]:
            return np.empty((0, len(rows)), dtype=dtype)
        matrix = np.array(rows)
        exact = matrix.dtype == dtype and set(
            map(type, chain.from_iterable(rows))
        ) == {_BLOCK_TYPES[kind]}
        if not exact:
            # Some value is not a plain int/float: accept it only if numpy
            # types its own column as this block's dtype.
            for j, name in enumerate(self.blocks[kind]):
                values = [row[j] for row in rows]
                column = np.asarray(values)
                if column.dtype != dtype:
                    odd = next(v for v in values if type(v) is not _BLOCK_TYPES[kind])
                    raise TypeError(
                        f"knob {name!r}: value {odd!r} makes a {column.dtype} "
                        f"column; this plan fills {dtype}"
                    )
            matrix = np.array(rows, dtype=dtype)
        return np.ascontiguousarray(matrix.T)

    def _codes(self, rows: list[tuple]) -> np.ndarray:
        try:
            flat = self._lookup(rows)
        except (KeyError, TypeError):
            self._learn(rows)
            flat = self._lookup(rows)
        width = len(self.blocks[CATEGORICAL])
        return np.ascontiguousarray(flat.reshape(len(rows), width).T)

    def _lookup(self, rows: list[tuple]) -> np.ndarray:
        return np.fromiter(
            map(self._code_of.__getitem__, chain.from_iterable(rows)),
            dtype=np.intp,
            count=len(self.blocks[CATEGORICAL]) * len(rows),
        )

    def _learn(self, rows: list[tuple]) -> None:
        """Extend the vocabulary with the new strings in ``rows``."""
        fresh = []
        for j, name in enumerate(self.blocks[CATEGORICAL]):
            for row in rows:
                value = row[j]
                if not isinstance(value, str):
                    raise TypeError(
                        f"knob {name!r}: categorical value {value!r} is not a string"
                    )
                if value not in self._code_of:
                    fresh.append(value)
        self._set_vocabulary(self.vocabulary + tuple(dict.fromkeys(fresh)))

    def _set_vocabulary(self, vocabulary: tuple[str, ...]) -> None:
        self.vocabulary = vocabulary
        self._code_of = {value: code for code, value in enumerate(vocabulary)}
        self.on_table = np.array([value == "on" for value in vocabulary], dtype=bool)
        self.strings = np.empty(len(vocabulary), dtype=object)
        self.strings[:] = vocabulary
        self.unit_table = np.array(
            [texture.category_unit(value) for value in vocabulary], dtype=float
        )
        self._map_tables: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def map_table(self, mapping: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """``mapping`` over the vocabulary: ``(value per code, known per
        code)``, memoized on the mapping's contents."""
        key = tuple(mapping.items())
        table = self._map_tables.get(key)
        if table is None:
            vocabulary = self.vocabulary
            known = np.array([value in mapping for value in vocabulary], dtype=bool)
            values = np.array(
                [mapping.get(value, math.nan) for value in vocabulary], dtype=float
            )
            table = self._map_tables[key] = (values, known)
        return table
