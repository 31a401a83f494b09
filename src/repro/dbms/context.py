"""The evaluation context handed to the simulator component models.

:class:`BatchEvalContext` holds ``N`` configurations as knob columns, their
special-value resolutions, and per-row crash flags; component models
implement ``score_batch(ctx) -> np.ndarray`` against it.  It is the only
view: scalar :meth:`~repro.dbms.engine.PostgresSimulator.evaluate` is a
one-row call into the same batch pipeline, which is what makes batch
results bit-identical to N scalar calls by construction, and a one-row
context is how a single configuration is scored component by component.

Every context is filled through an :class:`~repro.dbms.plan.EvalPlan`,
which fixes the column layout and the lookup tables once per row layout.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.space.knob import KnobValue
from repro.space.postgres import PAGE_SIZE

if TYPE_CHECKING:
    from repro.dbms.plan import EvalPlan

KIB = 1024
MIB = 1024**2

#: Column blocks of a row layout: ``(block, index)`` slots in the plan
#: address a row of :attr:`BatchEvalContext.ints`, ``.floats`` or ``.codes``.
INT, FLOAT, CATEGORICAL = 0, 1, 2


def _once(method: Callable[["BatchEvalContext"], np.ndarray]):
    """Memoize a derived knob resolution for the context's lifetime."""
    name = method.__name__

    @functools.wraps(method)
    def resolved(self: "BatchEvalContext") -> np.ndarray:
        value = self._resolved.get(name)
        if value is None:
            value = self._resolved[name] = method(self)
        return value

    return resolved


class BatchEvalContext:
    """``N`` configuration evaluations at once: knob columns plus the fixed
    environment.

    Components read knob values through :meth:`get`, which returns the
    ``(N,)`` column for present knobs and the scalar default for knobs
    absent from a catalog version (the paper ports the same pipeline across
    versions, Section 6.3) — scalars broadcast through the vectorized
    formulas.  Categorical knobs are codes into the plan's vocabulary:
    :meth:`is_on` and :meth:`map_values` are table lookups.  Components
    record intermediate ``(N,)`` arrays in :attr:`notes`; the engine turns
    a subset of them into the internal DBMS metrics consumed by DDPG.

    Crashes are *flagged*, not raised: the memory model marks crashing rows
    via :meth:`flag_crashes` and the engine applies the caller's crash
    policy, so one bad row never aborts the whole matrix pass.
    """

    def __init__(
        self,
        plan: "EvalPlan",
        ints: np.ndarray,
        floats: np.ndarray,
        codes: np.ndarray,
    ):
        self.plan = plan
        self.workload = plan.workload
        self.hardware = plan.hardware
        self.version = plan.version
        self.n = codes.shape[1]
        self.ints = ints
        self.floats = floats
        self.codes = codes
        self.notes: dict[str, Any] = {}
        self.crashed = np.zeros(self.n, dtype=bool)
        self.crash_messages: dict[int, str] = {}
        self._numeric = (ints, floats)
        self._on = plan.on_table[codes]
        self._strings: np.ndarray | None = None
        self._resolved: dict[str, np.ndarray] = {}

    @classmethod
    def from_values(
        cls, rows: Sequence[Mapping[str, KnobValue]], plan: "EvalPlan"
    ) -> "BatchEvalContext":
        """Fill a context from ``rows`` laid out as ``plan`` prescribes.

        One pass builds the int64, float64 and categorical-code matrices
        (see :meth:`~repro.dbms.plan.EvalPlan.fill`); a value that numpy
        would type differently on its own column raises ``TypeError``.
        """
        return cls(plan, *plan.fill(rows))

    def get(self, name: str, default: KnobValue | None = None):
        """The knob's ``(N,)`` column, or the scalar default if absent.

        Categorical columns come back as object arrays of their strings.
        """
        slot = self.plan.slots.get(name)
        if slot is None:
            if default is None:
                raise KeyError(f"knob {name} absent and no default given")
            return default
        block, j = slot
        if block == CATEGORICAL:
            if self._strings is None:
                self._strings = self.plan.strings[self.codes]
            return self._strings[j]
        return self._numeric[block][j]

    def is_on(self, name: str, default: str = "on"):
        """Boolean ``(N,)`` mask (or scalar ``np.bool_`` for absent knobs,
        so ``~``/``&``/``|`` keep boolean semantics either way — a plain
        Python bool would turn ``~`` into integer complement)."""
        slot = self.plan.slots.get(name)
        if slot is None:
            return np.bool_(default == "on")
        block, j = slot
        if block != CATEGORICAL:
            return self.get(name) == "on"
        return self._on[j]

    def map_values(self, name: str, mapping: Mapping[str, float]) -> np.ndarray:
        """Look each categorical value up in ``mapping`` -> float column."""
        block, j = self.plan.slots[name]
        if block != CATEGORICAL:
            raise KeyError(f"knob {name} is not categorical")
        table, known = self.plan.map_table(mapping)
        codes = self.codes[j]
        if not known[codes].all():
            missing = codes[~known[codes]][0]
            raise KeyError(self.plan.vocabulary[missing])
        return table[codes]

    def flag_crashes(
        self, mask: np.ndarray, message: Callable[[int], str]
    ) -> None:
        """Mark rows as crashed; ``message(i)`` renders each new row's
        reason lazily (only crashing rows pay the formatting cost).
        Already-crashed rows keep their first recorded reason."""
        fresh = np.asarray(mask, dtype=bool) & ~self.crashed
        for i in np.flatnonzero(fresh):
            self.crash_messages[int(i)] = message(int(i))
        self.crashed |= fresh

    # --- derived knob resolutions (special-value semantics) ---------------
    # Each is computed once per context; several components read each.

    @_once
    def shared_buffers_bytes(self) -> np.ndarray:
        return self.get("shared_buffers") * PAGE_SIZE

    @_once
    def wal_buffers_bytes(self) -> np.ndarray:
        """Resolve ``wal_buffers``; -1 auto-sizes to 1/32 of shared_buffers,
        clamped to [64 kB, 16 MB] as the PostgreSQL docs specify."""
        raw = self.get("wal_buffers")
        auto = np.minimum(
            np.maximum(self.shared_buffers_bytes() // 32, 64 * KIB), 16 * MIB
        )
        return np.where(raw == -1, auto, raw * PAGE_SIZE)

    @_once
    def autovacuum_work_mem_bytes(self) -> np.ndarray:
        """Resolve ``autovacuum_work_mem``; -1 uses maintenance_work_mem."""
        raw = self.get("autovacuum_work_mem")
        return np.where(
            raw == -1, self.get("maintenance_work_mem") * KIB, raw * KIB
        )

    @_once
    def autovacuum_cost_delay_ms(self) -> np.ndarray:
        """Resolve ``autovacuum_vacuum_cost_delay``; -1 uses vacuum_cost_delay."""
        raw = self.get("autovacuum_vacuum_cost_delay")
        return np.where(raw == -1, self.get("vacuum_cost_delay"), raw).astype(
            float
        )

    @_once
    def autovacuum_cost_limit(self) -> np.ndarray:
        """Resolve ``autovacuum_vacuum_cost_limit``; -1 uses vacuum_cost_limit."""
        raw = self.get("autovacuum_vacuum_cost_limit")
        return np.where(raw == -1, self.get("vacuum_cost_limit"), raw).astype(
            float
        )
