"""The evaluation context handed to the simulator component models.

:class:`BatchEvalContext` holds ``N`` configurations as columnar knob
arrays, their vectorized special-value resolutions, and per-row crash
flags; component models implement ``score_batch(ctx) -> np.ndarray``
against it.  It is the only view: scalar
:meth:`~repro.dbms.engine.PostgresSimulator.evaluate` is a one-row call
into the same batch pipeline, which is what makes batch results
bit-identical to N scalar calls by construction, and a one-row context is
how a single configuration is scored component by component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.dbms.hardware import Hardware
from repro.dbms.versions import PostgresVersion
from repro.space.knob import KnobValue
from repro.space.postgres import PAGE_SIZE
from repro.workloads.base import Workload

KIB = 1024
MIB = 1024**2


@dataclass
class BatchEvalContext:
    """``N`` configuration evaluations at once: columnar knobs plus the
    fixed environment.

    Components read knob values through :meth:`get`, which returns the
    ``(N,)`` column for present knobs and the scalar default for knobs
    absent from a catalog version (the paper ports the same pipeline across
    versions, Section 6.3) — scalars broadcast through the vectorized
    formulas.  Components record intermediate ``(N,)`` arrays in
    :attr:`notes`; the engine turns a subset of them into the internal DBMS
    metrics consumed by DDPG.

    Crashes are *flagged*, not raised: the memory model marks crashing rows
    via :meth:`flag_crashes` and the engine applies the caller's crash
    policy, so one bad row never aborts the whole matrix pass.
    """

    columns: dict[str, np.ndarray]
    workload: Workload
    hardware: Hardware
    version: PostgresVersion
    n: int
    notes: dict[str, Any] = field(default_factory=dict)
    crashed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    crash_messages: dict[int, str] = field(default_factory=dict)

    @classmethod
    def from_values(
        cls,
        rows: Sequence[Mapping[str, KnobValue]],
        workload: Workload,
        hardware: Hardware,
        version: PostgresVersion,
    ) -> "BatchEvalContext":
        """Gather N row mappings into columnar arrays.

        Column order follows the first row's iteration order (the space's
        knob order for configurations), which the texture component relies
        on for its deterministic per-knob accumulation.  Knob columns are
        homogeneously typed (a knob's values share one Python type), so
        numeric columns become int64/float64 arrays and categorical columns
        object arrays.
        """
        n = len(rows)
        columns: dict[str, np.ndarray] = {}
        if n:
            first = rows[0]
            for name in first:
                values = [row[name] for row in rows]
                if isinstance(values[0], str):
                    columns[name] = np.array(values, dtype=object)
                else:
                    columns[name] = np.asarray(values)
        return cls(
            columns=columns,
            workload=workload,
            hardware=hardware,
            version=version,
            n=n,
            crashed=np.zeros(n, dtype=bool),
        )

    def get(self, name: str, default: KnobValue | None = None):
        """The knob's ``(N,)`` column, or the scalar default if absent."""
        column = self.columns.get(name)
        if column is not None:
            return column
        if default is None:
            raise KeyError(f"knob {name} absent and no default given")
        return default

    def is_on(self, name: str, default: str = "on"):
        """Boolean ``(N,)`` mask (or scalar ``np.bool_`` for absent knobs,
        so ``~``/``&``/``|`` keep boolean semantics either way — a plain
        Python bool would turn ``~`` into integer complement)."""
        column = self.columns.get(name)
        if column is None:
            return np.bool_(default == "on")
        return column == "on"

    def map_values(self, name: str, mapping: Mapping[str, float]) -> np.ndarray:
        """Look each categorical value up in ``mapping`` -> float column."""
        return np.array([mapping[str(v)] for v in self.columns[name]])

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

    def shared_buffers_bytes(self) -> np.ndarray:
        return self.get("shared_buffers") * PAGE_SIZE

    def wal_buffers_bytes(self) -> np.ndarray:
        """Resolve ``wal_buffers``; -1 auto-sizes to 1/32 of shared_buffers,
        clamped to [64 kB, 16 MB] as the PostgreSQL docs specify."""
        raw = self.get("wal_buffers")
        auto = np.minimum(
            np.maximum(self.shared_buffers_bytes() // 32, 64 * KIB), 16 * MIB
        )
        return np.where(raw == -1, auto, raw * PAGE_SIZE)

    def autovacuum_work_mem_bytes(self) -> np.ndarray:
        """Resolve ``autovacuum_work_mem``; -1 uses maintenance_work_mem."""
        raw = self.get("autovacuum_work_mem")
        return np.where(
            raw == -1, self.get("maintenance_work_mem") * KIB, raw * KIB
        )

    def autovacuum_cost_delay_ms(self) -> np.ndarray:
        """Resolve ``autovacuum_vacuum_cost_delay``; -1 uses vacuum_cost_delay."""
        raw = self.get("autovacuum_vacuum_cost_delay")
        return np.where(raw == -1, self.get("vacuum_cost_delay"), raw).astype(
            float
        )

    def autovacuum_cost_limit(self) -> np.ndarray:
        """Resolve ``autovacuum_vacuum_cost_limit``; -1 uses vacuum_cost_limit."""
        raw = self.get("autovacuum_vacuum_cost_limit")
        return np.where(raw == -1, self.get("vacuum_cost_limit"), raw).astype(
            float
        )
