"""Deterministic fault injection for the simulated evaluation pipeline.

:class:`FaultInjectingSimulator` subclasses the stock simulator and, with
probability ``fault_rate`` per evaluation, injects one of four failure
modes drawn from a :class:`FaultProfile`:

* ``transient`` — raise :class:`~repro.dbms.errors.TransientEvalError`
  before the evaluation runs (no noise consumed);
* ``hang`` — advance the shared clock by ``hang_seconds`` before a normal
  evaluation, so the fault envelope's timeout budget trips;
* ``flaky_crash`` — raise :class:`~repro.dbms.errors.DbmsCrashError`
  before the evaluation runs, mirroring a stock crash exactly (crashing
  rows never draw noise);
* ``corrupt`` — run the evaluation normally, then replace the measured
  throughput/latency with NaN.

**Fault-stream independence.**  Fault decisions come from a *dedicated*
PCG64 seeded by ``(spec_token, session_seed, fault_seed)``, never from
the evaluation-noise or optimizer streams.  With ``fault_rate = 0`` the fault
stream is never even consulted, and because both batch entry points honor
the subclassed ``evaluate`` row by row (batch == N scalar calls,
bit-identical), a zero-rate run replays the stock pinned trajectories
byte-for-byte.  With ``fault_rate > 0`` every fault lands at the same
evaluations for the same key, so faulty runs are exactly reproducible per
``(spec, seed, fault_seed)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.dbms.engine import Measurement, PostgresSimulator
from repro.dbms.errors import DbmsCrashError, TransientEvalError
from repro.dbms.hardware import C220G5, Hardware
from repro.dbms.versions import V96, PostgresVersion
from repro.tuning.faults import MonotonicClock, VirtualClock
from repro.workloads.base import Workload


@dataclass(frozen=True)
class FaultProfile:
    """Relative weights of the injected failure modes."""

    transient: float = 0.4
    hang: float = 0.2
    flaky_crash: float = 0.2
    corrupt: float = 0.2

    def __post_init__(self) -> None:
        weights = (self.transient, self.hang, self.flaky_crash, self.corrupt)
        if any(w < 0 for w in weights):
            raise ValueError("fault weights must be >= 0")
        if sum(weights) <= 0:
            raise ValueError("at least one fault weight must be positive")

    def kinds_and_cumulative(self) -> tuple[tuple[str, ...], np.ndarray]:
        weights = np.array(
            [self.transient, self.hang, self.flaky_crash, self.corrupt],
            dtype=float,
        )
        return (
            ("transient", "hang", "flaky_crash", "corrupt"),
            np.cumsum(weights / weights.sum()),
        )


class FaultInjectingSimulator(PostgresSimulator):
    """Stock simulator plus a deterministic fault schedule.

    Args:
        workload: As for :class:`PostgresSimulator`.
        version / hardware / noise_std / target_rate: Passed through.
        fault_rate: Per-evaluation fault probability in ``[0, 1]``; zero
            disables injection entirely (the fault stream stays untouched).
        fault_seed: The reproducibility key's third component; two runs of
            the same spec and seed with the same ``fault_seed`` see
            identical fault schedules.
        session_seed: The session's seed (the key's second component).
        spec_token: Stable hash of the session spec (the key's first
            component; see ``SessionSpec.spec_token``).
        profile: Relative weights of the four failure modes.
        clock: Time source that ``hang`` advances; share it with the fault
            envelope so simulated hangs trip the timeout budget.  Defaults
            to a fresh :class:`VirtualClock`.
        hang_seconds: How far a ``hang`` advances the clock.
    """

    def __init__(
        self,
        workload: Workload,
        version: PostgresVersion = V96,
        hardware: Hardware = C220G5,
        noise_std: float = 0.02,
        target_rate: float | None = None,
        fault_rate: float = 0.0,
        fault_seed: int = 0,
        session_seed: int = 0,
        spec_token: int = 0,
        profile: FaultProfile | None = None,
        clock: MonotonicClock | VirtualClock | None = None,
        hang_seconds: float = 120.0,
    ):
        super().__init__(
            workload,
            version=version,
            hardware=hardware,
            noise_std=noise_std,
            target_rate=target_rate,
        )
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        self.fault_rate = float(fault_rate)
        self.fault_seed = int(fault_seed)
        self.session_seed = int(session_seed)
        self.spec_token = int(spec_token)
        self.profile = profile if profile is not None else FaultProfile()
        self.clock = clock if clock is not None else VirtualClock()
        self.hang_seconds = float(hang_seconds)
        self.fault_rng = np.random.default_rng(
            [self.spec_token & 0xFFFFFFFF, self.session_seed, self.fault_seed]
        )
        self._kinds, self._cumulative = self.profile.kinds_and_cumulative()
        self.injected: dict[str, int] = {kind: 0 for kind in self._kinds}

    def _draw_fault(self) -> str | None:
        """The next scheduled fault kind, or None for a clean evaluation.

        Consumes one uniform per evaluation plus one more per fault, all
        from the dedicated stream; ``fault_rate <= 0`` consumes nothing.
        """
        if self.fault_rate <= 0.0:
            return None
        if self.fault_rng.random() >= self.fault_rate:
            return None
        u = self.fault_rng.random()
        index = int(np.searchsorted(self._cumulative, u, side="right"))
        return self._kinds[min(index, len(self._kinds) - 1)]

    def default_measurement(self) -> Measurement:
        """Session-start bookkeeping (the worst-seen seeding), never
        injected: it is not a tuning evaluation, and faulting it would
        poison the crash penalty's reference.  The fault stream is not
        consulted either, so the schedule over actual evaluations is
        unchanged."""
        rate = self.fault_rate
        self.fault_rate = 0.0
        try:
            return super().default_measurement()
        finally:
            self.fault_rate = rate

    def evaluate(
        self, config, rng: np.random.Generator | None = None
    ) -> Measurement:
        kind = self._draw_fault()
        if kind == "transient":
            self.injected[kind] += 1
            raise TransientEvalError("injected transient evaluation failure")
        if kind == "flaky_crash":
            # Raised before the evaluation runs: like a stock crash, a
            # flaky one draws no measurement noise.
            self.injected[kind] += 1
            raise DbmsCrashError("injected flaky crash")
        if kind == "hang":
            self.injected[kind] += 1
            self.clock.sleep(self.hang_seconds)
        measurement = super().evaluate(config, rng=rng)
        if kind == "corrupt":
            self.injected[kind] += 1
            measurement = dataclasses.replace(
                measurement,
                throughput=float("nan"),
                p95_latency_ms=float("nan"),
            )
        return measurement
