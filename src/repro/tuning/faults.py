"""Evaluation fault envelope: bounded retries, backoff, timeout budgets.

The paper's protocol models exactly one failure mode — a startup crash,
penalized at ¼ of worst-seen (Section 6.1).  Real evaluation pipelines
fail in more ways: transient connection errors, hung benchmark runs,
corrupted measurements.  :class:`FaultEnvelope` wraps the simulator's
evaluation calls with a :class:`FaultPolicy` — bounded retries with
deterministic exponential backoff and a per-evaluation timeout budget —
so those failures cost retries instead of poisoning the trajectory:

* :class:`~repro.dbms.errors.TransientEvalError` (and its subclass
  :class:`~repro.dbms.errors.EvalTimeoutError`) → retry after backoff;
* an attempt whose wall-clock (by the envelope's clock) exceeds the
  policy's ``timeout_seconds`` → discarded and retried;
* a measurement carrying NaN/inf values → discarded and retried;
* a crashed row (``None`` from the batch entry point, whose one-row
  form raises :class:`~repro.dbms.errors.DbmsCrashError`) → **no**
  retry: the configuration caused it, the paper's penalty applies
  (``None``);
* retries exhausted → the :data:`EXHAUSTED` sentinel: the session
  quarantines itself (see ``TuningSession._feed_outcomes``) without
  recording an observation, because the *configuration* is innocent.

There is one failure path: a batch is its rows in order, and each row is
one retry loop whose every attempt is a one-row
``simulator.evaluate_batch`` call.  The live backend's transport backs off
between connection attempts with the same :class:`FaultPolicy`.

Time is injected: the default :class:`MonotonicClock` wraps
``time.monotonic``/``time.sleep``, while tests and the fault-injection
harness share a :class:`VirtualClock` whose ``sleep`` merely advances a
counter — backoff schedules and simulated hangs are then deterministic
and free, and a run's fault handling is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dbms.engine import Measurement, PostgresSimulator
from repro.dbms.errors import DbmsError, TransientEvalError
from repro.space.configspace import config_fingerprint


class MonotonicClock:
    """Wall-clock time source (the production default)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock:
    """Deterministic clock: ``sleep`` advances time instead of waiting.

    Shared between the fault injector (which "hangs" by sleeping) and the
    envelope (which measures attempt durations and backs off), so timeout
    detection and backoff schedules are exact and instantaneous.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self._now += float(seconds)


class _Exhausted:
    """Singleton sentinel: an evaluation used up its retry budget."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EXHAUSTED"


#: Returned by the envelope when retries are exhausted.  Distinct from
#: ``None`` (= crash, penalized): an exhausted evaluation records nothing
#: and quarantines the session instead.
EXHAUSTED = _Exhausted()


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/backoff/timeout budget for one evaluation.

    Args:
        max_retries: Retries after the first attempt (so an evaluation
            runs at most ``1 + max_retries`` times).
        backoff_base: Delay before the first retry, in clock seconds.
        backoff_factor: Multiplier per subsequent retry.
        backoff_max: Delay ceiling.
        timeout_seconds: Per-attempt wall-clock budget; an attempt that
            overruns it is discarded and counts as a transient failure.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be > 0")

    def backoff_delay(self, failures: int) -> float:
        """Delay before the retry following the ``failures``-th failure."""
        if failures < 1:
            raise ValueError("failures must be >= 1")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failures - 1),
        )


def _corrupted(measurement: Measurement) -> bool:
    return not (
        math.isfinite(measurement.throughput)
        and math.isfinite(measurement.p95_latency_ms)
    )


@dataclass
class FaultEnvelope:
    """Retrying wrapper around a simulator's evaluation calls.

    One envelope serves one session: its counters describe that session's
    fault history, and its clock is shared with the session's fault
    injector (if any) so simulated hangs land on the same timeline the
    timeout budget measures.
    """

    policy: FaultPolicy
    clock: MonotonicClock | VirtualClock | None = None
    transient_retries: int = 0
    timeout_retries: int = 0
    corrupt_retries: int = 0
    exhausted_evaluations: int = 0

    def __post_init__(self) -> None:
        if self.clock is None:
            self.clock = MonotonicClock()

    def evaluate(
        self,
        simulator: PostgresSimulator,
        config,
        rng: np.random.Generator | None = None,
    ):
        """One evaluation under the policy: each attempt is a one-row
        ``simulator.evaluate_batch`` call, so a subclass's own batch
        entry point (a bulk-RPC driver) is honored as well as its
        ``evaluate``.

        Returns the :class:`Measurement`, ``None`` for a configuration
        crash (no retry — the penalty applies), or :data:`EXHAUSTED` when
        ``max_retries`` transient failures used up the budget.  Every
        attempt consumes the simulator's noise stream exactly as an
        unwrapped call would, so a fault-free run is byte-identical to
        running without the envelope.
        """
        failures = 0
        while True:
            started = self.clock.now()
            try:
                (measurement,) = simulator.evaluate_batch([config], rng=rng)
            except TransientEvalError:
                failures += 1
                self.transient_retries += 1
            else:
                if measurement is None:
                    return None
                if self.clock.now() - started > self.policy.timeout_seconds:
                    failures += 1
                    self.timeout_retries += 1
                elif _corrupted(measurement):
                    failures += 1
                    self.corrupt_retries += 1
                else:
                    return measurement
            if failures > self.policy.max_retries:
                self.exhausted_evaluations += 1
                return EXHAUSTED
            self.clock.sleep(self.policy.backoff_delay(failures))

    def evaluate_batch(
        self,
        simulator: PostgresSimulator,
        configs: Sequence,
        rng: np.random.Generator | None = None,
    ) -> list:
        """A batch under the policy: :meth:`evaluate` for each row in
        order, each row with its own retry budget (batch == N scalar
        calls, so a fault-free batch matches the simulator's own pass).
        Outcomes are ``Measurement | None | EXHAUSTED`` per row;
        evaluation stops at the first exhausted row (the session
        quarantines there).
        """
        outcomes: list = []
        for row, config in enumerate(configs):
            try:
                outcome = self.evaluate(simulator, config, rng=rng)
            except DbmsError as exc:
                # Anything the envelope does not absorb (e.g. a replay
                # trace miss) escapes stamped with the row that raised it.
                exc.row_index = row
                exc.config_fingerprint = config_fingerprint(config)
                raise
            outcomes.append(outcome)
            if outcome is EXHAUSTED:
                break
        return outcomes
