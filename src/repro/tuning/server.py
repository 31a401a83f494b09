"""Tuning-as-a-service: an asyncio session server over the wave engine.

:class:`SessionServer` turns the repo's tuning stack into a long-lived
controller in the E2ETune mold: many tenants hold concurrent
:class:`~repro.tuning.session.TuningSession`\\ s open against one server,
drive them through ``suggest``/``observe`` coroutines, and the server
multiplexes every concurrently-pending ``suggest`` into one
**heterogeneous wave** suggestion step
(:func:`~repro.tuning.wave.suggest_wave`, the step every wave round
runs): all forest-backed tenants — regardless of spec — score in a
single ``predict_mean_var_stacked`` call plus one EI pass,
exactly as the offline wave scheduler does for same-host sweeps.

**Protocol.**  Sessions are keyed by ``(tenant_id, spec_token, seed)``
(:class:`SessionKey`).  Per key, at most one suggestion may be
outstanding: ``suggest`` → evaluate it however the tenant likes (the
server never runs the simulator for model rounds — evaluation is the
client's job, which is what makes this *service* shaped) → ``observe``
the outcome (a measured value, a crash, or retry exhaustion).  A
``suggest`` cancelled after its wave ran leaves its round outstanding
but undelivered: ``observe`` refuses it until the next ``suggest`` hands
it over.  The server drives scalar rounds (one configuration per
``suggest``), so sessions must be built with ``suggest_batch=1``.

**Determinism.**  The split-phase optimizer API guarantees
``suggest_prepare`` + stacked scoring + ``suggest_select`` is
byte-identical to the solo session's round — so a tenant that
evaluates its suggestions with its session's own simulator and noise
stream reproduces its solo ``run_spec`` trajectory *exactly*, no matter
how many other tenants' rounds were batched into the same waves or how
requests interleaved (``tests/test_server.py`` pins this).  Wall-clock
``suggest_seconds`` follows the attribution rule every driver uses —
metadata, outside the contract.

**Gather window.**  A ``suggest`` does not execute immediately: the
batcher sleeps ``gather_window`` seconds after the first pending request
so concurrent tenants' rounds coalesce into one wave (amortizing the
stacked model phase), then runs the batch on the event-loop thread.
``gather_window=0`` still batches whatever arrived in the same loop
tick.  Latency cost: at most one window per round; throughput gain:
fixed per-wave costs paid once per wave instead of once per tenant
(``benchmarks/bench_micro.py::test_session_server_traffic`` measures
requests/sec and p95 latency at 100 concurrent sessions).

**Tenancy.**  With ``checkpoint_root`` set, every tenant's checkpoints
land under ``<root>/<tenant_id>/`` — combined with the spec-fingerprint
file naming and checkpoint header this makes cross-tenant checkpoint
collisions structurally impossible (the PR 9 collision bugfix).
Quarantines propagate loudly: an ``observe(exhausted=True)`` quarantines
the session, subsequent ``suggest`` calls raise
:class:`~repro.tuning.session.QuarantinedSessionError`, and
:meth:`SessionServer.quarantined` reports every quarantined key.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import re
from dataclasses import dataclass
from typing import Mapping

from repro.tuning.faults import EXHAUSTED
from repro.tuning.session import (
    QuarantinedSessionError,
    TuningResult,
    TuningSession,
)
from repro.tuning.wave import suggest_wave

#: Tenant ids become checkpoint directory names; keep them path-safe.
_TENANT_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


class ServerProtocolError(RuntimeError):
    """A client broke the suggest/observe protocol (double suggest,
    observe without an outstanding suggestion, unknown session key, or
    driving a finished session)."""


@dataclass(frozen=True, order=True)
class SessionKey:
    """Identity of one tenant session: ``(tenant_id, spec_token, seed)``.

    ``spec_token`` is the spec's 32-bit trajectory digest
    (``SessionSpec.spec_token()``) — sufficient as a *key* because
    :meth:`SessionServer.open` refuses duplicate keys loudly, while
    checkpoint files are protected against token collisions by the
    64-bit spec fingerprint in their names and headers.
    """

    tenant_id: str
    spec_token: int
    seed: int


@dataclass(frozen=True)
class ExternalMeasurement:
    """A tenant-reported measurement (duck-types
    :class:`~repro.dbms.engine.Measurement` for the session's feedback
    path): the objective value is whatever the tenant measured —
    req/s for throughput tuning, milliseconds for latency tuning."""

    objective_value: float
    throughput: float | None = None
    p95_latency_ms: float | None = None
    metrics: Mapping[str, float] | None = None

    def value(self, objective: str) -> float:
        return self.objective_value


@dataclass(frozen=True)
class SessionStatus:
    """Point-in-time view of one session (``status`` coroutine)."""

    key: SessionKey
    state: str
    iteration: int
    n_iterations: int
    best_value: float | None
    stopped_at: int | None
    quarantined_at: int | None
    pending: bool  # an unobserved suggestion is outstanding
    #: Quarantine attribution (None unless quarantined): which row of the
    #: quarantining round exhausted its retries, and the fingerprint of
    #: the configuration it was evaluating.
    quarantined_row: int | None = None
    quarantined_fingerprint: str | None = None


@dataclass
class _PendingSuggest:
    """One outstanding suggestion awaiting its ``observe``, with the
    session's :meth:`~repro.tuning.session.TuningSession.checkpoint_state`
    from before the wave that prepared it (``None`` for sessions without
    a checkpoint path) — what a checkpoint taken before the ``observe``
    writes.  ``delivered`` turns True once a ``suggest`` has returned it
    to the tenant."""

    opt_config: object
    target_config: object
    suggest_seconds: float
    checkpoint_state: dict | None = None
    delivered: bool = False


@dataclass
class _Entry:
    """One open session plus its protocol state."""

    key: SessionKey
    spec: object
    session: TuningSession
    pending: _PendingSuggest | None = None
    waiter: asyncio.Future | None = None


@dataclass
class _SuggestRequest:
    entry: _Entry
    future: asyncio.Future


class SessionServer:
    """Asyncio front end multiplexing tenant sessions over heterogeneous
    waves (see the module docstring).

    Args:
        checkpoint_root: Per-tenant checkpoint namespace — each opened
            spec's ``checkpoint_dir`` is rewritten to
            ``<root>/<tenant_id>``.  ``None`` keeps each spec's own
            ``checkpoint_dir`` (or none).
        gather_window: Seconds the batcher waits after the first pending
            ``suggest`` before running the wave, so concurrent requests
            coalesce.
        wave_threads: The threads a wave runs on; only 1 (the event
            loop's) is accepted.

    Use as an async context manager, or call :meth:`start` /
    :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        checkpoint_root: str | pathlib.Path | None = None,
        gather_window: float = 0.001,
        wave_threads: int = 1,
    ):
        if gather_window < 0:
            raise ValueError("gather_window must be >= 0")
        if wave_threads != 1:
            raise ValueError(
                "wave_threads must be 1: waves run on the event-loop thread"
            )
        self._checkpoint_root = (
            pathlib.Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self._gather_window = float(gather_window)
        self._entries: dict[SessionKey, _Entry] = {}
        self._queue: asyncio.Queue[_SuggestRequest] | None = None
        self._batcher: asyncio.Task | None = None

    # --- lifecycle -----------------------------------------------------------

    async def start(self) -> "SessionServer":
        """Bind to the running event loop and start the wave batcher."""
        if self._batcher is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._batcher = asyncio.get_running_loop().create_task(
            self._batch_loop(), name="session-server-batcher"
        )
        return self

    async def shutdown(self, checkpoint: bool = True) -> None:
        """Close every open session (checkpointing by default — the
        server-side half of checkpoint-on-disconnect) and stop the
        batcher."""
        for key in list(self._entries):
            await self.close(key, checkpoint=checkpoint)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
            self._queue = None

    async def __aenter__(self) -> "SessionServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    # --- session management --------------------------------------------------

    async def open(self, tenant_id: str, spec, seed: int) -> SessionKey:
        """Open (build, and start or resume) one tenant session.

        ``spec`` is a :class:`~repro.tuning.runner.SessionSpec`.  With a
        ``checkpoint_root``, the spec's ``checkpoint_dir`` is rewritten
        to the tenant's namespace before building, so tenants can never
        share checkpoint files; a spec with ``resume=True`` restores its
        namespaced snapshot (refusing quarantined ones unless the spec
        sets ``force_resume`` —
        :class:`~repro.tuning.session.QuarantinedSessionError` propagates
        to the caller).  Sessions must use ``suggest_batch=1`` (the
        server's protocol is one configuration per ``suggest``).
        Duplicate keys are refused loudly.
        """
        if not _TENANT_ID.match(tenant_id):
            raise ValueError(
                f"tenant_id {tenant_id!r} is not a path-safe identifier"
            )
        if getattr(spec, "suggest_batch", 1) != 1:
            raise ValueError(
                "the session server drives scalar rounds; build the spec "
                "with suggest_batch=1"
            )
        if self._checkpoint_root is not None:
            spec = dataclasses.replace(
                spec,
                checkpoint_dir=str(self._checkpoint_root / tenant_id),
            )
        key = SessionKey(tenant_id, spec.spec_token(), int(seed))
        if key in self._entries:
            raise ServerProtocolError(f"session {key} is already open")
        session = spec.build(seed)
        if session.checkpoint_path is not None and not getattr(
            session.optimizer, "checkpointable", True
        ):
            # close() and checkpoint() would fail on it, and the entry
            # could then never be closed.
            raise ValueError(
                f"{type(session.optimizer).__name__} is not checkpointable; "
                "open it on a server without checkpoint_root (and a spec "
                "without checkpoint_dir)"
            )
        if session.state == "new":
            session.start()
        self._entries[key] = _Entry(key, spec, session)
        return key

    async def close(
        self, key: SessionKey, checkpoint: bool = True
    ) -> TuningResult:
        """Disconnect one session and return its result-so-far.

        By default the session is checkpointed on the way out (when its
        spec configured a checkpoint path) — *checkpoint-on-disconnect*:
        a tenant that drops mid-run reconnects later with ``resume=True``
        and continues byte-identically.  A suggestion still in flight is
        cancelled.  An unobserved one is dropped: preparing it already
        advanced the optimizer (SMAC's forest-seed and candidate draws,
        its interleave counter, GP-BO's fit), so the checkpoint holds
        the state from before the wave that prepared it — the cursor
        sits at the last completed round, and resuming replays the round
        identically."""
        entry = self._entry(key)
        if entry.waiter is not None and not entry.waiter.done():
            entry.waiter.cancel()
        session = entry.session
        if checkpoint and session.checkpoint_path is not None:
            self._checkpoint(entry)
        del self._entries[key]
        if session.state == "running" and not session.live:
            return session.finish()
        return session.result()

    def session(self, key: SessionKey) -> TuningSession:
        """The underlying session object.  For *in-process* drivers (the
        ``serve`` CLI's demo clients, tests, benches) that evaluate
        suggestions with the session's own simulator and noise stream to
        reproduce solo trajectories exactly; remote tenants never need
        it."""
        return self._entry(key).session

    # --- the four service coroutines -----------------------------------------

    async def suggest(self, key: SessionKey):
        """Next configuration for this session (target-space), batched
        into a heterogeneous wave with every other tenant's concurrent
        request.  A suggestion whose ``suggest`` was cancelled after its
        wave ran is returned by the next ``suggest`` at once, without a
        second prepare.  Raises
        :class:`~repro.tuning.session.QuarantinedSessionError` for
        quarantined sessions and :class:`ServerProtocolError` for
        double-suggests or exhausted budgets."""
        entry = self._entry(key)
        session = entry.session
        if session.quarantined_at is not None:
            raise QuarantinedSessionError(session.quarantined_at)
        pending = entry.pending
        if entry.waiter is not None or (
            pending is not None and pending.delivered
        ):
            raise ServerProtocolError(
                f"session {key} already has an outstanding suggestion"
            )
        if pending is not None:
            pending.delivered = True
            return pending.target_config
        if not session.live:
            raise ServerProtocolError(
                f"session {key} is finished "
                f"(state={session.state!r}, iteration={session.iteration})"
            )
        if self._queue is None:
            raise RuntimeError("server is not started")
        future = asyncio.get_running_loop().create_future()
        entry.waiter = future
        self._queue.put_nowait(_SuggestRequest(entry, future))
        try:
            pending = await future
        finally:
            entry.waiter = None
        pending.delivered = True
        return pending.target_config

    async def observe(
        self,
        key: SessionKey,
        value: float | None = None,
        *,
        measurement=None,
        crashed: bool = False,
        exhausted: bool = False,
        throughput: float | None = None,
        p95_latency_ms: float | None = None,
        metrics: Mapping[str, float] | None = None,
    ) -> SessionStatus:
        """Feed the outstanding suggestion's outcome back.

        Exactly one of three shapes: a measured ``value`` (optionally
        with ``throughput``/``p95_latency_ms``/``metrics``, or a full
        ``measurement`` object), ``crashed=True`` (the paper's
        ¼-of-worst penalty applies), or ``exhausted=True`` (the tenant's
        retry budget ran out — the session is *quarantined*: no
        observation is recorded and further ``suggest`` calls refuse).
        Returns the post-observe :class:`SessionStatus` so callers see
        early stops and quarantines immediately.  Raises
        :class:`ServerProtocolError` when no suggestion was delivered."""
        entry = self._entry(key)
        pending = entry.pending
        if pending is None:
            raise ServerProtocolError(
                f"session {key} has no outstanding suggestion to observe"
            )
        if not pending.delivered:
            raise ServerProtocolError(
                f"session {key}'s outstanding suggestion was never "
                "delivered; call suggest to receive it before observing"
            )
        if exhausted:
            outcome = EXHAUSTED
        elif crashed:
            outcome = None
        elif measurement is not None:
            outcome = measurement
        elif value is not None:
            outcome = ExternalMeasurement(
                float(value),
                throughput=throughput,
                p95_latency_ms=p95_latency_ms,
                metrics=metrics,
            )
        else:
            raise ServerProtocolError(
                "observe needs a value, a measurement, crashed=True, or "
                "exhausted=True"
            )
        entry.pending = None
        session = entry.session
        session._feed_outcomes(
            [pending.opt_config],
            [pending.target_config],
            [outcome],
            pending.suggest_seconds,
        )
        if session.state == "running" and not session.live:
            session.finish()
        return self._status(entry)

    async def checkpoint(self, key: SessionKey) -> pathlib.Path:
        """Snapshot one session now (its spec must configure a
        checkpoint path).  With a suggestion outstanding, the snapshot is
        the one from before its wave, as in :meth:`close`."""
        return self._checkpoint(self._entry(key))

    async def status(
        self, key: SessionKey | None = None
    ) -> SessionStatus | list[SessionStatus]:
        """One session's status, or every open session's (sorted by
        key) when ``key`` is ``None``."""
        if key is not None:
            return self._status(self._entry(key))
        return [
            self._status(self._entries[k]) for k in sorted(self._entries)
        ]

    def quarantined(self) -> list[SessionStatus]:
        """Every open session that has been quarantined — the server's
        quarantine report (synchronous: it only reads)."""
        return [
            self._status(entry)
            for key, entry in sorted(self._entries.items())
            if entry.session.quarantined_at is not None
        ]

    # --- internals -----------------------------------------------------------

    def _entry(self, key: SessionKey) -> _Entry:
        entry = self._entries.get(key)
        if entry is None:
            raise ServerProtocolError(f"unknown session {key}")
        return entry

    def _checkpoint(self, entry: _Entry) -> pathlib.Path:
        pending = entry.pending
        return entry.session.checkpoint(
            state=pending.checkpoint_state if pending is not None else None
        )

    def _status(self, entry: _Entry) -> SessionStatus:
        session = entry.session
        kb = session._kb
        best = (
            kb.best_value() if kb is not None and len(kb) > 0 else None
        )
        return SessionStatus(
            key=entry.key,
            state=session.state,
            iteration=session.iteration,
            n_iterations=session.n_iterations,
            best_value=best,
            stopped_at=session.stopped_at,
            quarantined_at=session.quarantined_at,
            pending=entry.pending is not None,
            quarantined_row=session.quarantined_row,
            quarantined_fingerprint=session.quarantined_fingerprint,
        )

    async def _batch_loop(self) -> None:
        """Gather concurrently-pending suggests into heterogeneous waves:
        block on the first request, sleep one gather window so the rest
        of a burst arrives, then run everything queued.  The wave runs
        synchronously on the event loop, so nothing can be queued between
        the drain and the next ``get``."""
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            if self._gather_window > 0:
                await asyncio.sleep(self._gather_window)
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                self._run_wave(batch)
            except BaseException as exc:
                # Cleanup-and-propagate: the waiters must not hang on a
                # batcher crash, and the crash itself must stay loud.
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(
                            RuntimeError(f"suggest wave failed: {exc!r}")
                        )
                raise

    def _run_wave(self, batch: list[_SuggestRequest]) -> None:
        """One heterogeneous wave over the batch: the wave engine's
        suggestion step (:func:`~repro.tuning.wave.suggest_wave` —
        per-session prepare, one stacked model phase across all
        tenants/specs, adapter conversion), then resolve every waiting
        future."""
        requests = [
            request for request in batch
            if not request.future.done()  # cancelled by close() while queued
        ]
        if not requests:
            return
        sessions = [request.entry.session for request in requests]
        # Sessions that can be checkpointed keep their state from before
        # this wave's prepares, for a checkpoint taken while the round is
        # outstanding (see close()).
        states = [
            session.checkpoint_state()
            if session.checkpoint_path is not None
            else None
            for session in sessions
        ]
        rounds = suggest_wave(sessions)
        for request, round_, state in zip(requests, rounds, states):
            request.entry.pending = _PendingSuggest(
                round_.configs[0], round_.targets[0], round_.suggest_seconds,
                state,
            )
            request.future.set_result(request.entry.pending)
