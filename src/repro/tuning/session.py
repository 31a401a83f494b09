"""The tuning session: the paper's iterative loop of Figure 1.

Per iteration: the optimizer suggests a configuration in its (possibly
synthetic) space, the adapter converts it to a DBMS configuration, the
simulated controller runs the workload and feeds the result back.  Crashing
configurations receive one fourth of the worst performance observed so far
(initially the default configuration's), exactly as in Section 6.1.

**State machine.**  A session moves through three explicit states:

* ``"new"`` — constructed, nothing evaluated; :meth:`start` measures the
  default configuration and opens the knowledge base, and
  :meth:`load_checkpoint` instead restores a mid-run snapshot;
* ``"running"`` — the iteration cursor, knowledge base, worst-seen
  reference, early-stop state, and both PCG64 streams (session noise and
  optimizer) advance together; :meth:`checkpoint` can serialize all of it
  at any round boundary;
* ``"done"`` — the budget ran out, early stopping fired, or the session
  was *quarantined* (an evaluation exhausted its fault-envelope retries).

:meth:`run` drives ``new → running → done`` as a one-member wave of
:func:`repro.tuning.wave.drive` — the one round loop the wave scheduler
and the session server share; :meth:`resume` is
``load_checkpoint`` + ``run`` and continues **byte-identically** to the
uninterrupted trajectory — same values, same crash rows, same stream
positions — because a checkpoint captures every mutable input of the loop
and checkpoints are only written at round boundaries (between batches,
never inside one, since a batch's noise is drawn up front).

**Fault handling.**  With a :class:`~repro.tuning.faults.FaultPolicy`,
evaluations run under a :class:`~repro.tuning.faults.FaultEnvelope`:
transient errors, hangs, and corrupted measurements cost bounded retries;
crashes still take the paper's penalty; and an evaluation that exhausts
its retries *quarantines* the session — no observation is recorded (the
configuration is innocent; recording a penalty would poison the
surrogate) and the session ends at the current cursor, exactly like
early-stop dropout from the wave scheduler's perspective.
"""

from __future__ import annotations

import math
import pathlib
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.core.pipeline import IdentityAdapter, SearchSpaceAdapter
from repro.dbms.engine import PostgresSimulator
from repro.dbms.errors import DbmsError
from repro.space.configspace import config_fingerprint
from repro.optimizers.base import Optimizer
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.faults import EXHAUSTED, FaultEnvelope, FaultPolicy
from repro.tuning.knowledge_base import KnowledgeBase, Observation


class QuarantinedSessionError(RuntimeError):
    """Raised when loading/resuming a checkpoint whose session was
    quarantined (an evaluation exhausted its fault-envelope retries).

    Resuming such a snapshot as if healthy would re-enter the loop at the
    quarantine cursor and keep evaluating against the environment that
    just exhausted its retries — so :meth:`TuningSession.load_checkpoint`
    refuses by default and callers must opt in with
    ``force_quarantined=True`` (``--force-resume`` on the CLIs) to clear
    the marker and retry the envelope.
    """

    def __init__(self, quarantined_at: int, path=None):
        self.quarantined_at = int(quarantined_at)
        self.path = path
        where = f" ({path})" if path is not None else ""
        super().__init__(
            f"checkpoint{where} is quarantined at iteration "
            f"{self.quarantined_at}; resuming would retry the evaluation "
            "environment that exhausted its fault-envelope retries — pass "
            "force_quarantined=True (--force-resume) to do that explicitly"
        )

    def __reduce__(self):
        # Exceptions unpickle as cls(*args), and args holds the message;
        # rebuild from the fields so the error survives a worker process.
        return type(self), (self.quarantined_at, self.path)


@dataclass
class TuningResult:
    """Everything a tuning session produced."""

    knowledge_base: KnowledgeBase
    objective: str
    default_value: float
    stopped_early_at: int | None = None
    quarantined_at: int | None = None
    #: Which row of the quarantining round exhausted its retries, and the
    #: 64-bit fingerprint of the configuration it was evaluating — the
    #: attribution quarantine reports print (None unless quarantined).
    quarantined_row: int | None = None
    quarantined_fingerprint: str | None = None

    @property
    def maximize(self) -> bool:
        return self.objective == "throughput"

    @property
    def values(self) -> np.ndarray:
        return self.knowledge_base.values

    @property
    def best_curve(self) -> np.ndarray:
        return self.knowledge_base.best_so_far()

    @property
    def best_value(self) -> float:
        return self.knowledge_base.best_value()

    @property
    def suggest_seconds_total(self) -> float:
        return sum(o.suggest_seconds for o in self.knowledge_base)

    @property
    def crash_count(self) -> int:
        return sum(o.crashed for o in self.knowledge_base)


@dataclass
class _Journal:
    """The checkpoint journal a session last wrote: its path, the file's
    stamp after that write (``persistence.append_checkpoint`` appends
    only while the file still carries it), how many knowledge-base rows
    it holds, and whether it holds the optimizer's LHS design."""

    path: pathlib.Path
    stamp: tuple
    rows: int
    design: bool


class TuningSession:
    """Runs one tuning session against the simulated DBMS.

    The LHS init phase runs as one batched round (one
    ``suggest_init_batch`` decode, one ``to_target_batch`` conversion, one
    evaluation pass, capped at the remaining budget).  It records the rows
    that one round per design point records, the way the session server
    drives a tenant (``tests/test_batch_equivalence.py`` pins the
    equality).  An optimizer that cannot batch its design (DDPG)
    returns no init batch and takes its design points one round each.

    Args:
        simulator: The workload+DBMS under tuning.
        optimizer: Any :class:`~repro.optimizers.base.Optimizer`; it must
            have been constructed over ``adapter.optimizer_space``.
        adapter: Search-space adapter (identity for vanilla baselines).
        objective: ``"throughput"`` (maximize) or ``"latency"`` (minimize
            the 95th-percentile latency).
        n_iterations: Iteration budget (100 in the paper).
        seed: Seed for evaluation noise.
        early_stopping: Optional Appendix-A policy.
        suggest_batch: Model-phase batch size q.  Each round fits the
            surrogate once, takes the top-q EI-ranked candidates from
            one candidate pool (``Optimizer.suggest_batch``, split at the
            scoring seam), evaluates them in one batch pass, and feeds
            all q results back before the next fit — q-fold fewer model
            fits per iteration budget.  This is batch Bayesian
            optimization: the trajectory intentionally differs from q
            sequential rounds (observations arrive in batches).  The
            default q = 1 keeps the paper's sequential loop,
            byte-identical to earlier releases.
        checkpoint_every: Write a checkpoint at the first round boundary
            at or past every multiple of this many iterations (0 — the
            default — disables periodic checkpoints; :meth:`checkpoint`
            stays available for manual snapshots).  Requires a
            checkpointable optimizer (DDPG opts out).
        checkpoint_path: Where periodic checkpoints (and path-less
            :meth:`checkpoint` calls) land.
        fault_policy: Run every evaluation under a
            :class:`~repro.tuning.faults.FaultEnvelope` with this policy
            (``None`` — the default — evaluates exactly as earlier
            releases; a policy with no faults occurring is byte-identical
            to that anyway).
        fault_clock: Time source for the envelope's timeout budget and
            backoff; share it with a fault injector's clock so simulated
            hangs are observable.  Defaults to wall-clock.
        spec_fingerprint: Collision-resistant digest of the spec this
            session was built from (``SessionSpec.spec_fingerprint()``).
            Stamped into every checkpoint and validated on load, so a
            checkpoint from a different spec — even one whose knob-name
            headers happen to match — fails loudly instead of silently
            resuming a look-alike trajectory.  ``None`` (hand-built
            sessions) skips both sides.
    """

    def __init__(
        self,
        simulator: PostgresSimulator,
        optimizer: Optimizer,
        adapter: SearchSpaceAdapter | None = None,
        objective: str = "throughput",
        n_iterations: int = 100,
        seed: int = 0,
        early_stopping: EarlyStoppingPolicy | None = None,
        suggest_batch: int = 1,
        checkpoint_every: int = 0,
        checkpoint_path: str | pathlib.Path | None = None,
        fault_policy: FaultPolicy | None = None,
        fault_clock=None,
        spec_fingerprint: str | None = None,
    ):
        if objective not in ("throughput", "latency"):
            raise ValueError(f"unknown objective {objective!r}")
        if suggest_batch < 1:
            raise ValueError("suggest_batch must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.simulator = simulator
        self.optimizer = optimizer
        self.adapter = adapter if adapter is not None else IdentityAdapter(
            optimizer.space
        )
        if self.adapter.optimizer_space is not optimizer.space:
            raise ValueError(
                "optimizer must be constructed over adapter.optimizer_space"
            )
        self.objective = objective
        self.n_iterations = n_iterations
        self.rng = np.random.default_rng(seed)
        self.early_stopping = early_stopping
        self.suggest_batch = suggest_batch
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_path = (
            pathlib.Path(checkpoint_path) if checkpoint_path is not None else None
        )
        if self.checkpoint_every > 0 and not getattr(
            optimizer, "checkpointable", True
        ):
            raise ValueError(
                f"{type(optimizer).__name__} is not checkpointable; "
                "run without checkpoint_every"
            )
        self._envelope = (
            FaultEnvelope(fault_policy, clock=fault_clock)
            if fault_policy is not None
            else None
        )
        self.spec_fingerprint = spec_fingerprint
        # --- state machine ---------------------------------------------------
        self._state = "new"
        self._kb: KnowledgeBase | None = None
        self._default_value: float | None = None
        self._iteration = 0
        self._stopped_at: int | None = None
        self._quarantined_at: int | None = None
        self._quarantined_row: int | None = None
        self._quarantined_fingerprint: str | None = None
        self._next_checkpoint_at = (
            self.checkpoint_every if self.checkpoint_every > 0 else None
        )
        self._journal: _Journal | None = None

    @property
    def maximize(self) -> bool:
        return self.objective == "throughput"

    @property
    def state(self) -> str:
        """``"new"`` | ``"running"`` | ``"done"``."""
        return self._state

    @property
    def iteration(self) -> int:
        """Completed-iteration cursor (= observations recorded)."""
        return self._iteration

    @property
    def stopped_at(self) -> int | None:
        return self._stopped_at

    @property
    def quarantined_at(self) -> int | None:
        return self._quarantined_at

    @property
    def quarantined_row(self) -> int | None:
        """Row index (within its round) of the evaluation that exhausted
        its retries, when quarantined."""
        return self._quarantined_row

    @property
    def quarantined_fingerprint(self) -> str | None:
        """Fingerprint of the configuration whose evaluation exhausted
        its retries, when quarantined."""
        return self._quarantined_fingerprint

    @property
    def live(self) -> bool:
        """Whether the loop has more rounds to run."""
        return (
            self._state == "running"
            and self._stopped_at is None
            and self._quarantined_at is None
            and self._iteration < self.n_iterations
        )

    @property
    def envelope(self) -> FaultEnvelope | None:
        """The session's fault envelope (``None`` without a policy)."""
        return self._envelope

    # --- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """``new → running``: open the knowledge base and measure the
        default configuration, which seeds the crash penalty's worst-seen
        reference (Section 6.1)."""
        if self._state != "new":
            raise RuntimeError(f"cannot start a {self._state!r} session")
        self._kb = KnowledgeBase(maximize=self.maximize)
        self._default_value = self.simulator.default_measurement().value(
            self.objective
        )
        # The crash penalty references the worst performance seen so far,
        # initialized with the default configuration's performance.
        self._worst_seen = self._default_value
        self._state = "running"

    def run(self) -> TuningResult:
        """Drive the session to completion (from fresh or from a restored
        checkpoint) and return its result.

        A session runs as a one-member wave
        (:func:`repro.tuning.wave.drive`): the same batched init phase
        and the same prepare → score → convert → evaluate → feed rounds
        every driver uses."""
        from repro.tuning.wave import drive  # lazy: wave imports us

        drive([self])
        return self.result()

    def resume(
        self, path: str | pathlib.Path, force_quarantined: bool = False
    ) -> TuningResult:
        """Restore the checkpoint at ``path`` and run to completion.

        The continuation is byte-identical to the uninterrupted run: the
        checkpoint holds every mutable input of the loop (observations,
        worst-seen, early-stop state, optimizer state, and both PCG64
        stream positions), and checkpoints only exist at round
        boundaries.

        A *quarantined* checkpoint raises :class:`QuarantinedSessionError`
        — its ``quarantined_at`` says where the envelope gave up —
        unless ``force_quarantined`` clears the marker to retry the
        envelope at that cursor (see :meth:`load_checkpoint`).
        """
        self.load_checkpoint(path, force_quarantined=force_quarantined)
        return self.run()

    def finish(self) -> TuningResult:
        """``running → done``: the terminal transition every driver
        performs once the loop has no more rounds (``not live``) —
        :func:`repro.tuning.wave.drive` for its sessions, the session
        server after an ``observe``.  Returns the result."""
        if self._state == "running":
            if self.live:
                raise RuntimeError(
                    "cannot finish a session with rounds remaining "
                    f"(iteration {self._iteration}/{self.n_iterations})"
                )
            self._state = "done"
        return self.result()

    def result(self) -> TuningResult:
        if self._kb is None or self._default_value is None:
            raise RuntimeError("session has not started")
        return TuningResult(
            knowledge_base=self._kb,
            objective=self.objective,
            default_value=self._default_value,
            stopped_early_at=self._stopped_at,
            quarantined_at=self._quarantined_at,
            quarantined_row=self._quarantined_row,
            quarantined_fingerprint=self._quarantined_fingerprint,
        )

    # --- evaluation dispatch -------------------------------------------------

    def _evaluate_batch(self, target_configs) -> list:
        """Evaluate one round's rows through the session's own dispatch:
        the fault envelope when a policy is set, else the simulator's
        batch pass (``Measurement | None`` per row, ``None`` = crash;
        short of the input when a row exhausts its retries)."""
        if self._envelope is not None:
            return self._envelope.evaluate_batch(
                self.simulator, target_configs, rng=self.rng
            )
        return self.simulator.evaluate_batch(target_configs, rng=self.rng)

    # --- feedback ------------------------------------------------------------

    def _feed_outcomes(
        self,
        opt_configs,
        target_configs,
        outcomes,
        per_suggest: float,
    ) -> None:
        """Apply one round's outcomes in order — THE feedback loop
        (penalty/early-stop/quarantine bookkeeping included), shared by
        every driver (the init phase and model rounds of
        :func:`repro.tuning.wave.drive`, and the session server's
        ``observe``), so they stay bit-identical by construction.  An
        :data:`EXHAUSTED` outcome quarantines the session at the current
        cursor without recording an observation (the configuration is
        innocent — a penalty would poison the surrogate); outcomes after
        an early stop or quarantine are discarded, exactly as if the loop
        had ended at that row.  Ends with the
        periodic-checkpoint hook: rounds are the only places checkpoints
        may be written (a batch's noise is drawn up front, so an
        intra-batch snapshot could never resume byte-identically).
        """
        for row, (opt_config, target_config, outcome) in enumerate(
            zip(opt_configs, target_configs, outcomes)
        ):
            if outcome is EXHAUSTED:
                # Attribute the quarantine: which row of this round, and
                # which configuration, exhausted the envelope's retries —
                # what quarantine reports (server + CLIs) print.
                self._quarantined_at = self._iteration
                self._quarantined_row = row
                self._quarantined_fingerprint = config_fingerprint(
                    target_config
                )
                break
            stopped = self._record(
                self._kb, self._iteration, opt_config, target_config,
                outcome, per_suggest,
            )
            self._iteration += 1
            if stopped is not None:
                self._stopped_at = stopped
                break
        self._maybe_checkpoint()

    def _record(
        self,
        kb: KnowledgeBase,
        iteration: int,
        opt_config,
        target_config,
        measurement,
        suggest_seconds: float,
    ) -> int | None:
        """Apply one outcome (``None`` = crash) to the optimizer and the
        knowledge base; returns the early-stop iteration, if triggered."""
        if measurement is None:
            crashed = True
            metrics = throughput = p95 = None
            value = (
                self._worst_seen / 4.0 if self.maximize else self._worst_seen * 4.0
            )
        else:
            crashed = False
            value = measurement.value(self.objective)
            if not math.isfinite(value):
                # A NaN/inf observation would silently poison the
                # forest/GP surrogates; subclassed evaluators must either
                # fix their measurements or run under a fault envelope
                # (which retries corrupted rows before they get here).
                raise DbmsError(
                    f"non-finite objective value {value!r} at iteration "
                    f"{iteration} — corrupted measurement from "
                    f"{type(self.simulator).__name__}.evaluate"
                )
            metrics = measurement.metrics
            throughput = measurement.throughput
            p95 = measurement.p95_latency_ms
            if self.maximize:
                self._worst_seen = min(self._worst_seen, value)
            else:
                self._worst_seen = max(self._worst_seen, value)

        signed = value if self.maximize else -value
        self.optimizer.observe(opt_config, signed, metrics=metrics)
        kb.record(
            Observation(
                iteration=iteration,
                optimizer_config=opt_config,
                target_config=target_config,
                value=value,
                crashed=crashed,
                suggest_seconds=suggest_seconds,
                throughput=throughput,
                p95_latency_ms=p95,
            )
        )

        if self.early_stopping is not None and self.early_stopping.should_stop(
            iteration, kb.best_value(), self.maximize
        ):
            return iteration + 1
        return None

    # --- checkpointing -------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        """Periodic-checkpoint hook, called at every round boundary: fire
        once the cursor crosses the next multiple of ``checkpoint_every``,
        and once more when the session reaches a terminal condition (so a
        resume of a finished run is a no-op instead of a partial rerun)."""
        if self._next_checkpoint_at is None or self.checkpoint_path is None:
            return
        if self._iteration >= self._next_checkpoint_at or not self.live:
            self.checkpoint(self.checkpoint_path)
            self._next_checkpoint_at = (
                self._iteration // self.checkpoint_every + 1
            ) * self.checkpoint_every

    def checkpoint(
        self,
        path: str | pathlib.Path | None = None,
        state: dict | None = None,
    ) -> pathlib.Path:
        """Write the complete resumable state to ``path`` (defaults to
        ``checkpoint_path``) and return the path.  Callable at any round
        boundary of a started session.

        Checkpoints are journals (``tuning/persistence.py``).  A
        session's first write to a path — fresh, resumed, or switching
        paths — is a compacted journal, header plus one record, written
        atomically.  Later writes to the same path append one record
        with the rows recorded since, as long as the file is still the
        one this session left; otherwise they compact again, so a stale
        file from an earlier run is never extended.

        ``state`` writes an earlier :meth:`checkpoint_state` snapshot in
        place of the current one — the session server's pre-wave
        snapshot of a round whose suggestion is still outstanding.  The
        knowledge base must not have grown since it was taken.
        """
        from repro.tuning import persistence  # lazy: persistence imports us

        target = pathlib.Path(path) if path is not None else self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path given or configured")
        if self._state == "new":
            raise RuntimeError("cannot checkpoint an unstarted session")
        if state is None:
            state = self.checkpoint_state()
        if state["iteration"] != len(self._kb):
            raise ValueError(
                f"checkpoint state is at iteration {state['iteration']}, "
                f"the knowledge base at {len(self._kb)}"
            )
        journal = self._journal
        stamp = None
        if journal is not None and journal.path == target:
            stamp = persistence.append_checkpoint(
                self._journal_record(state, journal), target, journal.stamp
            )
        if stamp is None:
            stamp = persistence.save_checkpoint(
                self._journal_header(), self._journal_record(state), target
            )
        self._journal = _Journal(
            target,
            stamp,
            rows=len(self._kb),
            design=state["optimizer"].get("init_points") is not None,
        )
        return target

    def checkpoint_state(self) -> dict:
        """The loop's small state at this round boundary: everything a
        checkpoint record holds besides the knowledge-base rows — the
        cursor, worst-seen, early-stop and quarantine fields, both PCG64
        positions, and the optimizer's inputs-only ``state_dict``.
        JSON-clean and detached: later rounds do not mutate it."""
        early = None
        if self.early_stopping is not None:
            early = {
                "reference": self.early_stopping._reference,
                "reference_iteration": self.early_stopping._reference_iteration,
            }
        return {
            "iteration": self._iteration,
            "worst_seen": self._worst_seen,
            "stopped_early_at": self._stopped_at,
            "quarantined_at": self._quarantined_at,
            "quarantined_row": self._quarantined_row,
            "quarantined_fingerprint": self._quarantined_fingerprint,
            "session_rng": dict(self.rng.bit_generator.state),
            "early_stopping": early,
            "optimizer": self.optimizer.state_dict(),
        }

    def _journal_header(self) -> dict:
        """What a journal's loads validate against, plus the default
        measurement (fixed once the session started)."""
        return {
            "spec_fingerprint": self.spec_fingerprint,
            "objective": self.objective,
            "default_value": self._default_value,
            "optimizer_knobs": list(self.optimizer.space.names),
            "target_knobs": list(self.adapter.target_space.names),
        }

    def _journal_record(
        self, state: dict, journal: _Journal | None = None
    ) -> dict:
        """One journal record: ``state`` plus the knowledge-base rows the
        journal does not hold yet (all of them for a compacted journal),
        as knob-value rows under the header's name lists — the LHS design
        only once, in the first record after it was drawn."""
        start, design = (journal.rows, journal.design) if journal else (0, False)
        opt_row = _row_encoder(self.optimizer.space)
        target_row = _row_encoder(self.adapter.target_space)
        record = dict(state)
        record["optimizer"] = optimizer = dict(state["optimizer"])
        if design or optimizer.get("init_points") is None:
            optimizer.pop("init_points", None)
        record["rows"] = [
            [
                o.iteration,
                opt_row(o.optimizer_config),
                target_row(o.target_config),
                o.value,
                o.crashed,
                o.suggest_seconds,
                o.throughput,
                o.p95_latency_ms,
            ]
            for o in self._kb.observations[start:]
        ]
        return record

    def load_checkpoint(
        self, path: str | pathlib.Path, force_quarantined: bool = False
    ) -> "TuningSession":
        """``new → running`` from an on-disk snapshot.

        The session must be freshly built over the *same* spec the
        checkpoint came from: the spec fingerprint header is compared
        first (when both sides carry one — the collision-proof check),
        then spaces are validated by knob-name header, the optimizer by
        type, the early-stopping policy by presence; the objective must
        match.  Returns ``self`` for chaining.

        A snapshot whose session was quarantined raises
        :class:`QuarantinedSessionError` by default: the envelope already
        exhausted its retries there, and silently re-entering ``run()``
        at that cursor would just re-evaluate against the same failing
        environment.  ``force_quarantined=True`` clears the marker so the
        restored session is live again and ``run()`` retries the envelope
        from the quarantine cursor (the optimizer stream has already
        advanced past the suggestion that exhausted — no observation was
        recorded for it — so the retry draws the next suggestion).
        """
        from repro.tuning import persistence  # lazy: persistence imports us

        if self._state != "new":
            raise RuntimeError(
                f"cannot load a checkpoint into a {self._state!r} session"
            )
        payload = persistence.load_checkpoint(path)
        stored_fingerprint = payload.get("spec_fingerprint")
        if (
            stored_fingerprint is not None
            and self.spec_fingerprint is not None
            and stored_fingerprint != self.spec_fingerprint
        ):
            raise ValueError(
                f"checkpoint {path} was written by spec "
                f"{stored_fingerprint}, session was built from "
                f"{self.spec_fingerprint} — refusing to resume another "
                "spec's state"
            )
        if payload["objective"] != self.objective:
            raise ValueError(
                f"checkpoint tunes {payload['objective']!r}, "
                f"session tunes {self.objective!r}"
            )
        if payload["quarantined_at"] is not None and not force_quarantined:
            raise QuarantinedSessionError(payload["quarantined_at"], path)
        opt_space = self.optimizer.space
        target_space = self.adapter.target_space
        if payload["optimizer_knobs"] != list(opt_space.names):
            raise ValueError("checkpoint optimizer space does not match")
        if payload["target_knobs"] != list(target_space.names):
            raise ValueError("checkpoint target space does not match")
        if (payload["early_stopping"] is None) != (self.early_stopping is None):
            raise ValueError(
                "checkpoint and session disagree on early stopping"
            )

        self._kb = KnowledgeBase(maximize=self.maximize)
        decode_opt = _row_decoder(opt_space)
        decode_target = _row_decoder(target_space)
        for row in payload["rows"]:
            (iteration, opt_row, target_row, value, crashed,
             suggest_seconds, throughput, p95) = row
            self._kb.record(
                Observation(
                    iteration=int(iteration),
                    optimizer_config=decode_opt(opt_row),
                    target_config=decode_target(target_row),
                    value=value,
                    crashed=bool(crashed),
                    suggest_seconds=suggest_seconds,
                    throughput=throughput,
                    p95_latency_ms=p95,
                )
            )
        self._default_value = payload["default_value"]
        self._worst_seen = payload["worst_seen"]
        self._iteration = int(payload["iteration"])
        self._stopped_at = payload["stopped_early_at"]
        # force_quarantined clears the marker: the session is live again
        # and run() retries the envelope from the quarantine cursor.
        if force_quarantined:
            self._quarantined_at = None
            self._quarantined_row = None
            self._quarantined_fingerprint = None
        else:
            self._quarantined_at = payload["quarantined_at"]
            self._quarantined_row = payload["quarantined_row"]
            self._quarantined_fingerprint = payload["quarantined_fingerprint"]
        self.rng.bit_generator.state = payload["session_rng"]
        if self.early_stopping is not None:
            early = payload["early_stopping"]
            self.early_stopping._reference = early["reference"]
            self.early_stopping._reference_iteration = int(
                early["reference_iteration"]
            )
        # The optimizer's X/y are the knowledge base's optimizer-space
        # configurations and signed values — what _record fed observe().
        self.optimizer.load_state(
            payload["optimizer"],
            [o.optimizer_config for o in self._kb],
            [o.value if self.maximize else -o.value for o in self._kb],
        )
        if self.checkpoint_every > 0:
            self._next_checkpoint_at = (
                self._iteration // self.checkpoint_every + 1
            ) * self.checkpoint_every
        self._state = "running"
        return self


def _row_encoder(space):
    """Configuration → its knob values in the space's name order: the
    journal's row layout (``_row_decoder`` is the inverse)."""
    names = space.names
    values = itemgetter(*names)
    if len(names) == 1:
        return lambda config: [values(config.to_dict())]
    return lambda config: values(config.to_dict())


def _row_decoder(space):
    """Row → Configuration restorer for one space: values were legal when
    checkpointed and round-trip exactly, so the trusted constructor
    applies; only integer knobs need the JSON float→int guard (mirroring
    ``persistence._coerce``)."""
    from repro.space.configspace import Configuration
    from repro.space.knob import IntegerKnob

    names = list(space.names)
    int_names = [name for name in names if isinstance(space[name], IntegerKnob)]

    def decode(row):
        values = dict(zip(names, row))
        for name in int_names:
            if type(values[name]) is not int:
                values[name] = int(values[name])
        return Configuration._trusted(space, values)

    return decode
