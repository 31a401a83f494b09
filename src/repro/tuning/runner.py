"""Experiment runner: build sessions from specs, run grids of them.

This is the scaffolding every experiment module uses: a
:class:`SessionSpec` builds one (simulator, optimizer, adapter) triple
per seed, :func:`run_grid` executes the paper's protocol (five seeds by
default) over any set of arms, and the metrics module turns the curves
into Table-style rows.
"""

from __future__ import annotations

import hashlib
import pathlib
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.pipeline import (
    IdentityAdapter,
    LlamaTuneAdapter,
    SearchSpaceAdapter,
)
from repro.dbms.engine import PostgresSimulator
from repro.dbms.live import EvalTrace, LiveDbmsDriver, RealPg
from repro.dbms.versions import V96, PostgresVersion
from repro.optimizers import make_optimizer
from repro.space.configspace import ConfigurationSpace
from repro.space.postgres import postgres_space_for_version
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.fault_injection import FaultInjectingSimulator
from repro.tuning.faults import FaultPolicy, VirtualClock
from repro.tuning.session import TuningResult, TuningSession
from repro.tuning.wave import run_wave_mixed
from repro.workloads.base import Workload
from repro.workloads.catalog import get_workload

#: The paper's experimental protocol.
DEFAULT_SEEDS: tuple[int, ...] = (1, 2, 3, 4, 5)
DEFAULT_ITERATIONS = 100
DEFAULT_N_INIT = 10


def space_for_version(version: PostgresVersion) -> ConfigurationSpace:
    """Delegates to the shared dispatch so the runner and the simulator's
    calibration always tune/calibrate the same catalog."""
    return postgres_space_for_version(version.name)


@dataclass(frozen=True)
class SessionSpec:
    """Declarative description of one tuning-session arm.

    ``adapter`` is a factory ``(space, seed) -> SearchSpaceAdapter`` or None
    for the identity (vanilla) baseline.  Every session evaluates its
    whole LHS init phase as one batched round (see
    :class:`~repro.tuning.session.TuningSession`).

    **Resilience knobs.**  ``checkpoint_every`` + ``checkpoint_dir``
    periodically snapshot each seed's session to
    ``<dir>/<workload>-<optimizer>-<fingerprint>-seed<seed>.ckpt.json``
    (``fingerprint`` = :meth:`spec_fingerprint`, 64 collision-resistant
    bits; checkpoints also carry it as a header, so loading a file from
    the wrong spec fails loudly); ``resume`` makes ``build`` restore any
    existing snapshot so a killed sweep continues byte-identically —
    unless the snapshot is *quarantined*, which ``resume`` refuses
    without ``force_resume``.  ``fault_rate`` swaps the simulator
    for a :class:`~repro.tuning.fault_injection.FaultInjectingSimulator`
    (fault schedule keyed by ``(spec_token, seed, fault_seed)``, never
    touching the evaluation or optimizer streams) and runs evaluations
    under a fault envelope; ``fault_policy`` alone wraps the stock
    simulator in the envelope, the seam a real-DBMS driver raising
    ``TransientEvalError`` plugs into.
    """

    workload: str
    optimizer: str = "smac"
    adapter: Callable[[ConfigurationSpace, int], SearchSpaceAdapter] | None = None
    objective: str = "throughput"
    version: PostgresVersion = V96
    n_iterations: int = DEFAULT_ITERATIONS
    n_init: int = DEFAULT_N_INIT
    target_rate: float | None = None
    early_stopping: EarlyStoppingPolicy | None = None
    optimizer_kwargs: tuple[tuple[str, object], ...] = ()
    suggest_batch: int = 1
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    resume: bool = False
    #: Allow ``resume`` to restore a *quarantined* checkpoint and retry
    #: the fault envelope at the quarantine cursor.  Off by default:
    #: resuming a quarantined session silently re-enters the very
    #: evaluation that exhausted its retries, so ``build`` refuses with
    #: :class:`~repro.tuning.session.QuarantinedSessionError` unless this
    #: is set (``--force-resume`` on the CLIs).
    force_resume: bool = False
    fault_rate: float = 0.0
    fault_seed: int = 0
    fault_policy: FaultPolicy | None = None
    #: Execution backend: ``"sim"`` (the default analytical simulator),
    #: ``"live"`` (a real server through
    #: :class:`~repro.dbms.live.driver.LiveDbmsDriver` — requires ``dsn``
    #: or an injected ``live_transport``), or ``"replay"`` (hermetic
    #: deterministic replay of the recorded trace at ``trace``).  Live
    #: and replay sessions always run under a fault envelope
    #: (``fault_policy`` or the default policy) so driver failures get
    #: retries/quarantine instead of crashing the sweep; reproducibility
    #: for replay is per ``(trace-id, spec, seed)``.
    backend: str = "sim"
    #: Replay source (a trace file path; required for ``backend="replay"``).
    trace: str | None = None
    #: With ``backend="live"``, record every evaluation outcome to this
    #: trace file (sequential execution only — the file is read-modify-
    #: write merged after each evaluation).
    record_trace: str | None = None
    #: libpq DSN for the live backend's :class:`RealPg` transport.
    dsn: str | None = None
    #: Test/deployment seam: zero-argument factory returning a
    #: :class:`~repro.dbms.live.transport.PgTransport` — takes precedence
    #: over ``dsn``.  Infrastructure plumbing, excluded from
    #: :meth:`spec_canonical` like ``dsn`` and ``record_trace``.
    live_transport: Callable[[], object] | None = None
    #: The threads a wave runs on: 0 (the default) or 1, both meaning one.
    #: Kept so specs that name it still build; excluded from
    #: :meth:`spec_canonical`.  Multicore runs shard the seeds over
    #: processes instead (``run_spec(workers=N)``).
    wave_threads: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be in [0, 1] (got {self.fault_rate!r})"
            )
        if self.wave_threads not in (0, 1):
            raise ValueError(
                f"wave_threads must be 0 or 1 (got {self.wave_threads!r}): "
                "waves run on one thread; use run_spec(workers=N) to run "
                "seeds on N processes"
            )

    def spec_canonical(self) -> str:
        """Canonical string of the trajectory-determining fields — the
        shared input of :meth:`spec_token` and :meth:`spec_fingerprint`.

        ``fault_seed`` is excluded (it is the fault-schedule key's own
        third component), as are the checkpoint/resume fields (resuming
        must not change the fault schedule) and ``n_iterations`` — it
        only decides where a trajectory *ends*, so a resumed session may
        extend the budget and still find its checkpoint and replay its
        fault schedule.  An ``early_stopping`` policy is appended: arms
        that differ only in their policy (Table 11's) follow different
        trajectories once one of them stops, so each needs its own
        checkpoint files.
        """
        adapter = self.adapter
        adapter_token = (
            getattr(adapter, "__qualname__", None) or repr(adapter)
        )
        parts = [
            self.workload,
            self.optimizer,
            adapter_token,
            self.objective,
            self.version.name,
            str(self.n_init),
            str(self.target_rate),
            repr(sorted(self.optimizer_kwargs)),
            # The retired batch_init field's value, kept so every spec's
            # token and fingerprint (fault schedules, checkpoint names)
            # stay put.
            "True",
            str(self.suggest_batch),
            repr(self.fault_rate),
        ]
        if self.backend != "sim":
            # Appended conditionally so every pre-existing sim spec keeps
            # its token/fingerprint (fault schedules and checkpoint names
            # stay stable).  The *paths* (trace/record_trace/dsn) are
            # infrastructure, not trajectory inputs — a replay trajectory
            # is identified by (trace-id, spec, seed), with the trace-id
            # carried by the trace file itself.
            parts.append(f"backend={self.backend}")
        if self.early_stopping is not None:
            # Appended conditionally too, so policy-free specs keep their
            # token and fingerprint.
            parts.append(f"early_stopping={astuple(self.early_stopping)!r}")
        return "|".join(parts)

    def spec_token(self) -> int:
        """Stable 32-bit digest of :meth:`spec_canonical`.

        Keys the fault-injection stream (with the seed and ``fault_seed``)
        — ``zlib.crc32``, not ``hash()``, which is salted per process and
        would break cross-process reproducibility.  32 bits are plenty
        for decorrelating fault schedules but NOT for naming files: two
        distinct specs sharing a checkpoint directory can crc32-collide
        and silently resume each other's state, which is why checkpoint
        paths use :meth:`spec_fingerprint` instead.
        """
        return zlib.crc32(self.spec_canonical().encode())

    def spec_fingerprint(self) -> str:
        """Collision-resistant spec digest (sha256 of
        :meth:`spec_canonical`, first 16 hex chars = 64 bits): names
        checkpoint files and is stamped into every checkpoint header so
        a load against the wrong spec fails loudly instead of silently
        restoring a look-alike trajectory."""
        return hashlib.sha256(self.spec_canonical().encode()).hexdigest()[:16]

    def checkpoint_path(self, seed: int) -> pathlib.Path | None:
        """This seed's checkpoint file under ``checkpoint_dir`` (None
        when checkpointing is not configured).  Named by the 64-bit
        :meth:`spec_fingerprint`, so distinct specs sharing a directory
        cannot collide the way the 32-bit crc32 token could."""
        if self.checkpoint_dir is None:
            return None
        return pathlib.Path(self.checkpoint_dir) / (
            f"{self.workload}-{self.optimizer}-{self.spec_fingerprint()}"
            f"-seed{seed}.ckpt.json"
        )

    def _build_live_simulator(self, seed: int):
        """Simulator + envelope clock for the live/replay backends."""
        workload = get_workload(self.workload)
        if self.backend == "replay":
            if self.trace is None:
                raise ValueError("backend='replay' requires trace=")
            return (
                LiveDbmsDriver(
                    workload,
                    version=self.version,
                    trace=EvalTrace.load(self.trace),
                    target_rate=self.target_rate,
                ),
                None,
            )
        if self.live_transport is not None:
            transport = self.live_transport()
        elif self.dsn is not None:
            transport = RealPg(self.dsn)
        else:
            raise ValueError(
                "backend='live' requires dsn= (RealPg) or an injected "
                "live_transport factory"
            )
        driver = LiveDbmsDriver(
            workload,
            version=self.version,
            transport=transport,
            record_path=self.record_trace,
            target_rate=self.target_rate,
        )
        # The envelope measures timeouts/backoff on the transport's own
        # clock, so fakes on a VirtualClock stay sleep-free end to end.
        return driver, transport.clock

    def build(self, seed: int) -> TuningSession:
        space = space_for_version(self.version)
        workload = get_workload(self.workload)
        fault_policy = self.fault_policy
        fault_clock = None
        if self.backend not in ("sim", "live", "replay"):
            raise ValueError(
                f"unknown backend {self.backend!r}; use 'sim', 'live', or "
                "'replay'"
            )
        if self.backend != "sim":
            if self.fault_rate > 0:
                raise ValueError(
                    "fault_rate injects faults into the *simulator*; for "
                    "live-backend chaos use a FlakyPg transport "
                    "(repro.dbms.live.fakes) via live_transport="
                )
            simulator, fault_clock = self._build_live_simulator(seed)
            if fault_policy is None:
                # Live infrastructure flakes; never run a driver naked.
                fault_policy = FaultPolicy()
        elif self.fault_rate > 0:
            # One virtual clock shared by the injector (hangs advance it)
            # and the envelope (timeouts/backoff measure it): fault
            # handling is then deterministic and sleep-free.
            fault_clock = VirtualClock()
            if fault_policy is None:
                fault_policy = FaultPolicy()
            simulator: PostgresSimulator = FaultInjectingSimulator(
                workload,
                version=self.version,
                target_rate=self.target_rate,
                fault_rate=self.fault_rate,
                fault_seed=self.fault_seed,
                session_seed=seed,
                spec_token=self.spec_token(),
                clock=fault_clock,
            )
        else:
            simulator = PostgresSimulator(
                workload, version=self.version, target_rate=self.target_rate
            )
        if self.adapter is None:
            adapter: SearchSpaceAdapter = IdentityAdapter(space)
        else:
            adapter = self.adapter(space, seed)
        optimizer = make_optimizer(
            self.optimizer,
            adapter.optimizer_space,
            seed=seed,
            n_init=self.n_init,
            **dict(self.optimizer_kwargs),
        )
        checkpoint_path = self.checkpoint_path(seed)
        if self.checkpoint_every > 0 and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_path is not None:
            checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        session = TuningSession(
            simulator=simulator,
            optimizer=optimizer,
            adapter=adapter,
            objective=self.objective,
            n_iterations=self.n_iterations,
            suggest_batch=self.suggest_batch,
            seed=seed + 10_000,  # evaluation noise stream, distinct from optimizer
            # Policies carry per-session mutable state; every session gets
            # its own copy so seeds sharing a wave cannot contaminate each
            # other.
            early_stopping=(
                self.early_stopping.fresh() if self.early_stopping else None
            ),
            checkpoint_every=self.checkpoint_every,
            checkpoint_path=checkpoint_path,
            fault_policy=fault_policy,
            fault_clock=fault_clock,
            spec_fingerprint=self.spec_fingerprint(),
        )
        if (
            self.resume
            and checkpoint_path is not None
            and checkpoint_path.exists()
        ):
            session.load_checkpoint(
                checkpoint_path, force_quarantined=self.force_resume
            )
        return session


@dataclass(frozen=True)
class LlamaTuneFactory:
    """Picklable adapter factory with LlamaTune's (ablatable) components.

    A plain module-level class (not a closure) so ``SessionSpec`` instances
    carrying it can cross process boundaries — the requirement for
    ``run_spec(..., workers=N)`` with N >= 2 — and fingerprint by their
    fields (:meth:`SessionSpec.spec_canonical` reads the ``repr``).
    """

    projection: str | None = "hesbo"
    target_dim: int = 16
    bias: float = 0.2
    max_values: int | None = 10_000

    def __call__(self, space: ConfigurationSpace, seed: int) -> SearchSpaceAdapter:
        return LlamaTuneAdapter(
            space,
            projection=self.projection,
            target_dim=self.target_dim,
            bias=self.bias,
            max_values=self.max_values,
            seed=seed,
        )


def llamatune_factory(
    projection: str | None = "hesbo",
    target_dim: int = 16,
    bias: float = 0.2,
    max_values: int | None = 10_000,
) -> Callable[[ConfigurationSpace, int], SearchSpaceAdapter]:
    """Adapter factory with LlamaTune's (ablatable) components."""
    return LlamaTuneFactory(
        projection=projection,
        target_dim=target_dim,
        bias=bias,
        max_values=max_values,
    )


def run_grid(
    tasks: Sequence[tuple[SessionSpec, int]],
    workers: int | None = None,
) -> list[TuningResult]:
    """Run ``(spec, seed)`` pairs of any specs; one :class:`TuningResult`
    per task, in task order.

    ``workers`` picks the execution strategy.  ``None`` (the default) runs
    the tasks one after another — the paper's loop.  ``workers=1`` runs
    them in lockstep in one heterogeneous wave in this process
    (:func:`repro.tuning.wave.run_wave_mixed`: one stacked model phase and
    one evaluation pass per simulator group per round).  ``workers >= 2``
    deals the tasks round-robin into ``min(workers, len(tasks))`` shards
    and runs each shard as one wave in its own worker process (a lone
    shard runs in this process).  A task's trajectory does not depend on
    its wave's roster, so every strategy returns results byte-identical
    to the sequential loop.

    ``backend="live"`` refuses ``workers >= 2``: every shard's driver
    would ``ALTER SYSTEM`` and restart the same server concurrently, so
    one session could measure under another's configuration.  Sequential
    and one-wave runs evaluate live members one at a time.
    ``record_trace`` refuses any ``workers``: the trace file is merged
    after each evaluation, in task order.  Both are checked over every
    task before any runs.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    if workers is None:
        return [spec.build(seed).run() for spec, seed in tasks]
    tasks = list(tasks)
    if any(spec.record_trace is not None for spec, __ in tasks):
        raise ValueError(
            "record_trace captures traces sequentially; drop workers="
        )
    if workers >= 2 and any(spec.backend == "live" for spec, __ in tasks):
        raise ValueError(
            "backend='live' cannot run sessions in parallel: every worker "
            "process would reconfigure and restart the same server "
            "concurrently; use workers=None or workers=1 (they evaluate "
            "one session at a time)"
        )
    n_shards = min(workers, len(tasks))
    if n_shards <= 1:
        return run_wave_mixed(tasks)
    with ProcessPoolExecutor(max_workers=n_shards) as pool:
        futures = [
            pool.submit(run_wave_mixed, tasks[i::n_shards])
            for i in range(n_shards)
        ]
        results: list = [None] * len(tasks)
        for i, future in enumerate(futures):
            results[i::n_shards] = future.result()
    return results


def run_spec(
    spec: SessionSpec,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    workers: int | None = None,
) -> list[TuningResult]:
    """Run one arm across seeds: the one-spec :func:`run_grid`.  One
    :class:`TuningResult` per seed, in ``seeds`` order; with no
    ``workers``, the seeds run one after another."""
    return run_grid([(spec, seed) for seed in seeds], workers)


def mean_best_curve(results: Sequence[TuningResult]) -> np.ndarray:
    """Seed-averaged best-so-far curve (what the paper's figures plot)."""
    length = max(len(r.best_curve) for r in results)
    curves = []
    for r in results:
        curve = r.best_curve
        if len(curve) < length:  # early-stopped runs hold their final best
            curve = np.concatenate(
                [curve, np.full(length - len(curve), curve[-1])]
            )
        curves.append(curve)
    return np.mean(curves, axis=0)
