"""The benchmark's four workloads, their timed calls and their output checks.

Every workload tunes with LlamaTune's defaults (``llamatune_factory()``:
HeSBO to 16 dimensions, 20 % special-value biasing, 10K buckets), runs
100-iteration sessions (the paper's budget) with ``n_init`` = 10, and
goes through the program's own entry points on one busy core:

* ``seq-ckpt`` — SMAC sessions on ``ycsb-a`` one after another through
  ``run_spec`` (q = 1), checkpointing every 5 iterations.  The paper's
  loop, and the only workload where scalar ``evaluate``, scalar
  ``to_target``, the unstacked forest walk and checkpoint writes all
  block the result.
* ``wave-mixed`` — one ``run_wave_mixed`` call per unit over SMAC
  sessions on ``ycsb-a`` and ``tpcc`` (two simulator groups, one wave
  thread).  Forest fit, the stacked grouped walk and stacked evaluation
  do the work; scalar ``evaluate`` and checkpoints are bypassed, so this
  is the no-change side for optimisations of those two.
* ``gpbo-seq`` — GP-BO sessions on ``tpcc`` through ``run_spec`` with
  Table 8's default "fast" preset (``refit_every=5``): the optimizer
  layer used another way, with the forest kernel idle.
* ``serve-sim`` — a closed loop of 10 SMAC tenants on a
  ``SessionServer`` (1 ms gather window, one wave thread), alternating
  ``ycsb-a`` and ``tpcc``; each tenant evaluates its suggestion with its
  own session's simulator and noise stream, then suggests again (the
  ``serve`` CLI's tenant loop).  The only path through the batcher, the
  gather window and the protocol.

A timed phase repeats *units* — a fixed set of sessions whose seeds
derive from the workload seed and the unit index — until the requested
seconds have passed and at least ``min_units`` units ran.  The sessions
of the first ``min_units`` units are the *scored* set behind
``best_improvement_pct``, so that metric depends on the seed alone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass

from repro.dbms.errors import DbmsCrashError
from repro.tuning import SessionServer, SessionSpec, llamatune_factory, run_spec
from repro.tuning.wave import run_wave, run_wave_mixed, wave_thread_count

from tracing import ServerWaves, Tracer, instrument_session

N_INIT = 10
CHECKPOINT_EVERY = 5
GPBO_REFIT_EVERY = 5  # Table 8's "fast" preset
SERVE_TENANTS = 10
GATHER_WINDOW_S = 0.001
SERVER_WAVE_THREADS = 1


#: The warm-up's unit index; timed units count up from 0.
WARM_UP_UNIT = -1


def session_seed(seed: int, unit: int, member: int) -> int:
    """Seed of one session: distinct for every (workload seed, unit,
    member), so no unit repeats another's work or the warm-up's."""
    return seed * 100_000 + (unit - WARM_UP_UNIT) * 100 + member


def trajectory_digest(result) -> str:
    """SHA-256 over everything a trajectory pins: the default value and,
    per observation, its iteration, recorded value, crash flag and both
    knob configurations (``repr`` keeps every float bit and int/float
    distinction)."""
    h = hashlib.sha256(repr(result.default_value).encode())
    for o in result.knowledge_base:
        h.update(repr((
            o.iteration, o.value, o.crashed,
            sorted(o.optimizer_config.to_dict().items()),
            sorted(o.target_config.to_dict().items()),
        )).encode())
    return h.hexdigest()


@dataclass
class SessionRecord:
    """What the benchmark keeps of one finished session."""

    key: str
    digest: str
    observations: int
    budget: int
    improvement: float  # best throughput / default throughput - 1
    non_finite: int
    quarantined: bool
    suggest_seconds: list

    @property
    def failed_iterations(self) -> int:
        """Budget not completed, non-finite values, and a quarantine."""
        return (self.budget - self.observations + self.non_finite
                + int(self.quarantined))


def record_session(key: str, result, budget: int) -> SessionRecord:
    values = [result.default_value] + [o.value for o in result.knowledge_base]
    return SessionRecord(
        key=key,
        digest=trajectory_digest(result),
        observations=len(values) - 1,
        budget=budget,
        improvement=result.best_value / result.default_value - 1.0,
        non_finite=sum(1 for v in values if not math.isfinite(v)),
        quarantined=result.quarantined_at is not None,
        suggest_seconds=[o.suggest_seconds for o in result.knowledge_base],
    )


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


class _HookedSpec:
    """A spec whose ``build`` hands each fresh session to ``hook`` before
    returning it; everything else reads through to the real spec.  This
    is how the benchmark reaches sessions that ``run_spec`` and
    ``run_wave_mixed`` build internally."""

    def __init__(self, spec: SessionSpec, hook):
        self._spec = spec
        self._hook = hook

    def build(self, seed: int):
        session = self._spec.build(seed)
        self._hook(session)
        return session

    def __getattr__(self, name):
        return getattr(self._spec, name)


def smac_spec(workload: str, iterations: int, **fields) -> SessionSpec:
    return SessionSpec(
        workload=workload,
        optimizer="smac",
        adapter=llamatune_factory(),
        n_iterations=iterations,
        n_init=N_INIT,
        **fields,
    )


class Workload:
    """One workload's timed phase, records and checks."""

    name = ""
    min_units = 1

    def __init__(self, seed: int, iterations: int, work_dir, tracer: Tracer | None = None):
        self.seed = seed
        self.iterations = iterations
        self.work_dir = work_dir
        self.tracer = tracer
        self.clock = time.perf_counter
        self.records: list[SessionRecord] = []
        self.scored: list[SessionRecord] = []
        self.units = 0
        self.timed_s = 0.0
        #: (attempted, failed) per operation kind behind ``failed_share``.
        self.ops = {"iterations": [0, 0], "requests": [0, 0],
                    "checkpoint_writes": [0, 0], "checks": [0, 0]}
        self.checks: list[Check] = []

    # --- overridables --------------------------------------------------------

    def specs(self) -> list[SessionSpec]:
        raise NotImplementedError

    def unit(self, unit: int, budget: int, hooked: bool) -> list[tuple[str, object]]:
        """Run one unit's timed call; return ``(key, result)`` pairs."""
        raise NotImplementedError

    def check(self) -> None:
        """The strategy-invariance check, run after the timed phase."""
        raise NotImplementedError

    # --- shared machinery ----------------------------------------------------

    def wave_threads(self) -> int:
        return max(wave_thread_count(spec) for spec in self.specs())

    def prepared(self, spec: SessionSpec, budget: int, hooked: bool, extra=None):
        """``spec`` at ``budget`` iterations; when ``hooked``, every session
        it builds first gets the traced run's instance wrappers (if
        tracing) and ``extra``."""
        spec = dataclasses.replace(spec, n_iterations=budget)
        hooks = []
        if hooked and self.tracer is not None:
            hooks.append(lambda session: instrument_session(self.tracer, session))
        if hooked and extra is not None:
            hooks.append(extra)
        if not hooks:
            return spec

        def hook(session):
            for apply in hooks:
                apply(session)

        return _HookedSpec(spec, hook)

    def timed(self, call):
        started = self.clock()
        result = call()
        self.timed_s += self.clock() - started
        return result

    def warm_up(self) -> None:
        """One tiny unit through the same entry points (untimed,
        untraced): loads the kernel, fills the calibration cache and pays
        every first-call cost before the timed phase."""
        self.unit(WARM_UP_UNIT, N_INIT + 2, hooked=False)

    def run(self, seconds: float, started: float, setup_only: bool = False) -> float:
        """Warm up, then run units for ``seconds``; returns ``setup_s``
        (from ``started``, taken before ``import repro``, to the first
        timed call)."""
        self.warm_up()
        setup_s = self.clock() - started
        if setup_only:
            return setup_s
        if self.tracer is not None:
            self.tracer.reset()
        phase_start = self.clock()
        while self.units < self.min_units or self.clock() - phase_start < seconds:
            self.collect(self.unit(self.units, self.iterations, hooked=True))
            self.units += 1
        return setup_s

    def collect(self, results) -> None:
        for key, result in results:
            record = record_session(key, result, self.iterations)
            self.records.append(record)
            if self.units < self.min_units:
                self.scored.append(record)
            self.ops["iterations"][0] += record.budget
            self.ops["iterations"][1] += record.failed_iterations

    def add_check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(ok), detail))
        self.ops["checks"][0] += 1
        self.ops["checks"][1] += not ok

    def compare(self, name: str, subject, rerun) -> None:
        """Byte-identity of two trajectories (values and configurations)."""
        ours, theirs = trajectory_digest(subject), trajectory_digest(rerun)
        self.add_check(name, ours == theirs,
                       f"{ours[:16]} vs {theirs[:16]}")

    def suggest_samples_ms(self) -> tuple[list[float], dict]:
        """Per-iteration suggestion time as the program records it
        (``suggest_seconds``, Table 10's tuner overhead), with its count."""
        samples = [s * 1e3 for r in self.records for s in r.suggest_seconds]
        return samples, {"iterations": len(samples)}


class SeqCkpt(Workload):
    name = "seq-ckpt"
    sessions_per_unit = 4
    min_units = 4

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = smac_spec(
            "ycsb-a", self.iterations,
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_dir=str(self.work_dir / "checkpoints"),
        )
        self.last: tuple[int, object] | None = None

    def specs(self):
        return [self.spec]

    def _count_writes(self, session) -> None:
        write = session.checkpoint

        def counted(*args, **kwargs):
            self.ops["checkpoint_writes"][0] += 1
            try:
                return write(*args, **kwargs)
            except BaseException:
                self.ops["checkpoint_writes"][1] += 1
                raise

        session.checkpoint = counted

    def unit(self, unit, budget, hooked):
        spec = self.prepared(self.spec, budget, hooked, extra=self._count_writes)
        seeds = [session_seed(self.seed, unit, j)
                 for j in range(self.sessions_per_unit)]
        results = self.timed(lambda: run_spec(spec, seeds))
        if hooked:
            self.last = (seeds[-1], results[-1])
        return [(f"ycsb-a/{s}", r) for s, r in zip(seeds, results)]

    def check(self):
        # The last checkpoint of the last session must restore into a
        # freshly built session with an identical knowledge base.
        seed, result = self.last
        path = self.spec.checkpoint_path(seed)
        fresh = self.spec.build(seed)
        fresh.load_checkpoint(path)
        self.compare("checkpoint-reload", result, fresh.result())


class WaveMixed(Workload):
    name = "wave-mixed"
    seeds_per_workload = 4
    min_units = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.by_workload = {
            w: smac_spec(w, self.iterations, wave_threads=1)
            for w in ("ycsb-a", "tpcc")
        }
        self.subject = None

    def specs(self):
        return list(self.by_workload.values())

    def unit(self, unit, budget, hooked):
        specs = {w: self.prepared(spec, budget, hooked)
                 for w, spec in self.by_workload.items()}
        seeds = [session_seed(self.seed, unit, j)
                 for j in range(self.seeds_per_workload)]
        tasks = [(w, spec, s) for w, spec in specs.items() for s in seeds]
        results = self.timed(
            lambda: run_wave_mixed([(spec, s) for __, spec, s in tasks]))
        pairs = [(f"{w}/{s}", r) for (w, __, s), r in zip(tasks, results)]
        if hooked and unit == 0:
            index = self.seed % len(tasks)
            self.subject = (tasks[index][0], tasks[index][2], results[index])
        return pairs

    def check(self):
        workload, seed, result = self.subject
        solo = run_spec(self.by_workload[workload], [seed])[0]
        self.compare("wave-member-vs-solo", result, solo)


class GpboSeq(Workload):
    name = "gpbo-seq"
    min_units = 8

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = SessionSpec(
            workload="tpcc",
            optimizer="gp-bo",
            adapter=llamatune_factory(),
            n_iterations=self.iterations,
            n_init=N_INIT,
            optimizer_kwargs=(("refit_every", GPBO_REFIT_EVERY),),
        )
        self.subject = None

    def specs(self):
        return [self.spec]

    def unit(self, unit, budget, hooked):
        spec = self.prepared(self.spec, budget, hooked)
        seed = session_seed(self.seed, unit, 0)
        result = self.timed(lambda: run_spec(spec, [seed]))[0]
        if hooked and unit == 0:
            self.subject = (seed, result)
        return [(f"tpcc/{seed}", result)]

    def check(self):
        seed, result = self.subject
        in_wave = run_wave(self.spec, [seed])[0]
        self.compare("sequential-vs-one-member-wave", result, in_wave)


class ServeSim(Workload):
    name = "serve-sim"
    min_units = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.by_workload = {
            w: smac_spec(w, self.iterations) for w in ("ycsb-a", "tpcc")
        }
        self.latencies: list[float] = []  # seconds, tenant side
        self.epochs = 0  # waves, counted from the tenants' side
        self.waves = ServerWaves() if self.tracer is not None else None
        self.subject = None

    def wave_threads(self) -> int:
        return SERVER_WAVE_THREADS

    def tenant_spec(self, member: int, budget: int) -> tuple[str, SessionSpec]:
        workload = ("ycsb-a", "tpcc")[member % 2]
        return workload, self.prepared(
            self.by_workload[workload], budget, hooked=False)

    async def open_unit(self, server, unit, budget, hooked):
        tenants = []
        for member in range(SERVE_TENANTS):
            workload, spec = self.tenant_spec(member, budget)
            seed = session_seed(self.seed, unit, member)
            key = await server.open(f"tenant-{member}", spec, seed)
            session = server.session(key)
            if hooked and self.tracer is not None:
                # The server builds and starts the session in ``open``;
                # wrap it now, before its first suggest.
                instrument_session(self.tracer, session)
                optimizer = session.optimizer
                optimizer.suggest_prepare = self.waves.watch(
                    key, optimizer.suggest_prepare)
            tenants.append((workload, seed, key, session))
        return tenants

    async def tenant(self, server, key, session, timed: bool) -> None:
        """The ``serve`` CLI's in-process tenant loop."""
        clock = self.clock
        sent_epoch = self.epochs
        requests = self.ops["requests"] if timed else [0, 0]
        while session.live:
            if timed and self.waves is not None:
                self.waves.suggest_called(key)
            requests[0] += 1
            started = clock()
            try:
                config = await server.suggest(key)
            except BaseException:
                requests[1] += 1
                raise
            if timed:
                self.latencies.append(clock() - started)
                if sent_epoch == self.epochs:
                    # First tenant to resume since the wave that served
                    # it: every future of a wave resolves before any
                    # tenant resumes, so this opens the next epoch.
                    self.epochs += 1
                if self.waves is not None:
                    self.waves.tenant_resumed()
            sent_epoch = self.epochs
            requests[0] += 1
            try:
                try:
                    outcome = session.simulator.evaluate(config, rng=session.rng)
                except DbmsCrashError:
                    await server.observe(key, crashed=True)
                else:
                    await server.observe(key, measurement=outcome)
            except BaseException:
                requests[1] += 1
                raise

    async def serve_unit(self, server, tenants, timed: bool):
        started = self.clock()
        await asyncio.gather(*(
            self.tenant(server, key, session, timed)
            for __, __, key, session in tenants))
        if timed:
            self.timed_s += self.clock() - started
        if server.quarantined():
            raise RuntimeError(f"quarantined sessions: {server.quarantined()}")
        return [(f"{w}/{s}", await server.close(key, checkpoint=False))
                for w, s, key, __ in tenants]

    async def serve(self, seconds, started, setup_only):
        async with SessionServer(
            gather_window=GATHER_WINDOW_S, wave_threads=SERVER_WAVE_THREADS
        ) as server:
            warm = await self.open_unit(
                server, WARM_UP_UNIT, N_INIT + 2, hooked=False)
            await self.serve_unit(server, warm, timed=False)
            tenants = await self.open_unit(server, 0, self.iterations, hooked=True)
            setup_s = self.clock() - started
            if setup_only:
                for __, __, key, __ in tenants:
                    await server.close(key, checkpoint=False)
                return setup_s
            if self.tracer is not None:
                self.tracer.reset()
            phase_start = self.clock()
            while True:
                results = await self.serve_unit(server, tenants, timed=True)
                if self.units == 0:
                    index = self.seed % len(tenants)
                    workload, seed = tenants[index][:2]
                    self.subject = (workload, seed, results[index][1])
                self.collect(results)
                self.units += 1
                if (self.units >= self.min_units
                        and self.clock() - phase_start >= seconds):
                    return setup_s
                tenants = await self.open_unit(
                    server, self.units, self.iterations, hooked=True)

    def run(self, seconds, started, setup_only=False):
        return asyncio.run(self.serve(seconds, started, setup_only))

    def suggest_samples_ms(self):
        samples = [s * 1e3 for s in self.latencies]
        return samples, {"requests": len(samples), "waves": self.epochs}

    def check(self):
        workload, seed, result = self.subject
        solo = run_spec(self.by_workload[workload], [seed])[0]
        self.compare("tenant-vs-solo", result, solo)


WORKLOADS = {cls.name: cls for cls in (SeqCkpt, WaveMixed, GpboSeq, ServeSim)}
