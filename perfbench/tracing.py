"""Timing shims for the traced benchmark run, kept in the benchmark's own files.

The program has no tracer of its own, so the traced run wraps the public
calls into each layer from the outside and records one span per call:

* instance wrappers on the objects the benchmark builds — each session's
  optimizer, adapter, simulator and ``checkpoint`` method;
* class-level wrappers only for objects the program creates internally —
  the per-round forests and GPs, and ``KnowledgeBase.record`` — plus the
  ``predict_mean_var_stacked`` and ``expected_improvement`` names the
  wave scheduler looks up in ``repro.tuning.wave``.

None of the shims changes which path the program picks: instance
attributes leave ``type(sim).evaluate`` untouched (the simulator's batch
path and the wave grouping compare it), and method wrappers on the
forest class keep ``isinstance(model, RandomForestRegressor)`` true.

A span's self time is its duration minus the time covered by the spans
it encloses.  The program is single-threaded here, so enclosed spans
never overlap and one stack of open spans is enough.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field

#: The layers the per-layer metrics report, named after the ``repro``
#: packages whose public calls the spans wrap.  A span's layer is its
#: name's prefix.
LAYERS = ("optimizers", "core", "dbms", "tuning")


@dataclass
class SpanStats:
    """Totals of one span name: calls, wall and self seconds, and the
    work counts some spans carry (rows scored or evaluated, crashed
    rows, stacked members, bytes written)."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


class Tracer:
    """Span recorder over an injected clock (``perf_counter`` by default)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.root_time = 0.0  # time covered by outermost spans
        self._open: list[list[float]] = []  # child time of each open span

    def span_stats(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def reset(self) -> None:
        """Forget everything recorded so far (the warm-up's spans), keeping
        the stats objects the installed shims hold."""
        for stats in self.stats.values():
            stats.calls = 0
            stats.total = stats.self_time = 0.0
            stats.counts.clear()
        self.root_time = 0.0

    def wrap(self, name: str, fn, after=None, crash_error=None):
        """``fn`` timed as span ``name``.  ``after(stats, args, result)``
        adds work counts on success; ``crash_error`` is an exception type
        counted as one crashed row before it propagates."""
        stats = self.span_stats(name)
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if crash_error is not None and isinstance(exc, crash_error):
                    stats.add("rows", 1)
                    stats.add("crashed", 1)
                raise
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                else:
                    self.root_time += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children[0]
            if after is not None:
                after(stats, args, result)
            return result

        return shim


def _rows_arg(index: int):
    """Counts ``len(args[index])`` as rows (scored or converted)."""

    def after(stats, args, result):
        stats.add("rows", len(args[index]))

    return after


def _evaluated(stats, args, result):
    """Rows of a batch evaluation, and how many of them crashed."""
    stats.add("rows", len(result))
    stats.add("crashed", sum(1 for outcome in result if outcome is None))


def _stacked_scored(stats, args, result):
    forests, X = args[0], args[1]
    stats.add("rows", len(X))
    stats.add("members", len(forests))


def _checkpoint_written(stats, args, result):
    stats.add("bytes", os.path.getsize(result))


def instrument_session(tracer: Tracer, session) -> None:
    """Instance wrappers on one built session (call before ``run()``)."""
    from repro.dbms.errors import DbmsCrashError

    optimizer = session.optimizer
    for attr, name in (
        ("suggest", "optimizers.suggest"),
        ("suggest_init_batch", "optimizers.init_batch"),
        ("suggest_prepare", "optimizers.prepare"),
        ("suggest_finish", "optimizers.finish"),
        ("suggest_select", "optimizers.select"),
        ("observe", "optimizers.observe"),
    ):
        setattr(optimizer, attr, tracer.wrap(name, getattr(optimizer, attr)))
    adapter = session.adapter
    adapter.to_target = tracer.wrap("core.to_target", adapter.to_target)
    adapter.to_target_batch = tracer.wrap(
        "core.to_target_batch", adapter.to_target_batch, after=_rows_arg(0)
    )
    simulator = session.simulator
    simulator.evaluate = tracer.wrap(
        "dbms.evaluate", simulator.evaluate,
        after=lambda stats, args, result: stats.add("rows", 1),
        crash_error=DbmsCrashError,
    )
    simulator.evaluate_batch = tracer.wrap(
        "dbms.evaluate_batch", simulator.evaluate_batch, after=_evaluated
    )
    simulator.evaluate_batch_stacked = tracer.wrap(
        "dbms.evaluate_stacked", simulator.evaluate_batch_stacked,
        after=_evaluated,
    )
    session.checkpoint = tracer.wrap(
        "tuning.checkpoint", session.checkpoint, after=_checkpoint_written
    )


@contextlib.contextmanager
def class_shims(tracer: Tracer):
    """Class- and module-level wrappers for the objects the program
    creates internally; restored on exit."""
    from repro.optimizers.forest import RandomForestRegressor
    from repro.optimizers.gp import GaussianProcess
    from repro.tuning import wave
    from repro.tuning.knowledge_base import KnowledgeBase

    patches = (
        (RandomForestRegressor, "fit", "optimizers.forest_fit", None),
        (RandomForestRegressor, "predict_mean_var", "optimizers.score",
         _rows_arg(1)),
        (GaussianProcess, "fit", "optimizers.gp_fit", None),
        (GaussianProcess, "update", "optimizers.gp_update", None),
        (GaussianProcess, "predict_mean_var", "optimizers.gp_score",
         _rows_arg(1)),
        (KnowledgeBase, "record", "tuning.record", None),
        (wave, "predict_mean_var_stacked", "optimizers.score_stacked",
         _stacked_scored),
        (wave, "expected_improvement", "optimizers.ei", None),
    )
    saved = []
    try:
        for owner, attr, name, after in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after=after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class ServerWaves:
    """Wave accounting for the session server, from the tenants' side.

    A wave's ``suggest_prepare`` calls run back to back on the event loop
    before any tenant resumes, so the first prepare after a tenant resumed
    opens a new wave.  The gather wait of a request runs from its tenant's
    ``suggest`` call to the first prepare of the wave that serves it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.waves = 0
        self.requests = 0
        self.gather_wait = 0.0
        self._called: dict = {}
        self._wave_start: float | None = None

    def suggest_called(self, key) -> None:
        self._called[key] = self.clock()

    def tenant_resumed(self) -> None:
        self._wave_start = None

    def watch(self, key, prepare):
        """``prepare`` (a session's ``suggest_prepare``) with wave marks."""

        @functools.wraps(prepare)
        def marked(*args, **kwargs):
            if self._wave_start is None:
                self._wave_start = self.clock()
                self.waves += 1
            self.requests += 1
            self.gather_wait += self._wave_start - self._called.pop(key)
            return prepare(*args, **kwargs)

        return marked


def _mean(total: float, calls: float) -> float:
    return total / calls if calls else 0.0


def layer_metrics(
    tracer: Tracer,
    wall: float,
    observations: int,
    waves: ServerWaves | None = None,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``, each mean beside
    its call count and each ratio beside its base.  Spans the workload
    never entered report 0 with 0 calls.  The tracing overhead needs the
    untraced run's rate and is added by :func:`overhead_metrics`."""
    s = tracer.span_stats

    def count(name: str, key: str) -> float:
        return s(name).counts.get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        spans = [st for name, st in tracer.stats.items()
                 if name.split(".")[0] == layer]
        busy = sum(st.self_time for st in spans)
        out[f"{layer}.share"] = (busy / wall, "ratio")
        out[f"{layer}.self_s"] = (busy, "s")
        out[f"{layer}.calls"] = (sum(st.calls for st in spans), "count")

    fit = s("optimizers.forest_fit")
    out["optimizers.forest_fit_ms"] = (_mean(fit.total, fit.calls) * 1e3, "ms")
    out["optimizers.fit_calls"] = (fit.calls, "count")
    prepare = s("optimizers.prepare")
    out["optimizers.candidates_ms"] = (
        _mean(prepare.self_time, prepare.calls) * 1e3, "ms")
    out["optimizers.prepare_calls"] = (prepare.calls, "count")
    score, stacked = s("optimizers.score"), s("optimizers.score_stacked")
    score_calls = score.calls + stacked.calls
    out["optimizers.score_ms"] = (
        _mean(score.total + stacked.total, score_calls) * 1e3, "ms")
    out["optimizers.score_rows"] = (
        _mean(count("optimizers.score", "rows")
              + count("optimizers.score_stacked", "rows"), score_calls),
        "rows")
    out["optimizers.score_calls"] = (score_calls, "count")
    for short in ("gp_fit", "gp_update", "gp_score"):
        st = s(f"optimizers.{short}")
        out[f"optimizers.{short}_ms"] = (_mean(st.total, st.calls) * 1e3, "ms")
        out[f"optimizers.{short}_calls"] = (st.calls, "count")
    # EI plus selection: suggest_finish's own time is EI on the
    # sequential path; the wave scheduler calls EI and suggest_select apart.
    select = s("optimizers.select")
    out["optimizers.select_ms"] = (
        _mean(s("optimizers.finish").self_time + s("optimizers.ei").total
              + select.total, select.calls) * 1e3, "ms")
    out["optimizers.select_calls"] = (select.calls, "count")
    observe = s("optimizers.observe")
    out["optimizers.observe_us"] = (
        _mean(observe.total, observe.calls) * 1e6, "us")
    out["optimizers.observe_calls"] = (observe.calls, "count")

    scalar = s("core.to_target")
    out["core.to_target_us"] = (_mean(scalar.total, scalar.calls) * 1e6, "us")
    out["core.to_target_calls"] = (scalar.calls, "count")
    batch_rows = count("core.to_target_batch", "rows")
    out["core.to_target_batch_us_per_row"] = (
        _mean(s("core.to_target_batch").total, batch_rows) * 1e6, "us")
    out["core.to_target_batch_rows"] = (batch_rows, "rows")

    evaluate = s("dbms.evaluate")
    out["dbms.evaluate_us"] = (_mean(evaluate.total, evaluate.calls) * 1e6, "us")
    out["dbms.evaluate_calls"] = (evaluate.calls, "count")
    stacked_eval = s("dbms.evaluate_stacked")
    stacked_rows = count("dbms.evaluate_stacked", "rows")
    out["dbms.stacked_us_per_row"] = (
        _mean(stacked_eval.total, stacked_rows) * 1e6, "us")
    out["dbms.rows_per_call"] = (_mean(stacked_rows, stacked_eval.calls), "rows")
    out["dbms.stacked_calls"] = (stacked_eval.calls, "count")
    batch_eval = s("dbms.evaluate_batch")
    batch_eval_rows = count("dbms.evaluate_batch", "rows")
    out["dbms.batch_us_per_row"] = (
        _mean(batch_eval.total, batch_eval_rows) * 1e6, "us")
    out["dbms.batch_calls"] = (batch_eval.calls, "count")
    evaluated = sum(count(name, "rows") for name in (
        "dbms.evaluate", "dbms.evaluate_batch", "dbms.evaluate_stacked"))
    crashed = sum(count(name, "crashed") for name in (
        "dbms.evaluate", "dbms.evaluate_batch", "dbms.evaluate_stacked"))
    out["dbms.crash_share"] = (_mean(crashed, evaluated), "ratio")
    out["dbms.evaluated_rows"] = (evaluated, "rows")

    record = s("tuning.record")
    out["tuning.record_us"] = (_mean(record.total, record.calls) * 1e6, "us")
    out["tuning.record_calls"] = (record.calls, "count")
    ckpt = s("tuning.checkpoint")
    out["tuning.checkpoint_ms"] = (_mean(ckpt.total, ckpt.calls) * 1e3, "ms")
    out["tuning.checkpoint_kib"] = (
        _mean(count("tuning.checkpoint", "bytes"), ckpt.calls) / 1024, "KiB")
    out["tuning.checkpoint_writes"] = (ckpt.calls, "count")
    out["tuning.wave_members"] = (
        _mean(count("optimizers.score_stacked", "members"), stacked.calls),
        "rounds")
    out["tuning.stacked_scoring_calls"] = (stacked.calls, "count")
    waves = waves or ServerWaves()
    out["tuning.server.gather_wait_ms"] = (
        _mean(waves.gather_wait, waves.requests) * 1e3, "ms")
    out["tuning.server.wave_size"] = (_mean(waves.requests, waves.waves),
                                      "requests")
    out["tuning.server.waves"] = (waves.waves, "count")
    out["tuning.server.requests"] = (waves.requests, "count")

    out["trace.unattributed_share"] = ((wall - tracer.root_time) / wall, "ratio")
    out["trace.wall_s"] = (wall, "s")
    out["trace.iters_per_s"] = (observations / wall, "1/s")
    out["trace.spans"] = (sum(st.calls for st in tracer.stats.values()), "count")
    return out


def overhead_metrics(
    traced_iters_per_s: float, untraced_iters_per_s: float
) -> dict[str, tuple[float, str]]:
    """The trace's own cost: how much slower the traced run iterated than
    the untraced run of the same workload and seed, with both rates."""
    return {
        "trace.overhead_pct": (
            (untraced_iters_per_s / traced_iters_per_s - 1.0) * 100.0, "%"),
        "trace.untraced_iters_per_s": (untraced_iters_per_s, "1/s"),
    }
