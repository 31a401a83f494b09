"""Reference simulator pass: per-column context, per-value categoricals.

``ReferenceContext`` gathers N rows the way the simulator did before it
compiled an evaluation plan: one ``np.asarray`` per knob column (object
arrays for categoricals), ``is_on`` as an object-array compare,
``map_values`` as one dict lookup per value, and every special-value
resolution recomputed on each call.  ``texture_score`` embeds each column
with its own loop and sums the contributions in a knob-by-knob Python
loop, and :func:`evaluate` runs the engine's tail with per-column
``asarray``/``broadcast_to`` and per-value ``float()``.

None of it shares fill, lookup or reduction code with
:mod:`repro.dbms.plan`, :mod:`repro.dbms.context` or the engine's pass.
The ten other component models and the latency model are the model
itself, so they run unchanged on the reference context.
``tests/test_sim_reference.py`` pins the plan pass to this module byte for
byte.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.dbms.components import BATCH_COMPONENTS
from repro.dbms.engine import Measurement, PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.space.postgres import PAGE_SIZE, postgres_space_for_version

KIB = 1024
MIB = 1024**2
_AMPLITUDE = 0.0035


class ReferenceContext:
    """The component models' context, one column array per knob."""

    def __init__(self, columns: dict[str, np.ndarray], workload, hardware, version, n):
        self.columns = columns
        self.workload = workload
        self.hardware = hardware
        self.version = version
        self.n = n
        self.notes: dict[str, Any] = {}
        self.crashed = np.zeros(n, dtype=bool)
        self.crash_messages: dict[int, str] = {}

    @classmethod
    def from_values(cls, rows, workload, hardware, version) -> "ReferenceContext":
        """One column per knob, in the first row's order: object arrays for
        strings, ``np.asarray``'s own dtype otherwise."""
        columns: dict[str, np.ndarray] = {}
        for name in rows[0]:
            values = [row[name] for row in rows]
            if isinstance(values[0], str):
                columns[name] = np.array(values, dtype=object)
            else:
                columns[name] = np.asarray(values)
        return cls(columns, workload, hardware, version, len(rows))

    def get(self, name: str, default=None):
        column = self.columns.get(name)
        if column is not None:
            return column
        if default is None:
            raise KeyError(f"knob {name} absent and no default given")
        return default

    def is_on(self, name: str, default: str = "on"):
        column = self.columns.get(name)
        if column is None:
            return np.bool_(default == "on")
        return column == "on"

    def map_values(self, name: str, mapping: Mapping[str, float]) -> np.ndarray:
        return np.array([mapping[str(v)] for v in self.columns[name]])

    def flag_crashes(self, mask, message: Callable[[int], str]) -> None:
        fresh = np.asarray(mask, dtype=bool) & ~self.crashed
        for i in np.flatnonzero(fresh):
            self.crash_messages[int(i)] = message(int(i))
        self.crashed |= fresh

    def shared_buffers_bytes(self):
        return self.get("shared_buffers") * PAGE_SIZE

    def wal_buffers_bytes(self):
        raw = self.get("wal_buffers")
        auto = np.minimum(
            np.maximum(self.shared_buffers_bytes() // 32, 64 * KIB), 16 * MIB
        )
        return np.where(raw == -1, auto, raw * PAGE_SIZE)

    def autovacuum_work_mem_bytes(self):
        raw = self.get("autovacuum_work_mem")
        return np.where(raw == -1, self.get("maintenance_work_mem") * KIB, raw * KIB)

    def autovacuum_cost_delay_ms(self):
        raw = self.get("autovacuum_vacuum_cost_delay")
        return np.where(raw == -1, self.get("vacuum_cost_delay"), raw).astype(float)

    def autovacuum_cost_limit(self):
        raw = self.get("autovacuum_vacuum_cost_limit")
        return np.where(raw == -1, self.get("vacuum_cost_limit"), raw).astype(float)


def _knob_coefficients(workload_name: str, knob_name: str):
    digest = hashlib.sha256(f"{workload_name}:{knob_name}".encode()).digest()
    a = int.from_bytes(digest[0:4], "big") / 2**32 * 2.0 - 1.0
    b = int.from_bytes(digest[4:8], "big") / 2**32 * 2.0 - 1.0
    phase = int.from_bytes(digest[8:12], "big") / 2**32 * 2.0 * math.pi
    return a, b, phase


def _string_unit(value: str) -> float:
    digest = hashlib.sha256(value.encode()).digest()
    return int.from_bytes(digest[:4], "big") / 2**32


def _unit_matrix(ctx: ReferenceContext, names: tuple[str, ...]) -> np.ndarray:
    unit = np.empty((ctx.n, len(names)))
    numeric_js = []
    for j, name in enumerate(names):
        column = ctx.columns[name]
        if column.dtype == object:
            unit[:, j] = [_string_unit(v) for v in column]
        else:
            unit[:, j] = column
            numeric_js.append(j)
    numeric = unit[:, numeric_js]
    unit[:, numeric_js] = 0.5 + np.arctan(
        numeric / (1.0 + np.abs(numeric) * 0.5)
    ) / math.pi
    return unit


def texture_score(ctx: ReferenceContext) -> np.ndarray:
    names = tuple(ctx.columns)
    coeffs = [_knob_coefficients(ctx.workload.name, name) for name in names]
    a, b, phase = (np.array(column) for column in zip(*coeffs))
    unit = _unit_matrix(ctx, names)
    contributions = _AMPLITUDE * (
        a * np.sin(2.0 * math.pi * unit + phase) + b * (unit - 0.5)
    )
    total = np.zeros(ctx.n)
    for j in range(contributions.shape[1]):
        total = total + contributions[:, j]
    return np.exp(total)


#: The engine's components with texture swapped for its reference.
COMPONENTS = {
    name: texture_score if name == "texture" else fn
    for name, fn in BATCH_COMPONENTS.items()
}


def component_scores(ctx: ReferenceContext) -> dict[str, np.ndarray]:
    scores = {}
    for name, fn in COMPONENTS.items():
        score = np.asarray(fn(ctx), dtype=float)
        scores[name] = (
            score if score.shape == (ctx.n,) else np.broadcast_to(score, (ctx.n,))
        )
    return scores


def raw_throughput(workload, scores: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    log_sum = np.zeros(n)
    for name, score in scores.items():
        weight = workload.weight(name)
        if weight:
            log_sum = log_sum + weight * np.log(np.maximum(score, 1e-9))
    return np.exp(log_sum)


def derive_metrics(notes, throughput, clients, read_fraction) -> dict[str, np.ndarray]:
    throughput = np.asarray(throughput, dtype=float)
    n = throughput.shape[0]

    def note(key, default):
        return notes.get(key, default)

    hit_ratio = note("buffer_hit_ratio", 0.5)
    os_hit = note("os_cache_hit_ratio", 0.3)
    miss = note("blks_read_fraction", 0.1)
    writes = 1.0 - read_fraction
    wal_bytes = note("wal_bytes_per_txn", 30000.0)
    burst = note("checkpoint_burst", 0.3)
    spill = note("temp_spill_ratio", 0.0)
    metrics = {
        "xact_commit_rate": throughput,
        "xact_rollback_rate": throughput * 0.01
        + throughput * note("deadlocks_per_min", 0.0) * 0.001,
        "blks_read_rate": throughput * 6.0 * miss,
        "blks_hit_rate": throughput * 6.0 * hit_ratio,
        "buffer_hit_ratio": hit_ratio,
        "os_cache_hit_ratio": os_hit,
        "tup_returned_rate": throughput * 6.0 * 3.0,
        "tup_inserted_rate": throughput * writes * 1.5,
        "tup_updated_rate": throughput * writes * 2.5,
        "tup_deleted_rate": throughput * writes * 0.3,
        "wal_bytes_rate": throughput * writes * wal_bytes,
        "checkpoints_per_run": note("checkpoints_per_run", 1.0),
        "checkpoint_write_time": burst * 100.0,
        "buffers_checkpoint": throughput * writes * burst * 2.0,
        "buffers_clean": note("bgwriter_flushes", 1.0) * 100.0,
        "buffers_backend": throughput * writes * 0.5,
        "maxwritten_clean": burst * 10.0,
        "dead_tuple_ratio": note("dead_tuple_ratio", 0.05),
        "autovacuum_runs": note("autovacuum_runs", 1.0),
        "temp_files_rate": throughput * spill * 0.1,
        "temp_bytes_rate": throughput * spill * 1e5,
        "deadlocks_per_min": note("deadlocks_per_min", 0.0),
        "lock_wait_fraction": note("lock_wait_fraction", 0.0),
        "active_connections": float(clients),
        "cpu_utilization": np.minimum(1.0, 0.3 + 0.5 * hit_ratio),
        "io_utilization": np.minimum(1.0, miss * 2.0 + writes * 0.4),
        "memory_pressure": note("memory_pressure", 0.3),
    }
    out = {}
    for key, value in metrics.items():
        column = np.asarray(value, dtype=float)
        out[key] = column if column.shape == (n,) else np.broadcast_to(column, (n,))
    return out


def context(simulator: PostgresSimulator, rows) -> ReferenceContext:
    return ReferenceContext.from_values(
        rows, simulator.workload, simulator.hardware, simulator.version
    )


def calibration(simulator: PostgresSimulator) -> float:
    """The calibration factor, recomputed from the default configuration."""
    default = postgres_space_for_version(simulator.version.name).default_configuration()
    scores = component_scores(context(simulator, [default]))
    raw = float(raw_throughput(simulator.workload, scores, 1)[0])
    target = simulator.workload.base_throughput * simulator.version.baseline_scale(
        simulator.workload.name
    )
    return target / raw


def evaluate(
    simulator: PostgresSimulator,
    configs: Sequence[Mapping],
    rng_blocks: Sequence[tuple[np.random.Generator | None, int]],
    on_crash: str,
) -> list[Measurement | None]:
    """The whole evaluation pass, with the semantics of the simulator's
    ``evaluate_batch_stacked`` (and, with one block, ``evaluate_batch``)
    under ``on_crash="none"``.  ``on_crash="raise"`` (one block) is the
    semantics of one-row ``evaluate`` calls in row order: the rows before
    the first crash draw their noise, then its ``DbmsCrashError``."""
    n = len(configs)
    ctx = context(simulator, configs)
    scores = component_scores(ctx)
    crashed = ctx.crashed
    if on_crash == "raise" and crashed.any():
        first = int(np.flatnonzero(crashed)[0])
        ((rng, __),) = rng_blocks
        if rng is not None and simulator.noise_std > 0:
            rng.standard_normal((first, 2))
        raise DbmsCrashError(ctx.crash_messages[first])

    throughput = calibration(simulator) * raw_throughput(simulator.workload, scores, n)
    p95_noise = None
    if simulator.noise_std > 0 and any(r is not None for r, __ in rng_blocks):
        alive = ~crashed
        draws = np.zeros((int(alive.sum()), 2))
        filled = start = 0
        for block_rng, count in rng_blocks:
            block_alive = int(alive[start:start + count].sum())
            if block_rng is not None:
                draws[filled:filled + block_alive] = block_rng.standard_normal(
                    (block_alive, 2)
                )
            filled += block_alive
            start += count
        throughput_noise = np.ones(n)
        throughput_noise[alive] = np.exp(draws[:, 0] * simulator.noise_std)
        p95_noise = np.ones(n)
        p95_noise[alive] = np.exp(draws[:, 1] * (simulator.noise_std * 2.0))
        throughput = throughput * throughput_noise

    p95 = simulator._p95_latency_ms_batch(ctx, throughput)
    if p95_noise is not None:
        p95 = p95 * p95_noise
    metric_columns = derive_metrics(
        ctx.notes,
        throughput=throughput,
        clients=simulator.workload.clients,
        read_fraction=simulator.workload.read_txn_fraction,
    )
    results: list[Measurement | None] = []
    for i in range(n):
        if crashed[i]:
            results.append(None)
            continue
        results.append(
            Measurement(
                throughput=float(throughput[i]),
                p95_latency_ms=float(p95[i]),
                metrics={k: float(c[i]) for k, c in metric_columns.items()},
                component_scores={k: float(c[i]) for k, c in scores.items()},
            )
        )
    return results
