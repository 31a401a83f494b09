"""The analytical PostgreSQL performance simulator.

:class:`PostgresSimulator` stands in for the paper's testbed (a real
PostgreSQL on CloudLab, Section 6.1).  Given a knob configuration it returns
a :class:`Measurement` — throughput, 95th-percentile latency, and 27
internal metrics — in microseconds instead of the 5-minute workload runs the
paper needs, while preserving the structural properties that make DBMS
tuning hard: low effective dimensionality with workload-dependent important
knobs, special-value discontinuities, non-monotone memory trade-offs,
measurement noise, and crashes.

Throughput composes the component scores as a weighted geometric product::

    throughput = calibration * prod_c score_c(config) ** weight_workload(c)

calibrated so the DBMS default configuration lands on the workload's
``base_throughput`` (times the version's baseline multiplier).

The simulator is array-native: :meth:`PostgresSimulator.evaluate_batch`
runs one whole-matrix pass — batched component scores over a
:class:`~repro.dbms.context.BatchEvalContext`, a single weighted-geometric
reduction, vectorized noise draws, and batched latency/metric derivation —
and the scalar :meth:`~PostgresSimulator.evaluate` is a one-row call into
the same pipeline, which makes batch results bit-identical to N scalar
calls by construction.  ``evaluate`` raises a crash as
:class:`~repro.dbms.errors.DbmsCrashError`; the batch entry points return
``None`` for a crashed row.  Each simulator compiles one
:class:`~repro.dbms.plan.EvalPlan` per row layout on first use; every pass
fills its context through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.dbms.components import BATCH_COMPONENTS
from repro.dbms.context import BatchEvalContext
from repro.dbms.errors import DbmsCrashError
from repro.dbms.hardware import C220G5, Hardware
from repro.dbms.metrics import METRIC_NAMES, derive_metrics_batch
from repro.dbms.plan import EvalPlan
from repro.dbms.versions import V96, PostgresVersion
from repro.space.configspace import Configuration
from repro.space.knob import KnobValue
from repro.space.postgres import postgres_space_for_version
from repro.workloads.base import Workload

#: Default configurations per catalog version, built once per process.
#: ``postgres_v96_space()`` reconstructs all 90 knob objects on every call,
#: which used to happen once per simulator during calibration.
# repro-lint: allow[module-state] reason=keyed by catalog version name, at most one entry per version; the value is a pure function of its key, so fill order and forked copies cannot change a result
_DEFAULT_CONFIG_CACHE: dict[str, Configuration] = {}

#: Calibration factors keyed on the *value identity* of (simulator class,
#: workload, version, hardware).  Profiles are frozen dataclasses, so two
#: structurally equal profiles — even freshly constructed ones, as in
#: parameter sweeps — share one cache entry, and the cache holds no object
#: references that would pin profiles alive.
# repro-lint: allow[module-state] reason=keyed by profile values, one entry per distinct testbed; the factor is a pure function of its key, so fill order and forked copies cannot change a result
_CALIBRATION_CACHE: dict[tuple, float] = {}

#: Component names in evaluation order (the rows of the score matrix).
COMPONENT_NAMES: tuple[str, ...] = tuple(BATCH_COMPONENTS)

#: Utilization at which the open-loop queueing model saturates.
_RHO_SATURATION = 0.97


def _profile_key(profile) -> tuple:
    """Hashable value identity for a frozen profile dataclass.

    Mapping-valued fields (workload weights, version base multipliers) are
    flattened to sorted item tuples because ``MappingProxyType`` is
    unhashable.
    """
    parts: list = [type(profile)]
    for field in dataclasses.fields(profile):
        value = getattr(profile, field.name)
        if isinstance(value, Mapping):
            value = tuple(sorted(value.items()))
        parts.append((field.name, value))
    return tuple(parts)


def _default_configuration(version: PostgresVersion) -> Configuration:
    """The DBMS default configuration for a version's knob catalog (cached)."""
    config = _DEFAULT_CONFIG_CACHE.get(version.name)
    if config is None:
        config = postgres_space_for_version(version.name).default_configuration()
        _DEFAULT_CONFIG_CACHE[version.name] = config
    return config


@dataclass(frozen=True)
class Measurement:
    """Result of running the workload once under a configuration."""

    throughput: float
    p95_latency_ms: float
    metrics: Mapping[str, float]
    component_scores: Mapping[str, float]

    def value(self, objective: str) -> float:
        """The scalar the optimizer sees for a given objective."""
        if objective == "throughput":
            return self.throughput
        if objective == "latency":
            return self.p95_latency_ms
        raise ValueError(f"unknown objective {objective!r}")


class PostgresSimulator:
    """Simulated DBMS + benchmark driver for one workload.

    Args:
        workload: The workload descriptor to drive.
        version: PostgreSQL version profile (``V96`` or ``V136``).
        hardware: Machine profile; defaults to the paper's c220g5 node.
        noise_std: Standard deviation of the multiplicative lognormal
            measurement noise.  Set to 0 for deterministic evaluations.
        target_rate: If given, latency is computed for an open-loop arrival
            rate (requests/second) as in the paper's tail-latency experiments
            (Table 6); otherwise for the closed-loop 40-client run.
    """

    def __init__(
        self,
        workload: Workload,
        version: PostgresVersion = V96,
        hardware: Hardware = C220G5,
        noise_std: float = 0.02,
        target_rate: float | None = None,
    ):
        self.workload = workload
        self.version = version
        self.hardware = hardware
        self.noise_std = noise_std
        self.target_rate = target_rate
        self._calibration: float | None = None
        #: One compiled evaluation plan per row knob-name tuple.
        self._plans: dict[tuple[str, ...], EvalPlan] = {}

    # --- internals ---------------------------------------------------------

    def stack_key(self) -> tuple:
        """Value identity for cross-session stacking: two simulators with
        equal keys produce identical component scores and calibration for
        any configuration row, so their sessions' evaluations may share
        one :meth:`evaluate_batch_stacked` matrix pass (noise stays
        per-session via rng blocks).  The key extends the calibration
        cache's ``(class, workload, version, hardware)`` identity with the
        two evaluation parameters calibration does not capture
        (``noise_std`` scales the per-row draws; ``target_rate`` switches
        the latency model)."""
        return (
            type(self),
            _profile_key(self.workload),
            _profile_key(self.version),
            _profile_key(self.hardware),
            float(self.noise_std),
            self.target_rate,
        )

    def _batch_context(
        self, rows: Sequence[Mapping[str, KnobValue]]
    ) -> BatchEvalContext:
        """Fill a context through this simulator's plan for the rows'
        layout, compiling the plan on first use."""
        first = rows[0]
        names = first.space.names if isinstance(first, Configuration) else tuple(first)
        plan = self._plans.get(names)
        if plan is None:
            plan = self._plans[names] = EvalPlan.for_rows(
                rows, self.workload, self.hardware, self.version
            )
        return BatchEvalContext.from_values(rows, plan)

    @staticmethod
    def _component_scores_batch(ctx: BatchEvalContext) -> np.ndarray:
        """All component scores as one ``(C, N)`` matrix in
        :data:`COMPONENT_NAMES` order (scalar scores broadcast); crash rows
        are flagged on the context rather than raised."""
        scores = np.empty((len(BATCH_COMPONENTS), ctx.n))
        for k, fn in enumerate(BATCH_COMPONENTS.values()):
            scores[k] = fn(ctx)
        return scores

    @staticmethod
    def _raw_throughput_batch(plan: EvalPlan, scores: np.ndarray) -> np.ndarray:
        """One weighted-geometric-product reduction over all rows.  The
        log terms are summed component by component, in evaluation order."""
        if not len(plan.weighted):
            return np.ones(scores.shape[1])
        terms = np.log(np.maximum(scores[plan.weighted], 1e-9)) * plan.weights
        return np.exp(np.add.accumulate(terms, axis=0)[-1])

    def _calibrate(self) -> float:
        """Scale factor mapping raw products onto calibrated req/s.

        Calibrates against the simulator's own version catalog (v13.6 runs
        use the v13.6 defaults) and caches the factor per (class, workload,
        version, hardware) *value* at module level, so building many
        simulators — or rebuilding structurally identical profiles in a
        sweep — never recomputes or leaks.
        """
        if self._calibration is None:
            key = (
                type(self),
                _profile_key(self.workload),
                _profile_key(self.version),
                _profile_key(self.hardware),
            )
            hit = _CALIBRATION_CACHE.get(key)
            if hit is None:
                default = _default_configuration(self.version)
                ctx = self._batch_context([default])
                scores = self._component_scores_batch(ctx)
                raw = float(self._raw_throughput_batch(ctx.plan, scores)[0])
                target = self.workload.base_throughput * self.version.baseline_scale(
                    self.workload.name
                )
                hit = target / raw
                _CALIBRATION_CACHE[key] = hit
            self._calibration = hit
        return self._calibration

    def _p95_latency_ms_batch(
        self, ctx: BatchEvalContext, throughput: np.ndarray
    ) -> np.ndarray:
        wl = self.workload
        burst = ctx.notes.get("checkpoint_burst", 0.3)
        lock_wait = ctx.notes.get("lock_wait_fraction", 0.0)
        tail_factor = 1.6 + 2.2 * burst * wl.write_txn_fraction + 1.5 * lock_wait
        commit_delay_ms = ctx.get("commit_delay", 0) / 1000.0

        if self.target_rate is None:
            # Closed loop: mean latency is clients / throughput.
            mean_ms = 1000.0 * wl.clients / throughput
            return mean_ms * tail_factor + commit_delay_ms * 0.8

        # Open loop at a fixed arrival rate: queueing inflates the tail as
        # utilization approaches the configuration's capacity.
        rho = self.target_rate / np.maximum(throughput, 1e-9)
        service_ms = 1000.0 * wl.clients / np.maximum(throughput, 1e-9) * 0.25
        # Damped queueing tail: superlinear in utilization but without the
        # 1/(1-rho) blow-up, so moderate capacity differences translate to
        # moderate tail-latency differences (the paper's 3-15% reductions).
        capped = np.minimum(rho, _RHO_SATURATION)
        queue = 1.0 + 0.8 * capped + 0.25 * capped**2 / np.sqrt(1.0 - capped)
        p95 = service_ms * queue * tail_factor + commit_delay_ms * 0.8
        # Past saturation the tail explodes, but *continuously*: the factor
        # is exactly 1 at the threshold and grows quartically with excess
        # utilization, so the saturated branch keeps the tail_factor and
        # commit-delay terms instead of jumping to a disconnected regime.
        excess = np.maximum(0.0, rho - _RHO_SATURATION) / (1.0 - _RHO_SATURATION)
        return p95 * (1.0 + excess) ** 4

    # --- public API ---------------------------------------------------------

    def evaluate(
        self,
        config: Configuration | Mapping[str, KnobValue],
        rng: np.random.Generator | None = None,
    ) -> Measurement:
        """Run the workload once under ``config`` (a one-row pass).

        Raises:
            DbmsCrashError: If the configuration cannot be started (e.g.
                memory over-commit).  Callers implementing the paper's
                protocol should convert this into the ¼-of-worst penalty.
        """
        ctx, scores = self._scored([config])
        if ctx.crashed[0]:
            raise DbmsCrashError(ctx.crash_messages[0])
        return self._measured(ctx, scores, [(rng, 1)])[0]

    def evaluate_batch(
        self,
        configs: Sequence[Configuration | Mapping[str, KnobValue]],
        rng: np.random.Generator | None = None,
    ) -> list[Measurement | None]:
        """Run the workload once under each of ``N`` configurations;
        ``None`` for each configuration that crashes the DBMS.

        One whole-matrix pass: the component models evaluate all rows at
        once, throughput is one weighted-geometric reduction, noise is one
        vectorized draw, and latency/metrics derive in bulk.  Results
        (including the noise stream drawn from ``rng``) are bit-identical
        to calling :meth:`evaluate` sequentially — per-row noise pairs are
        drawn in row order and crashing rows draw no noise, exactly like
        the one-row path.  A subclass that customizes :meth:`evaluate`
        (failure injection, real-DBMS drivers) is honored row by row, a
        :class:`DbmsCrashError` it raises recorded as that row's ``None``.

        Args:
            configs: Configurations to evaluate, in order.
            rng: Optional noise stream, consumed in configuration order.
        """
        if type(self).evaluate is PostgresSimulator.evaluate:
            return self._evaluate_native(configs, [(rng, len(configs))])
        results: list[Measurement | None] = []
        for config in configs:
            try:
                results.append(self.evaluate(config, rng=rng))
            except DbmsCrashError:
                results.append(None)
        return results

    def evaluate_batch_stacked(
        self,
        configs: Sequence[Configuration | Mapping[str, KnobValue]],
        rng_blocks: Sequence[tuple[np.random.Generator | None, int]],
    ) -> list[Measurement | None]:
        """One matrix pass over several sessions' rows, each block drawing
        its noise from its *own* stream.

        ``rng_blocks`` is a sequence of ``(rng, n_rows)`` pairs covering
        ``configs`` in order: the rows of block ``k`` draw their noise
        pairs from ``rng_blocks[k][0]`` exactly as a separate
        ``evaluate_batch(block_rows, rng=rng_k)`` call would (row order,
        crashed rows draw nothing), so per-session results and stream
        positions are bit-identical to evaluating each block on its own —
        the wave scheduler's cross-session contract.  Component scores are
        row-independent (batch == N scalar calls, the PR 2 pin), so
        stacking sessions changes no values.  A crashed row is ``None``.

        On a subclass that customizes :meth:`evaluate` or
        :meth:`evaluate_batch`, the blocks run as exactly those separate
        calls, one per block, so the override is never bypassed.
        """
        if sum(count for __, count in rng_blocks) != len(configs):
            raise ValueError("rng_blocks do not cover configs")
        if self.evaluates_natively():
            return self._evaluate_native(configs, rng_blocks)
        results: list[Measurement | None] = []
        start = 0
        for rng, count in rng_blocks:
            results += self.evaluate_batch(configs[start:start + count], rng=rng)
            start += count
        return results

    def evaluates_natively(self) -> bool:
        """Whether both evaluation entry points are the stock ones, so
        the matrix pass may serve any of this simulator's rows (and the
        wave scheduler may stack them with other sessions' rows)."""
        cls = type(self)
        return (
            cls.evaluate is PostgresSimulator.evaluate
            and cls.evaluate_batch is PostgresSimulator.evaluate_batch
        )

    def _evaluate_native(
        self,
        configs: Sequence[Configuration | Mapping[str, KnobValue]],
        rng_blocks: Sequence[tuple[np.random.Generator | None, int]],
    ) -> list[Measurement | None]:
        """The whole-matrix pass behind both batch entry points
        (``rng_blocks`` as in :meth:`evaluate_batch_stacked`; a block
        without a stream draws no noise)."""
        if len(configs) == 0:
            return []
        return self._measured(*self._scored(configs), rng_blocks)

    def _scored(
        self, configs: Sequence[Configuration | Mapping[str, KnobValue]]
    ) -> tuple[BatchEvalContext, np.ndarray]:
        """The rows' filled context and ``(C, N)`` component scores.
        Calibrates first, so the calibration pass compiles its plan before
        any row does; crashing rows are flagged on the context."""
        self._calibrate()
        ctx = self._batch_context(configs)
        return ctx, self._component_scores_batch(ctx)

    def _measured(
        self,
        ctx: BatchEvalContext,
        scores: np.ndarray,
        rng_blocks: Sequence[tuple[np.random.Generator | None, int]],
    ) -> list[Measurement | None]:
        """The pass's tail over scored rows: throughput, per-block noise,
        latency and metrics; ``None`` for each crashed row."""
        n = ctx.n
        crashed = ctx.crashed
        throughput = self._calibrate() * self._raw_throughput_batch(ctx.plan, scores)

        noise: np.ndarray | None = None
        if self.noise_std > 0 and any(r is not None for r, __ in rng_blocks):
            # Each block's alive rows draw their pairs (throughput, then
            # latency, per row) from that block's own stream, in row order;
            # crashed rows draw nothing — the exact draws of one
            # per-session call per block.
            alive = ~crashed
            draws = np.zeros((int(alive.sum()), 2))
            filled = start = 0
            for block_rng, count in rng_blocks:
                block_alive = int(alive[start:start + count].sum())
                if block_rng is not None:
                    draws[filled:filled + block_alive] = (
                        block_rng.standard_normal((block_alive, 2))
                    )
                filled += block_alive
                start += count
            noise = np.ones((n, 2))
            noise[alive] = np.exp(draws * (self.noise_std, self.noise_std * 2.0))
            throughput = throughput * noise[:, 0]

        p95 = self._p95_latency_ms_batch(ctx, throughput)
        if noise is not None:
            p95 = p95 * noise[:, 1]

        metrics = derive_metrics_batch(
            ctx.notes,
            throughput=throughput,
            clients=self.workload.clients,
            read_fraction=self.workload.read_txn_fraction,
        )
        return [
            None
            if dead
            else Measurement(
                throughput=value,
                p95_latency_ms=latency,
                metrics=dict(zip(METRIC_NAMES, metric_row)),
                component_scores=dict(zip(COMPONENT_NAMES, score_row)),
            )
            for dead, value, latency, metric_row, score_row in zip(
                crashed.tolist(),
                throughput.tolist(),
                p95.tolist(),
                metrics.T.tolist(),
                scores.T.tolist(),
            )
        ]

    def default_measurement(self) -> Measurement:
        """Noise-free measurement of the DBMS default configuration."""
        return self.evaluate(_default_configuration(self.version))
