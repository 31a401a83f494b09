"""Wave scheduler: the tuning loop, driven in lockstep over one or more sessions.

**One driver.**  :func:`drive` is the paper's loop (Figure 1) for every
execution strategy: :meth:`TuningSession.run
<repro.tuning.session.TuningSession.run>` drives its session as a
one-member wave, :func:`run_wave` / :func:`run_wave_mixed` drive many,
and the session server runs the same suggestion step
(:func:`suggest_wave`: prepare → :func:`score_rounds` → adapter
conversion) for its tenants.  A round of one takes the same scoring
path as a wave — one ``predict_mean_var_stacked`` call, whose one-forest
walk reads the forest's own node table — while a lone group member
evaluates through its session's own dispatch.

:func:`runner.run_grid <repro.tuning.runner.run_grid>` runs any
``(spec, seed)`` tasks — the seeds of one spec, or an experiment's
whole grid of arms — in *waves*: one :func:`run_wave_mixed` in this
process at ``workers=1``, or one per shard of a round-robin split of
the tasks over N worker processes, each shard mixing specs (a task's
trajectory does not depend on its wave's roster, so the shards return
what one wave would).  Every round of a wave of S sessions still fits S
surrogates (each on its own session's data and RNG stream — that part
is irreducibly per-session), but the rest of the round is executed
**once** across all sessions:

* the LHS init phase is one cross-session ``evaluate_batch_stacked`` pass
  over every session's decoded design (one per round when an early stop
  could fire inside a design, see :func:`_stacked_init`);
* each model round's forest candidate matrices are concatenated and
  scored in a single ``predict_mean_var_stacked`` call, one native pass
  in which each forest walks and reduces its own slab against its own
  packed table (GP surrogates score per-session — dense linear algebra
  has no shared table to stack);
* expected improvement runs as one pass with per-row incumbents;
* all suggestions evaluate in one simulator matrix pass per *simulator
  group*, with each session's noise pairs drawn from its own stream.

**Heterogeneous waves** (:func:`run_wave_mixed`): a wave is not limited
to one spec.  Members are grouped by *simulator identity* —
:meth:`~repro.dbms.engine.PostgresSimulator.stack_key`, the calibration
value-cache key extended with the evaluation parameters — and each group
shares one ``evaluate_batch_stacked`` matrix pass (two sessions tuning
the same workload/version/hardware profile stack even when the rest of
their specs differ; different profiles simply evaluate in separate
passes within the same wave).  The stacked *model* phase is
group-agnostic: every forest-backed member of the wave joins one
``predict_mean_var_stacked`` call regardless of spec — candidate
matrices of different widths are zero-padded to the widest, which is
byte-identical because each forest's leaf walk only ever indexes its own
training features, never the pad columns — and one EI pass scores all
of them with per-row incumbents.  This is what lets a session server
multiplex many tenants' different specs over one wave engine.

**Determinism contract.**  Per-seed trajectories — knob values, crash
rows, penalties, early-stop iterations, and every optimizer/evaluation
PCG64 stream position — are *byte-identical* to sequential
``run_spec(spec, seeds)``, for every member of a wave, mixed specs or
not: each session's RNG-consuming calls happen in exactly the order of
its solo run (``suggest_prepare`` + ``suggest_select`` compose to
``suggest_batch``; stacked evaluation stitches per-session noise blocks;
stacked scoring and EI are elementwise-identical per slice), and the
recorded determinism pins hold the solo run itself in place.
``tests/test_wave.py`` pins this across SMAC, GP-BO, and random search,
``tests/test_wave_hetero.py`` across mixed specs and optimizers in one
wave; DDPG degrades to per-session stepping (its actions pair with
observes step by step) while still sharing the stacked evaluation.

**Timing attribution** (``suggest_seconds``).  Wall-clock is *metadata*,
outside the determinism contract — no pin compares it, and checkpoint
equivalence checks ignore it.  One rule serves every driver (solo
``run()``, waves, the server): a round is charged its own
``suggest_prepare`` wall-clock, its *row-proportional* share of each
shared pass (the stacked forest predict and the single EI pass —
proportional to its candidate-row count, since stacked cost scales with
rows), and its own individually-timed GP predict and
``suggest_select``; each of the round's configurations records that
total divided by the round's size.  The init phase charges each design
point an equal share of its ``suggest_init_batch`` call.

**Session-owned state.**  Each member's progress — iteration cursor,
knowledge base, early-stop/quarantine markers — lives on its
:class:`~repro.tuning.session.TuningSession` (the resumable state
machine), and the wave feeds outcomes through the session's own
``_feed_outcomes``, so checkpoints, fault handling, and quarantine
behave identically under every driver.  A member built from a restored
checkpoint simply joins the waves at its cursor (its exhausted init
design contributes nothing to the stacked init pass); a member whose
evaluation exhausts its fault-envelope retries is quarantined out of
later waves exactly like early-stop dropout — and because every member
owns its simulator, envelope, and streams (fault-handling members never
join a stacked-evaluation group), the survivors' trajectories are
untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dbms.engine import PostgresSimulator
from repro.optimizers.acquisition import expected_improvement
from repro.optimizers.base import PreparedSuggest
from repro.optimizers.forest import (
    RandomForestRegressor,
    predict_mean_var_stacked,
)
from repro.tuning.session import TuningResult, TuningSession


@dataclass
class _Member:
    """One session within the wave (state lives on the session).

    ``group`` is the member's stacked-evaluation group key
    (:meth:`~repro.dbms.engine.PostgresSimulator.stack_key`), or ``None``
    when the member must evaluate through its own session's dispatch —
    simulator subclasses that customize the evaluation path (failure
    injection, real-DBMS drivers) and sessions running under a fault
    envelope make the very calls a lone session makes, so the
    byte-identity contract holds for them too, and one member's faults
    can never touch another member's streams.
    """

    session: TuningSession
    group: tuple | None = None

    @property
    def live(self) -> bool:
        return self.session.live


@dataclass
class SuggestRound:
    """One session's suggestion round: prepared, then scored in a stacked
    model phase (:func:`score_rounds`), then converted to target space —
    what :func:`suggest_wave` returns to the wave driver and the session
    server."""

    session: TuningSession
    q: int
    prepared: PreparedSuggest
    prepare_seconds: float
    mean: np.ndarray | None = None
    var: np.ndarray | None = None
    configs: list | None = None
    targets: list | None = None
    score_seconds: float = field(default=0.0)

    @property
    def suggest_seconds(self) -> float:
        """Per-suggestion wall-clock: the round's prepare plus its share
        of the model phase, split evenly over its configurations."""
        return (self.prepare_seconds + self.score_seconds) / len(self.configs)


def _member_group(session: TuningSession) -> tuple | None:
    """The session's stacked-evaluation group key (None = own dispatch)."""
    simulator = session.simulator
    if (
        type(simulator).evaluate is PostgresSimulator.evaluate
        and type(simulator).evaluate_batch is PostgresSimulator.evaluate_batch
        and session.envelope is None
    ):
        return simulator.stack_key()
    return None


def wave_thread_count(spec=None) -> int:
    """The threads a wave runs on: always one, its caller's (multicore
    runs shard the seeds over processes, ``run_spec(workers=N)``)."""
    return 1


def run_wave(spec, seeds: Sequence[int]) -> list[TuningResult]:
    """Run one arm's seeds in lockstep waves (see the module docstring).

    ``spec`` is a :class:`repro.tuning.runner.SessionSpec` (duck-typed:
    anything with ``build(seed) -> TuningSession``).  Returns one
    :class:`TuningResult` per seed, in ``seeds`` order.
    """
    return run_wave_mixed([(spec, seed) for seed in seeds])


def run_wave_mixed(tasks: Sequence[tuple]) -> list[TuningResult]:
    """Run ``(spec, seed)`` pairs — possibly of *different* specs — in one
    heterogeneous wave (see the module docstring's heterogeneous-waves
    section).  Returns one :class:`TuningResult` per task, in order.
    """
    sessions = [spec.build(seed) for spec, seed in tasks]
    drive(sessions)
    return [session.result() for session in sessions]


def drive(sessions: Sequence[TuningSession]) -> None:
    """THE tuning loop (see the module docstring's one-driver section):
    start every ``"new"`` session, run the batched init phase
    (:func:`_stacked_init`), then lockstep rounds (:func:`_wave_round`)
    until no session is live, and leave every session ``"done"``."""
    for session in sessions:
        if session.state == "new":
            session.start()
    members = [_Member(session, _member_group(session)) for session in sessions]
    _stacked_init(members)
    live = [m for m in members if m.live]
    while live:
        _wave_round(live)
        live = [m for m in live if m.live]
    for session in sessions:
        session.finish()


def _evaluate_and_feed(feeds) -> None:
    """Evaluate one wave's rows — one ``evaluate_batch_stacked`` matrix
    pass per simulator group of two or more members, own-session dispatch
    for everyone else (a lone group member, fault envelopes, subclassed
    simulators) — then feed each member's outcomes through its session's
    ``_feed_outcomes`` in member order.

    ``feeds`` rows are ``(member, opt_configs, target_configs,
    per_suggest_seconds)``.  Each member's noise block is drawn from its
    own session stream regardless of grouping (stacked passes stitch
    per-block streams; own dispatch consumes the same stream directly),
    so outcomes and stream positions are byte-identical to each session
    evaluating alone, in any grouping.
    """
    grouped: dict[tuple, list[int]] = {}
    for index, (member, __, __, __) in enumerate(feeds):
        if member.group is not None:
            grouped.setdefault(member.group, []).append(index)

    outcomes: dict[int, list] = {}
    for indices in grouped.values():
        if len(indices) < 2:
            continue  # a group of one has nothing to stack with
        all_targets = [t for i in indices for t in feeds[i][2]]
        blocks = [
            (feeds[i][0].session.rng, len(feeds[i][2])) for i in indices
        ]
        # Any group member's simulator can evaluate the group's stacked
        # rows: the group key is the simulator's value identity
        # (calibration is cached by profile value), so the first member's
        # instance produces bit-identical rows for all of them.
        evaluator = feeds[indices[0]][0].session.simulator
        stacked = evaluator.evaluate_batch_stacked(all_targets, blocks)
        pos = 0
        for i in indices:
            count = len(feeds[i][2])
            outcomes[i] = stacked[pos:pos + count]
            pos += count

    for i, (member, configs, targets, per_suggest) in enumerate(feeds):
        if i not in outcomes:
            outcomes[i] = member.session._evaluate_batch(targets)
        member.session._feed_outcomes(
            configs, targets, outcomes[i], per_suggest
        )


def _stacked_init(members: list[_Member]) -> None:
    """The batched LHS init phase of every live session, evaluated in one
    cross-session simulator pass per group and round.  Each round, a
    session takes the rest of its design, capped at the iterations its
    budget has left (a session resumed inside its design may have fewer
    left than the design has points) and at its early-stopping policy's
    earliest possible stop (rows past a stop would be evaluated and then
    discarded); rounds repeat until no live session has design left, so
    a stop that does not fire leaves the trajectory as one round would.
    Optimizers that cannot batch their init (DDPG) and sessions past
    their init contribute nothing and take the generic rounds instead."""
    while True:
        feeds = []
        for member in members:
            session = member.session
            if not member.live:
                continue
            end = session.n_iterations
            policy = session.early_stopping
            if policy is not None:
                end = min(end, policy.earliest_stop(session.iteration) + 1)
            started = time.perf_counter()
            init_configs = session.optimizer.suggest_init_batch()[
                : end - session.iteration
            ]
            elapsed = time.perf_counter() - started
            if not init_configs:
                continue
            target_configs = session.adapter.to_target_batch(init_configs)
            feeds.append(
                (member, init_configs, target_configs,
                 elapsed / len(init_configs))
            )
        if not feeds:
            return
        _evaluate_and_feed(feeds)


def _stack_candidates(rounds: list[SuggestRound]) -> np.ndarray:
    """One candidate super-matrix across possibly mixed-width specs.

    A lone round's matrix passes through uncopied, and same-width
    matrices concatenate directly (the fast paths).  Mixed widths
    zero-pad to the widest: forest ``k``'s leaf walk indexes
    ``X[row, feature]`` only for features the forest was trained on
    (all ``< k``'s own width), so the pad columns are never read and
    every slice's result is byte-identical to its solo predict.
    """
    candidates = [np.asarray(r.prepared.candidates, dtype=float)
                  for r in rounds]
    if len(candidates) == 1:
        return candidates[0]
    width = max(c.shape[1] for c in candidates)
    if all(c.shape[1] == width for c in candidates):
        return np.concatenate(candidates)
    stacked = np.zeros((sum(len(c) for c in candidates), width))
    pos = 0
    for c in candidates:
        stacked[pos:pos + len(c), : c.shape[1]] = c
        pos += len(c)
    return stacked


def score_rounds(rounds: Sequence[SuggestRound]) -> None:
    """One stacked model phase over prepared rounds from any mix of
    sessions/specs: every forest-backed round — one or many — scores in
    one ``predict_mean_var_stacked`` call (mixed candidate widths
    zero-padded — byte-identical per slice); GPs and other
    non-stackable surrogates score through their own
    ``predict_mean_var``; expected improvement runs as one pass with
    per-row incumbents, and each round's ``suggest_select`` finalizes
    its configs.  Resolved rounds (init points, random interleaves,
    DDPG) pass through untouched.

    Fills each round's ``configs`` and ``score_seconds`` in place
    (``score_seconds`` per the module docstring's timing-attribution
    rule: row-proportional shares of the stacked passes plus the
    round's own individually-timed calls — metadata, outside the
    determinism contract).
    """
    scorable = [r for r in rounds if not r.prepared.resolved]
    if scorable:
        forest_rounds = [
            r for r in scorable
            if isinstance(r.prepared.model, RandomForestRegressor)
        ]
        if forest_rounds:
            started = time.perf_counter()
            stacked = predict_mean_var_stacked(
                [r.prepared.model for r in forest_rounds],
                _stack_candidates(forest_rounds),
                [len(r.prepared.candidates) for r in forest_rounds],
            )
            elapsed = time.perf_counter() - started
            total_rows = sum(len(r.prepared.candidates) for r in forest_rounds)
            for r, (mean, var) in zip(forest_rounds, stacked):
                r.mean, r.var = mean, var
                r.score_seconds += elapsed * (
                    len(r.prepared.candidates) / total_rows
                )
        for r in scorable:
            if r.mean is None:  # GPs: no node table to stack
                started = time.perf_counter()
                r.mean, r.var = r.prepared.model.predict_mean_var(
                    r.prepared.candidates
                )
                r.score_seconds += time.perf_counter() - started
        # One EI pass with per-row incumbents; each slice is elementwise-
        # identical to the per-session call, so selection is unchanged.
        ei_started = time.perf_counter()
        ei_all = expected_improvement(
            np.concatenate([r.mean for r in scorable]),
            np.sqrt(np.concatenate([r.var for r in scorable])),
            np.concatenate(
                [np.full(len(r.mean), r.prepared.best) for r in scorable]
            ),
        )
        ei_elapsed = time.perf_counter() - ei_started
        ei_rows = sum(len(r.mean) for r in scorable)
        pos = 0
        for r in scorable:
            count = len(r.mean)
            started = time.perf_counter()
            r.configs = r.session.optimizer.suggest_select(
                r.prepared, ei_all[pos:pos + count]
            )
            r.score_seconds += (
                time.perf_counter() - started + ei_elapsed * (count / ei_rows)
            )
            pos += count
    for r in rounds:
        if r.configs is None:
            r.configs = r.prepared.configs


def suggest_wave(sessions: Sequence[TuningSession]) -> list[SuggestRound]:
    """One round's suggestion step, shared by every driver — the wave
    loop and the session server: prepare each session's round (q = its
    ``suggest_batch``, capped by the remaining budget), score all of
    them in one model phase (:func:`score_rounds`), and convert each
    round's configs to target space with one ``to_target_batch`` call.
    Returns one :class:`SuggestRound` per session, in order."""
    rounds = []
    for session in sessions:
        q = min(
            session.suggest_batch,
            session.n_iterations - session.iteration,
        )
        started = time.perf_counter()
        prepared = session.optimizer.suggest_prepare(q)
        elapsed = time.perf_counter() - started
        rounds.append(SuggestRound(session, q, prepared, elapsed))

    score_rounds(rounds)

    for r in rounds:
        r.targets = r.session.adapter.to_target_batch(r.configs)
    return rounds


def _wave_round(live: list[_Member]) -> None:
    """One lockstep wave: every live member's suggestion step
    (:func:`suggest_wave`), then one evaluation and feedback pass
    (:func:`_evaluate_and_feed`).  A function of its own so the round's
    candidate matrices are freed before the next round builds its own."""
    rounds = suggest_wave([m.session for m in live])
    _evaluate_and_feed([
        (m, r.configs, r.targets, r.suggest_seconds)
        for m, r in zip(live, rounds)
    ])
