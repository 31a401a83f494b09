"""Optimizer interface shared by SMAC, GP-BO, DDPG, and random search.

All optimizers *maximize* the observed value; the tuning session negates
latencies when minimizing.  The suggest/observe protocol matches the
paper's tuning loop (Figure 1): the optimizer proposes one configuration
per iteration, then receives the measured performance (and, for DDPG, the
internal DBMS metrics used as RL state).

Every suggestion goes through one split-phase path:
:meth:`Optimizer.suggest_prepare` (the init design, or the surrogate fit
and candidate pool) → scoring → :meth:`Optimizer.suggest_finish`.
:meth:`Optimizer.suggest_batch` composes the phases for one optimizer,
the wave scheduler composes them across sessions, and
:meth:`Optimizer.suggest` is ``suggest_batch(1)[0]``.  Subclasses
implement only the model-guided round, :meth:`Optimizer._prepare_model_batch`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.optimizers.acquisition import expected_improvement, top_q_distinct
from repro.optimizers.encoding import SpaceEncoding
from repro.space.configspace import Configuration, ConfigurationSpace


@dataclass
class PreparedSuggest:
    """One suggestion round split at the surrogate-scoring seam.

    :meth:`Optimizer.suggest_prepare` returns either a *resolved* round
    (``configs`` set: init-phase design points, random interleaves, pure
    random search, or optimizers without a split model phase) or a
    *scorable* one (``model`` + ``candidates`` set): the caller evaluates
    ``model.predict_mean_var`` over ``candidates`` — possibly stacked with
    other sessions' rounds into one call — and hands the result to
    :meth:`Optimizer.suggest_finish`.  Splitting here is what lets the
    wave scheduler run one cross-session model phase while every
    optimizer keeps its sequential RNG stream untouched.
    """

    q: int = 1
    configs: list[Configuration] | None = None
    model: object | None = None  # surrogate exposing predict_mean_var
    candidates: np.ndarray | None = field(default=None, repr=False)
    best: float = 0.0

    @property
    def resolved(self) -> bool:
        return self.configs is not None


class Optimizer(ABC):
    """Sequential black-box maximizer over a configuration space.

    Args:
        space: The search space the optimizer sees (for LlamaTune this is
            the synthetic low-dimensional space).
        seed: Seed for all of the optimizer's randomness.
        n_init: Number of initial space-filling (LHS) samples before the
            model-guided phase begins (10 in the paper).
    """

    #: Whether the optimizer supports the checkpoint/resume seam.  DDPG's
    #: neural state (networks, Adam moments, replay buffer) is out of the
    #: seam's scope and opts out; sessions refuse to checkpoint over a
    #: non-checkpointable optimizer instead of silently losing its state.
    checkpointable = True

    def __init__(self, space: ConfigurationSpace, seed: int = 0, n_init: int = 10):
        self.space = space
        self.encoding = SpaceEncoding(space)
        self.rng = np.random.default_rng(seed)
        self.n_init = n_init
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._init_points: list[np.ndarray] | None = None

    # --- protocol -----------------------------------------------------------

    def suggest(self) -> Configuration:
        """Propose the next configuration to evaluate: a round of one,
        ``suggest_batch(1)[0]``."""
        return self.suggest_batch(1)[0]

    def suggest_batch(self, q: int) -> list[Configuration]:
        """Propose ``q`` configurations from one model fit / candidate pool.

        For ``q > 1`` the model-guided optimizers fit their surrogate
        *once*, score one shared candidate pool, and return the top-q
        EI-ranked distinct candidates (``q = 1`` takes the EI argmax), so
        callers can evaluate the whole batch (e.g. through
        ``evaluate_batch``) at a fraction of q single-suggestion rounds.
        Feed every result back through :meth:`observe` before the next
        suggestion.

        During the init phase the batch is the next ``q`` points of the LHS
        design.  A batch that overruns the design is topped up with random
        exploration vectors — the model cannot guide them yet, because
        none of the batch has been observed.
        """
        prepared = self.suggest_prepare(q)
        if prepared.configs is not None:
            return prepared.configs
        mean, var = prepared.model.predict_mean_var(prepared.candidates)
        return self.suggest_finish(prepared, mean, var)

    def suggest_prepare(self, q: int = 1) -> PreparedSuggest:
        """Phase one of :meth:`suggest_batch`: everything up to (and
        including) the surrogate fit and candidate generation, without
        scoring.

        Resolved rounds (init-phase design points, random interleaves,
        random search) come back with ``configs`` already decoded;
        scorable rounds carry the fitted surrogate and the encoded
        candidate matrix for the caller to score — the wave scheduler
        stacks many sessions' candidate matrices into one
        ``predict_mean_var`` pass and finishes each with
        :meth:`suggest_finish`.  ``prepare`` + ``predict`` + ``finish`` is
        exactly :meth:`suggest_batch` (same RNG draws, same float ops, in
        the same order), so trajectories are byte-identical whichever way
        the round is driven.
        """
        if q < 1:
            raise ValueError("q must be >= 1")
        if len(self._y) < self.n_init or not self._y:
            return PreparedSuggest(
                q=q, configs=self.encoding.decode_batch(self._init_vectors(q))
            )
        return self._prepare_model_batch(q)

    @abstractmethod
    def _prepare_model_batch(self, q: int) -> PreparedSuggest:
        """The model-guided round after the init phase (see
        :meth:`suggest_prepare`)."""

    def suggest_finish(
        self,
        prepared: PreparedSuggest,
        mean: np.ndarray,
        var: np.ndarray,
    ) -> list[Configuration]:
        """Phase two: EI-rank the scored candidates and decode the top-q
        distinct winners (shared by the forest and GP optimizers)."""
        ei = expected_improvement(mean, np.sqrt(var), best=prepared.best)
        return self.suggest_select(prepared, ei)

    def suggest_select(
        self, prepared: PreparedSuggest, ei: np.ndarray
    ) -> list[Configuration]:
        """Selection tail of :meth:`suggest_finish` for callers that
        computed EI themselves (the wave scheduler scores one stacked EI
        pass and hands each session its slice)."""
        return self.encoding.decode_batch(
            prepared.candidates[
                top_q_distinct(ei, prepared.candidates, prepared.q)
            ]
        )

    def suggest_init_batch(self) -> list[Configuration]:
        """All remaining init-phase (LHS) suggestions, decoded in one pass.

        The batch is exactly the sequence single-suggestion rounds would
        return over the rest of the init phase — same LHS design, same RNG
        consumption — so callers may evaluate it in bulk and feed the
        results back through :meth:`observe` one by one.  Consuming is
        implicit: :meth:`observe` advances the design index.  Returns
        ``[]`` once the init phase is over (or for optimizers that cannot
        batch, e.g. DDPG's per-step action bookkeeping).
        """
        remaining = self.n_init - len(self._y)
        if remaining <= 0:
            return []
        return self.encoding.decode_batch(self._init_vectors(remaining))

    def observe(
        self,
        config: Configuration,
        value: float,
        metrics: Mapping[str, float] | None = None,
    ) -> None:
        """Record the measured objective value for a configuration."""
        self._X.append(self.encoding.encode(config))
        self._y.append(float(value))

    # --- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the *inputs* ``suggest``/``observe``
        depend on beyond the observations themselves: the PCG64 stream
        position and the (possibly pending) LHS design, which is drawn
        before the stored position and so cannot be re-derived.  The
        observations are the session's knowledge-base rows;
        :meth:`load_state` rebuilds ``X``/``y`` from them, so a
        checkpoint never stores them twice.  Subclasses extend the dict
        with their own counters and must keep it JSON-clean (Python
        scalars and lists only: JSON round-trips binary64 floats and
        arbitrary ints losslessly, so exactness survives the disk trip).
        """
        return {
            "type": type(self).__name__,
            "rng": dict(self.rng.bit_generator.state),
            "init_points": (
                None
                if self._init_points is None
                else [p.tolist() for p in self._init_points]
            ),
        }

    def load_state(
        self,
        state: dict,
        configs: Sequence[Configuration],
        values: Sequence[float],
    ) -> None:
        """Restore a :meth:`state_dict` snapshot (same type and space)
        over the observations ``configs``/``values`` — the optimizer-space
        configurations and the signed values :meth:`observe` received, in
        order.  ``X`` is one ``encode_batch`` over ``configs``, row for
        row what ``observe`` stored, so the continuation is
        byte-identical to never having stopped — the tuning session's
        checkpoint contract."""
        if state.get("type") != type(self).__name__:
            raise ValueError(
                f"checkpoint holds {state.get('type')!r} state, "
                f"not {type(self).__name__!r}"
            )
        self.rng.bit_generator.state = state["rng"]
        self._X = list(self.encoding.encode_batch(configs))
        self._y = [float(v) for v in values]
        points = state.get("init_points")
        self._init_points = (
            None
            if points is None
            else [np.asarray(p, dtype=float) for p in points]
        )

    # --- shared helpers ------------------------------------------------------

    @property
    def num_observations(self) -> int:
        return len(self._y)

    @property
    def best_value(self) -> float:
        if not self._y:
            raise RuntimeError("no observations yet")
        return max(self._y)

    @property
    def best_config(self) -> Configuration:
        if not self._y:
            raise RuntimeError("no observations yet")
        best = int(np.argmax(self._y))
        return self.encoding.decode(self._X[best])

    def _init_vectors(self, q: int) -> np.ndarray:
        """The next ``q`` init-phase vectors: the LHS design from the
        current observation on (drawn on first use, so the draw sits
        wherever the first init round falls in the stream), topped up with
        random vectors once the design runs out."""
        if self._init_points is None:
            self._init_points = list(
                self.encoding.lhs_vectors(self.n_init, self.rng)
            )
        start = len(self._y)
        vectors = self._init_points[start:start + q]
        if len(vectors) < q:
            vectors = vectors + list(
                self.encoding.random_vectors(q - len(vectors), self.rng)
            )
        return np.stack(vectors)

    def _data(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._X), np.array(self._y)


class RandomSearchOptimizer(Optimizer):
    """Uniform random search (the no-model baseline)."""

    def _prepare_model_batch(self, q: int) -> PreparedSuggest:
        return PreparedSuggest(
            q=q,
            configs=self.encoding.decode_batch(
                self.encoding.random_vectors(q, self.rng)
            ),
        )
