"""SMAC: Sequential Model-based Algorithm Configuration (Hutter et al. 2011).

The state-of-the-art baseline of the paper (per Zhang et al. 2021's
evaluation): a random-forest surrogate with expected improvement, candidate
selection by local search around the best observed configurations plus a
large pool of random candidates, and periodic interleaving of purely random
configurations to guarantee exploration (which the paper's special-value
biasing also piggybacks on, Section 4.1).
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import Optimizer, PreparedSuggest
from repro.optimizers.forest import RandomForestRegressor
from repro.space.configspace import ConfigurationSpace


class SMACOptimizer(Optimizer):
    """Random-forest Bayesian optimization in the style of SMAC.

    Args:
        space: Search space.
        seed: RNG seed.
        n_init: LHS warm-up samples.
        n_trees: Forest size.
        n_random_candidates: Random candidates scored by EI per suggestion.
        n_local_candidates: Neighbors generated around each incumbent.
        random_interleave_every: Propose a purely random configuration every
            N model-guided suggestions (SMAC's exploration guarantee).
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int = 0,
        n_init: int = 10,
        n_trees: int = 20,
        n_random_candidates: int = 1000,
        n_local_candidates: int = 10,
        random_interleave_every: int = 8,
    ):
        super().__init__(space, seed=seed, n_init=n_init)
        self.n_trees = n_trees
        self.n_random_candidates = n_random_candidates
        self.n_local_candidates = n_local_candidates
        self.random_interleave_every = random_interleave_every
        self._model_suggestions = 0

    def state_dict(self) -> dict:
        state = super().state_dict()
        # The interleave counter decides which future rounds go random;
        # the forest itself is refit from data every round, so no model
        # state needs to survive a restart.
        state["model_suggestions"] = self._model_suggestions
        return state

    def load_state(self, state: dict, configs, values) -> None:
        super().load_state(state, configs, values)
        self._model_suggestions = int(state["model_suggestions"])

    def _prepare_model_batch(self, q: int) -> PreparedSuggest:
        """One forest fit, one shared candidate pool — scoring deferred to
        the caller (``suggest_batch`` completes the round immediately; the
        wave scheduler stacks it with other sessions').  Every
        ``random_interleave_every``-th round is ``q`` random vectors
        instead."""
        self._model_suggestions += 1
        if (
            self.random_interleave_every
            and self._model_suggestions % self.random_interleave_every == 0
        ):
            return PreparedSuggest(q=q, configs=self.encoding.decode_batch(
                self.encoding.random_vectors(q, self.rng)
            ))

        X, y = self._data()
        forest = RandomForestRegressor(
            n_trees=self.n_trees,
            seed=int(self.rng.integers(2**31)),
        )
        forest.fit(X, y)

        return PreparedSuggest(
            q=q,
            model=forest,
            candidates=self._candidates(X, y),
            best=float(y.max()),
        )

    def _candidates(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Random pool + local-search neighborhoods of the top incumbents.

        Everything stays in encoded matrix form end to end: the random pool,
        the vectorized neighbor perturbations, and the EI scoring all operate
        on one ``N x D`` candidate matrix; only the single argmax winner is
        decoded back to a configuration.
        """
        pools = [
            self.encoding.random_vectors(self.n_random_candidates, self.rng)
        ]
        top = np.argsort(y)[-5:]
        for i in top:
            pools.append(
                self.encoding.neighbors(
                    X[i], self.rng, n=self.n_local_candidates, step=0.08
                )
            )
            pools.append(
                self.encoding.neighbors(
                    X[i], self.rng, n=self.n_local_candidates, step=0.02
                )
            )
        return np.vstack(pools)
