"""GP-BO: Bayesian optimization with the mixed Matérn/Hamming GP surrogate.

This is the second BO baseline of the paper (Section 2.2, "GP-BO" after
Ru et al. 2020): identical outer loop to SMAC, but with a Gaussian-process
surrogate instead of a random forest.
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.base import Optimizer, PreparedSuggest
from repro.optimizers.gp import GaussianProcess
from repro.space.configspace import ConfigurationSpace


class GPBOOptimizer(Optimizer):
    """Gaussian-process Bayesian optimization (Matérn + Hamming kernels)."""

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int = 0,
        n_init: int = 10,
        n_random_candidates: int = 1000,
        n_local_candidates: int = 10,
        refit_every: int = 1,
    ):
        super().__init__(space, seed=seed, n_init=n_init)
        self.n_random_candidates = n_random_candidates
        self.n_local_candidates = n_local_candidates
        self.refit_every = max(1, refit_every)
        self._gp: GaussianProcess | None = None
        self._model_suggestions = 0

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["model_suggestions"] = self._model_suggestions
        # The cached GP matters only under refit_every > 1: between
        # boundaries ``update`` extends its factor, and boundaries
        # warm-start from its theta.  With refit_every = 1 every round
        # refits from scratch (cold theta), so a restart loses nothing.
        state["gp"] = (
            self._gp.state_dict()
            if self.refit_every > 1 and self._gp is not None
            else None
        )
        return state

    def load_state(self, state: dict, configs, values) -> None:
        super().load_state(state, configs, values)
        self._model_suggestions = int(state["model_suggestions"])
        gp_state = state.get("gp")
        if gp_state is None:
            self._gp = None
        else:
            # The GP was last fitted or updated on the observations of
            # its windows — a prefix of the optimizer's (later rows
            # arrived after that round's prepare).
            X, y = self._data()
            n = sum(gp_state["windows"])
            gp = GaussianProcess(self.encoding.is_categorical)
            gp.load_state(gp_state, X[:n], y[:n])
            self._gp = gp

    def _prepare_model_batch(self, q: int) -> PreparedSuggest:
        """One GP fit (subject to ``refit_every``), one shared candidate
        pool — scoring deferred to the caller.

        A full fit — hyperparameter optimization included — runs only at
        ``refit_every`` boundaries; in between, the GP absorbs the newly
        observed rows through :meth:`GaussianProcess.update`'s incremental
        Cholesky extension (exact at the current hyperparameters, no RNG
        consumption), so ``refit_every > 1`` trades hyperparameter
        freshness — not data freshness — for a ~two-orders-cheaper model
        phase between boundaries.  ``refit_every = 1`` (the default) never
        calls ``update`` and is byte-identical to earlier releases.
        """
        X, y = self._data()
        self._model_suggestions += 1
        refit = (
            self._gp is None
            or (self._model_suggestions - 1) % self.refit_every == 0
        )
        if refit:
            gp = GaussianProcess(
                self.encoding.is_categorical,
                seed=int(self.rng.integers(2**31)),
            )
            if self._gp is not None and self.refit_every > 1:
                # Warm-start the boundary's hyperparameter search from the
                # previous window's optimum: the first L-BFGS start (and
                # the center of the restart perturbations) sits near the
                # solution, so boundary fits converge in a fraction of the
                # cold iterations.  Only the refit_every > 1 flow — the
                # default refit_every = 1 keeps its historical cold-start
                # trajectory (same RNG draws either way; the restart
                # perturbations are draws *around* theta, consumed
                # identically).
                gp._theta = np.copy(self._gp._theta)
            self._gp = gp
            self._gp.fit(X, y)
        else:
            self._gp.update(X, y)
        assert self._gp is not None

        return PreparedSuggest(
            q=q,
            model=self._gp,
            candidates=self._candidates(X, y),
            best=float(y.max()),
        )

    def _candidates(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        pools = [
            self.encoding.random_vectors(self.n_random_candidates, self.rng)
        ]
        top = np.argsort(y)[-5:]
        for i in top:
            pools.append(
                self.encoding.neighbors(
                    X[i], self.rng, n=self.n_local_candidates, step=0.05
                )
            )
        return np.vstack(pools)
