"""Gaussian-process regression with a mixed Matérn/Hamming kernel.

The GP-BO baseline of the paper (Ru et al., 2020) improves on "vanilla" GPs
by giving continuous dimensions a Matérn-5/2 kernel and categorical
dimensions a Hamming kernel.  We combine the two multiplicatively and fit
the amplitude, the two lengthscales, and the noise level by maximizing the
log marginal likelihood (multi-start L-BFGS on log-parameters).

``fit`` precomputes the pairwise squared-distance and categorical-mismatch
tensors once and shares them across every restart and objective
evaluation, scaling by the candidate lengthscale per evaluation
(``sq / ls**2``) instead of rebuilding the kernel from raw X.  Relative to
pre-scaling the inputs (``(x / ls)**2``) this shifts results by at most an
ulp — the same class of last-ulp caveat the batch-API contract documents
for ``math.*`` vs ufunc scalars.

``update`` absorbs rows *appended* to the training set without re-running
the hyperparameter optimization (the ~200ms part of ``fit``): the cached
Cholesky factor is extended by one block per update window —
``B = L^-1 K_12``, ``S = chol(K_22 - B^T B)`` — with only the new
cross/diagonal kernel blocks computed (through the same
``_distance_parts`` precursors the restarts share), so absorbing k rows
costs O(n^2 k) instead of a full refit.  GP-BO calls it between
``refit_every`` windows; hyperparameter re-optimization boundaries still
run the exact full ``fit``.

The incremental factor is *algebraically* exact but not bit-equal to one
monolithic ``cholesky(K_full)`` (LAPACK's blocking differs — last-ulp
shifts, same caveat class as above).  The determinism contract is defined
against the *windowed* factorization itself: ``_factor_windows`` rebuilds
every tensor and factor block from scratch, replaying the identical
per-window computation without trusting any cached state, and
``tests/test_gp_incremental.py`` pins that the cached factor, the
posteriors, and GP-BO session trajectories are byte-identical to that
replay — a cache-correctness proof by construction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize


def matern52(sq_dist: np.ndarray) -> np.ndarray:
    """Matérn 5/2 correlation given *squared* scaled distances."""
    d = np.sqrt(np.maximum(sq_dist, 0.0))
    sqrt5_d = np.sqrt(5.0) * d
    return (1.0 + sqrt5_d + 5.0 / 3.0 * sq_dist) * np.exp(-sqrt5_d)


class GaussianProcess:
    """GP regressor over mixed numeric/categorical encoded vectors.

    Args:
        is_categorical: Boolean mask over input dimensions; categorical
            dimensions use the Hamming kernel, the rest Matérn-5/2.
        seed: Seed for the hyperparameter-restart randomness.
    """

    def __init__(self, is_categorical: np.ndarray, seed: int = 0):
        self.is_categorical = np.asarray(is_categorical, dtype=bool)
        self.rng = np.random.default_rng(seed)
        # log(amplitude), log(numeric ls), log(categorical ls), log(noise)
        self._theta = np.array([0.0, -0.7, 0.0, -2.3])
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        # Incremental-refit state: raw targets and the row count of each
        # factor block (fit window + one window per update).
        self._y_raw: np.ndarray | None = None
        self._windows: list[int] = []

    # --- kernel --------------------------------------------------------------

    def _distance_parts(
        self, A: np.ndarray, B: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Theta-independent kernel precursors between two point sets.

        Returns the per-pair squared numeric distance already normalized by
        the numeric dimensionality (so lengthscales stay comparable between
        the 16-d synthetic and 90-d original spaces), and the categorical
        mismatch fraction.  Both depend only on the data, so ``fit``
        computes them once and reuses them across every hyperparameter
        restart and ``_neg_log_marginal`` evaluation — the kernel per theta
        is then two cheap elementwise transforms instead of an O(n^2 d)
        rebuild from raw X.
        """
        num = ~self.is_categorical
        sq_num = None
        if num.any():
            a, b = A[:, num], B[:, num]
            sq = (
                np.sum(a**2, axis=1)[:, None]
                + np.sum(b**2, axis=1)[None, :]
                - 2.0 * a @ b.T
            )
            sq_num = np.maximum(sq, 0.0) / max(1, num.sum())
        mismatch = None
        if self.is_categorical.any():
            cat = self.is_categorical
            mismatch = (A[:, cat][:, None, :] != B[:, cat][None, :, :]).mean(
                axis=2
            )
        return sq_num, mismatch

    def _kernel_from_parts(
        self,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        shape: tuple[int, int],
        theta: np.ndarray,
    ) -> np.ndarray:
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        amp2 = math.exp(2.0 * theta[0])
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        ls_num = math.exp(theta[1])
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        ls_cat = math.exp(theta[2])
        k = np.ones(shape)
        if sq_num is not None:
            k *= matern52(sq_num / ls_num**2)
        if mismatch is not None:
            k *= np.exp(-mismatch / ls_cat)
        return amp2 * k

    def _kernel(self, A: np.ndarray, B: np.ndarray, theta: np.ndarray) -> np.ndarray:
        sq_num, mismatch = self._distance_parts(A, B)
        return self._kernel_from_parts(
            sq_num, mismatch, (len(A), len(B)), theta
        )

    # --- fitting ---------------------------------------------------------------

    def _neg_log_marginal(
        self,
        theta: np.ndarray,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        n: int,
        y: np.ndarray,
    ) -> float:
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * theta[3]) + 1e-8
        K = self._kernel_from_parts(
            sq_num, mismatch, (n, n), theta
        ) + noise * np.eye(n)
        try:
            chol = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return 1e12
        alpha = linalg.cho_solve((chol, True), y)
        return float(
            0.5 * y @ alpha
            + np.log(np.diag(chol)).sum()
            + 0.5 * len(y) * math.log(2.0 * math.pi)
        )

    def _chol_nll(self, K: np.ndarray, y: np.ndarray) -> float:
        """The Cholesky half of ``_neg_log_marginal`` (shared with the
        factor-reusing stencil evaluations, op for op)."""
        try:
            chol = linalg.cholesky(K, lower=True)
        except linalg.LinAlgError:
            return 1e12
        alpha = linalg.cho_solve((chol, True), y)
        return float(
            0.5 * y @ alpha
            + np.log(np.diag(chol)).sum()
            + 0.5 * len(y) * math.log(2.0 * math.pi)
        )

    def _nll_with_factors(
        self,
        theta: np.ndarray,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        n: int,
        y: np.ndarray,
    ) -> tuple[float, tuple]:
        """``_neg_log_marginal`` that also returns its kernel factors.

        Same ops in the same order (``ones *= matern``, ``*= hamming``,
        ``amp2 *``, ``+ noise I``, Cholesky), so the value is
        byte-identical; the returned ``(matern, hamming, product,
        amp-scaled)`` intermediates let the finite-difference stencil skip
        rebuilding whatever its single perturbed hyperparameter does not
        touch.
        """
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        amp2 = math.exp(2.0 * theta[0])
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * theta[3]) + 1e-8
        k = np.ones((n, n))
        m_f = c_f = None
        if sq_num is not None:
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            m_f = matern52(sq_num / math.exp(theta[1]) ** 2)
            k *= m_f
        if mismatch is not None:
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            c_f = np.exp(-mismatch / math.exp(theta[2]))
            k *= c_f
        scaled = amp2 * k
        value = self._chol_nll(scaled + noise * np.eye(n), y)
        return value, (m_f, c_f, k, scaled)

    def _stencil_nll(
        self,
        theta_i: np.ndarray,
        i: int,
        factors: tuple,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        n: int,
        y: np.ndarray,
    ) -> float:
        """One finite-difference stencil point: ``theta_i`` differs from
        the base theta in coordinate ``i`` only, so every kernel factor
        the perturbed hyperparameter does not touch is reused from the
        base evaluation — bit-identical to a from-scratch
        ``_neg_log_marginal`` call (the reused arrays hold exactly the
        values that call would recompute, and the combining ops run in the
        same order)."""
        m_f, c_f, product, scaled = factors
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * theta_i[3]) + 1e-8
        eye = np.eye(n)
        if i == 0:
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            K = math.exp(2.0 * theta_i[0]) * product
        elif i == 1 and sq_num is not None:
            k = np.ones((n, n))
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            k *= matern52(sq_num / math.exp(theta_i[1]) ** 2)
            if c_f is not None:
                k *= c_f
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            K = math.exp(2.0 * theta_i[0]) * k
        elif i == 2 and mismatch is not None:
            k = np.ones((n, n))
            if m_f is not None:
                k *= m_f
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            k *= np.exp(-mismatch / math.exp(theta_i[2]))
            # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
            K = math.exp(2.0 * theta_i[0]) * k
        else:
            # The perturbed coordinate is the noise level, or a
            # lengthscale absent from this space's kernel.
            K = scaled
        return self._chol_nll(K + noise * eye, y)

    #: sqrt(machine epsilon): scipy's relative fallback step for 2-point
    #: forward differences (``_eps_for_method`` for float64 in/out).
    _FD_REL_STEP = float(np.sqrt(np.finfo(np.float64).eps))

    #: L-BFGS-B's legacy ``eps`` option: the *absolute* step its jac-less
    #: finite differencing hands to ``approx_derivative`` (unsigned; the
    #: relative formula is only the zero-``dx`` fallback).
    _FD_ABS_STEP = 1e-8

    def _fd_grad_stencil(
        self,
        theta: np.ndarray,
        f0: float,
        factors: tuple,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        n: int,
        y: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
    ) -> np.ndarray:
        """scipy's 2-point forward-difference gradient, replicated exactly
        — the same absolute step L-BFGS-B's ``eps`` hands to
        ``approx_derivative`` (relative fallback only for zero ``dx``),
        the same bound adjustment (``_adjust_scheme_to_bounds``, 1-sided),
        and the same difference formula (``_dense_difference``) — but each
        stencil point reuses the base evaluation's kernel factors, so the
        four objective values cost roughly one kernel rebuild plus four
        Cholesky factorizations instead of four full rebuilds."""
        sign_x0 = (theta >= 0).astype(float) * 2 - 1
        h = np.full(len(theta), self._FD_ABS_STEP)
        dx0 = (theta + h) - theta
        h = np.where(
            dx0 == 0,
            self._FD_REL_STEP * sign_x0 * np.maximum(1.0, np.abs(theta)),
            h,
        )
        x = theta + h
        violated = (x < lb) | (x > ub)
        fitting = np.abs(h) <= np.maximum(theta - lb, ub - theta)
        h[violated & fitting] *= -1
        forward = (ub - theta >= theta - lb) & ~fitting
        h[forward] = (ub - theta)[forward]
        backward = (ub - theta < theta - lb) & ~fitting
        h[backward] = -(theta - lb)[backward]

        f_evals = np.empty(len(theta))
        for i in range(len(theta)):
            theta_i = np.copy(theta)
            theta_i[i] = theta[i] + h[i]
            f_evals[i] = self._stencil_nll(
                theta_i, i, factors, sq_num, mismatch, n, y
            )
        dx = (theta + h) - theta
        return (f_evals - f0) / dx

    def _minimize_restart_vectorized(
        self,
        x0: np.ndarray,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        n: int,
        y: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        bounds: list[tuple[float, float]],
    ):
        """One L-BFGS-B restart fed our batched finite-difference gradient.

        The (f, g) values L-BFGS-B sees are byte-identical to what scipy's
        own jac-less finite differencing would produce, so the iterates —
        and the selected hyperparameters — match a plain jac-less
        ``optimize.minimize`` restart exactly (pinned by
        ``tests/test_gp_vectorized.py``).
        """
        memo: dict[str, object] = {}

        def fun(theta: np.ndarray) -> float:
            value, factors = self._nll_with_factors(
                theta, sq_num, mismatch, n, y
            )
            memo["x"] = np.copy(theta)
            memo["f"] = value
            memo["factors"] = factors
            return value

        def jac(theta: np.ndarray) -> np.ndarray:
            last_x = memo.get("x")
            if last_x is None or not np.array_equal(last_x, theta):
                fun(theta)  # pragma: no cover - L-BFGS-B pairs fun/grad
            return self._fd_grad_stencil(
                np.copy(theta), memo["f"], memo["factors"],
                sq_num, mismatch, n, y, lb, ub,
            )

        return optimize.minimize(
            fun,
            x0,
            jac=jac,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 50},
        )

    def fit(self, X: np.ndarray, y: np.ndarray, n_restarts: int = 2) -> "GaussianProcess":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std

        starts = [self._theta]
        for _ in range(n_restarts):
            starts.append(self._theta + self.rng.normal(0.0, 0.5, size=4))

        # The squared-distance / mismatch tensors depend only on X: build
        # them once and share them across all restarts and every L-BFGS
        # objective evaluation.
        sq_num, mismatch = self._distance_parts(X, X)
        n = len(X)

        best_nll, best_theta = np.inf, self._theta
        bounds = [(-3.0, 3.0), (-3.0, 2.0), (-3.0, 2.0), (-5.0, 1.0)]
        lb = np.array([b[0] for b in bounds])
        ub = np.array([b[1] for b in bounds])
        for start in starts:
            x0 = np.clip(start, lb, ub)
            result = self._minimize_restart_vectorized(
                x0, sq_num, mismatch, n, z, lb, ub, bounds
            )
            if result.fun < best_nll:
                best_nll, best_theta = result.fun, result.x

        self._theta = best_theta
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * best_theta[3]) + 1e-8
        K = self._kernel_from_parts(
            sq_num, mismatch, (n, n), best_theta
        ) + noise * np.eye(n)
        chol = linalg.cholesky(K, lower=True)
        self._finish(X, y, chol, [n])
        return self

    # --- incremental refits --------------------------------------------------

    def update(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Absorb rows appended to the training set, hyperparameters fixed.

        ``X``/``y`` must extend the previously fitted data (identical
        prefix); the cached Cholesky factor then grows by one block, with
        only the new cross/diagonal kernel blocks computed — no L-BFGS, no
        O(n^2 d) full-tensor rebuild, and no RNG consumption.  A
        non-extension (or a numerically non-PD extension block) falls back
        to an exact single-window re-factorization at the current
        hyperparameters.
        """
        if self._X is None or self._chol is None:
            raise RuntimeError("GP is not fitted")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        n_prev = len(self._X)
        if (
            len(X) < n_prev
            or not np.array_equal(X[:n_prev], self._X)
            or not np.array_equal(y[:n_prev], self._y_raw)
        ):
            return self._refactor_theta_fixed(X, y)
        if len(X) == n_prev:
            return self
        windows = self._windows + [len(X) - n_prev]
        try:
            chol = self._extend_window(self._chol, self._X, X[n_prev:])
        except linalg.LinAlgError:
            return self._refactor_theta_fixed(X, y)
        self._finish(X, y, chol, windows)
        return self

    def _extend_window(
        self,
        chol: np.ndarray,
        X_prev: np.ndarray,
        X_new: np.ndarray,
    ) -> np.ndarray:
        """One block step: extend the factor by ``X_new``'s rows.

        ``chol`` covers ``X_prev``; the returned factor covers the
        concatenation.  Only the cross and new-diagonal kernel blocks are
        computed — the cached factor already encodes everything about the
        old rows.  Raises ``LinAlgError`` when the Schur complement of the
        new block is not positive definite.
        """
        n, k = len(X_prev), len(X_new)
        theta = self._theta
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * theta[3]) + 1e-8
        sq_cross, mis_cross = self._distance_parts(X_prev, X_new)
        sq_new, mis_new = self._distance_parts(X_new, X_new)
        k_cross = self._kernel_from_parts(sq_cross, mis_cross, (n, k), theta)
        k_new = self._kernel_from_parts(
            sq_new, mis_new, (k, k), theta
        ) + noise * np.eye(k)
        B = linalg.solve_triangular(chol, k_cross, lower=True)
        S = linalg.cholesky(k_new - B.T @ B, lower=True)
        L = np.zeros((n + k, n + k))
        L[:n, :n] = chol
        L[n:, :n] = B.T
        L[n:, n:] = S
        return L

    def _factor_windows(self, X: np.ndarray, windows: list[int]) -> np.ndarray:
        """Reference path: the windowed factorization rebuilt from scratch.

        Replays the exact per-window computation the incremental path
        cached — the base window's Cholesky comes from the same calls
        ``fit`` made, and each extension block repeats ``_extend_window``'s
        calls with identical shapes — so the factor is byte-identical to
        the cached one unless the cache is corrupt.
        """
        n0 = windows[0]
        theta = self._theta
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        noise = math.exp(2.0 * theta[3]) + 1e-8
        sq, mis = self._distance_parts(X[:n0], X[:n0])
        K = self._kernel_from_parts(
            sq, mis, (n0, n0), theta
        ) + noise * np.eye(n0)
        chol = linalg.cholesky(K, lower=True)
        pos = n0
        for w in windows[1:]:
            chol = self._extend_window(chol, X[:pos], X[pos:pos + w])
            pos += w
        return chol

    def _refactor_theta_fixed(
        self, X: np.ndarray, y: np.ndarray
    ) -> "GaussianProcess":
        """Exact single-window re-factorization at the current theta (the
        fallback when ``update`` receives a non-extension or hits a
        non-PD extension block)."""
        self._finish(X, y, self._factor_windows(X, [len(X)]), [len(X)])
        return self

    def _finish(
        self,
        X: np.ndarray,
        y: np.ndarray,
        chol: np.ndarray,
        windows: list[int],
    ) -> None:
        """Install a factor plus its cached state; recompute normalization
        and ``alpha`` over the full target vector (what a full fit does)."""
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        self._chol = chol
        self._alpha = linalg.cho_solve((chol, True), z)
        self._X = X
        self._y_raw = y
        self._windows = windows

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    # --- checkpointing ------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the fitted state: hyperparameters,
        the restart RNG's position, and the cached windowed factor, so a
        restored GP continues ``update``/boundary-refit sequences exactly
        where the original left off (the GP-BO ``refit_every > 1`` resume
        path)."""

        def rows(a: np.ndarray | None):
            return None if a is None else a.tolist()

        return {
            "theta": self._theta.tolist(),
            "rng": dict(self.rng.bit_generator.state),
            "X": rows(self._X),
            "y_raw": rows(self._y_raw),
            "windows": list(self._windows),
            "y_mean": self._y_mean,
            "y_std": self._y_std,
            "chol": rows(self._chol),
            "alpha": rows(self._alpha),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same ``is_categorical``
        mask)."""

        def arr(value):
            return None if value is None else np.asarray(value, dtype=float)

        self._theta = np.asarray(state["theta"], dtype=float)
        self.rng.bit_generator.state = state["rng"]
        self._X = arr(state["X"])
        self._y_raw = arr(state["y_raw"])
        self._windows = [int(w) for w in state["windows"]]
        self._y_mean = float(state["y_mean"])
        self._y_std = float(state["y_std"])
        self._chol = arr(state["chol"])
        self._alpha = arr(state["alpha"])

    # --- prediction --------------------------------------------------------------

    def predict_mean_var(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._X is None or self._alpha is None or self._chol is None:
            raise RuntimeError("GP is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = self._kernel(X, self._X, self._theta)
        mean_z = k_star @ self._alpha
        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        amp2 = math.exp(2.0 * self._theta[0])
        var_z = np.maximum(amp2 - np.sum(v**2, axis=0), 1e-12)
        mean = mean_z * self._y_std + self._y_mean
        var = var_z * self._y_std**2
        return mean, var
