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

The numeric core computes exactly what scipy's checked wrappers
(``linalg.cholesky``/``cho_solve``/``solve_triangular``) and the textbook
Matérn expression compute, with less work around the arithmetic:

* One private LAPACK seam (``_lapack``, and ``_cholesky`` and
  ``_solve_lower`` on top of it) calls ``dpotrf(lower=1, clean=1)``,
  ``dpotrs`` and ``dtrtrs`` directly on the bytes the wrappers would
  pass, and keeps
  every check they make: ``ValueError`` on a NaN or inf operand,
  ``LinAlgError`` when ``info > 0``, ``ValueError`` when ``info < 0``,
  and ``solve_triangular``'s layout rule — an F-ordered factor (from
  ``dpotrf``) is solved lower/no-trans, a C-ordered one (an extended
  window, or a factor restored by ``load_state``) through its transpose,
  upper/trans.
* The Matérn and kernel builds run in place (``out=``); the noise is added
  to the diagonal in place.
* The training side's numeric columns and squared norms are cached with
  the factor (``_finish``; ``load_state`` rebuilds them, the checkpoint
  never holds them), taken from the same ``X[:, num]`` copy the
  distance computation reads.
* The finite-difference stencil skips the lengthscale whose kernel factor
  a space lacks: its objective value is the base point's, bit for bit.

``tests/gp_reference.py`` keeps the plain scipy-wrapper implementation,
and ``tests/test_gp_reference.py`` pins this one to it byte for byte.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

# --- LAPACK seam -------------------------------------------------------------


def _lapack(routine, *arrays: np.ndarray, **options) -> np.ndarray:
    """Call ``routine`` on ``arrays`` with the checks scipy's wrappers make:
    ``ValueError`` if an operand holds a NaN or an inf (``check_finite``),
    ``LinAlgError`` when LAPACK reports ``info > 0`` (a matrix that is not
    positive definite, or a zero on a triangle's diagonal), and
    ``ValueError`` when it reports ``info < 0``."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    x, info = routine(*arrays, **options)
    if info > 0:
        raise LinAlgError(f"LAPACK {routine.__name__} returned info = {info}")
    if info < 0:
        raise ValueError(f"LAPACK {routine.__name__} returned info = {info}")
    return x


def _cholesky(a: np.ndarray) -> np.ndarray:
    """``linalg.cholesky(a, lower=True)``: the F-ordered lower factor,
    upper triangle zeroed (``a`` is copied, not overwritten)."""
    return _lapack(dpotrf, a, lower=1, clean=1)


def _solve_lower(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``linalg.solve_triangular(c, b, lower=True)`` for a scratch ``b``,
    which is overwritten when it is F-ordered.

    The layout rule is scipy's: ``dtrtrs`` wants an F-ordered matrix, so
    a factor that is not F-ordered is solved as its transpose (an F-ordered
    view) with ``lower=0, trans=1``, which LAPACK computes differently.
    """
    if c.flags.f_contiguous:
        return _lapack(dtrtrs, c, b, lower=1, overwrite_b=1)
    return _lapack(dtrtrs, c.T, b, lower=0, trans=1, overwrite_b=1)


# --- kernel -------------------------------------------------------------------


def matern52(sq_dist: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matérn 5/2 correlation given *squared* scaled distances.

    ``(1 + sqrt(5) d + 5/3 d^2) exp(-sqrt(5) d)``, op for op and in the same
    order, through two scratch arrays instead of one temporary per step;
    ``out`` may be ``sq_dist`` itself.
    """
    s = np.maximum(sq_dist, 0.0, out=np.empty_like(sq_dist, dtype=float))
    np.sqrt(s, out=s)
    s *= np.sqrt(5.0)
    e = np.negative(s, out=np.empty_like(s))
    np.exp(e, out=e)
    s += 1.0
    out = np.multiply(sq_dist, 5.0 / 3.0, out=out)
    out += s
    out *= e
    return out


def _add_noise(K: np.ndarray, noise: float) -> np.ndarray:
    """``K + noise * I`` in place.  Kernel entries are never ``-0.0``, so
    the off-diagonal ``+ 0.0`` adds this skips changed no bit."""
    K.flat[:: len(K) + 1] += noise
    return K


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
        # ``_columns(self._X)``, kept with the factor.
        self._cols: tuple | None = None

    # --- kernel --------------------------------------------------------------

    def _columns(self, X: np.ndarray) -> tuple:
        """A point set's kernel inputs: its numeric columns with their
        squared norms, and its categorical columns (``None`` where the
        space has none).  Boolean column indexing returns an F-ordered
        copy, and the norms are row sums over that copy — the rounding
        of a row sum depends on the layout it runs over."""
        num = ~self.is_categorical
        a = sq_norms = cat = None
        if num.any():
            a = X[:, num]
            sq_norms = np.sum(a**2, axis=1)
        if self.is_categorical.any():
            cat = X[:, self.is_categorical]
        return a, sq_norms, cat

    @staticmethod
    def _parts(
        cols_a: tuple, cols_b: tuple
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Theta-independent kernel precursors between two point sets.

        Returns the per-pair squared numeric distance already normalized by
        the numeric dimensionality (so lengthscales stay comparable between
        the 16-d synthetic and 90-d original spaces), and the categorical
        mismatch fraction.  Both depend only on the data, so ``fit``
        computes them once and reuses them across every hyperparameter
        restart and objective evaluation — the kernel per theta is then
        two cheap elementwise transforms instead of an O(n^2 d) rebuild
        from raw X.
        """
        a, a_sq, a_cat = cols_a
        b, b_sq, b_cat = cols_b
        sq_num = None
        if a is not None:
            sq_num = a_sq[:, None] + b_sq[None, :]
            sq_num -= 2.0 * a @ b.T
            np.maximum(sq_num, 0.0, out=sq_num)
            sq_num /= a.shape[1]
        mismatch = None
        if a_cat is not None:
            mismatch = (a_cat[:, None, :] != b_cat[None, :, :]).mean(axis=2)
        return sq_num, mismatch

    def _distance_parts(
        self, A: np.ndarray, B: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        return self._parts(self._columns(A), self._columns(B))

    @staticmethod
    def _matern_factor(
        sq_num: np.ndarray, log_ls: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        r = np.divide(sq_num, math.exp(log_ls) ** 2, out=out)
        return matern52(r, out=r)

    @staticmethod
    def _hamming_factor(mismatch: np.ndarray, log_ls: float) -> np.ndarray:
        h = np.negative(mismatch)
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        h /= math.exp(log_ls)
        return np.exp(h, out=h)

    @staticmethod
    def _amp2(theta: np.ndarray) -> float:
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        return math.exp(2.0 * theta[0])

    @staticmethod
    def _noise(theta: np.ndarray) -> float:
        # repro-lint: allow[ulp] reason=scalar-only theta transform; np.exp can differ from math.exp in the last ulp and would shift the pinned GP trajectories
        return math.exp(2.0 * theta[3]) + 1e-8

    def _kernel_from_parts(
        self,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        shape: tuple[int, int],
        theta: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``amp2 * matern * hamming``, built in ``out`` when it is given
        (``out`` may be ``sq_num`` itself); the parts are otherwise only
        read."""
        k = None
        if sq_num is not None:
            k = self._matern_factor(sq_num, theta[1], out=out)
        if mismatch is not None:
            h = self._hamming_factor(mismatch, theta[2])
            if k is None:
                k = h
            else:
                k *= h
        if k is None:
            k = np.ones(shape)
        k *= self._amp2(theta)
        return k

    # --- fitting ---------------------------------------------------------------

    def _chol_nll(self, K: np.ndarray, y: np.ndarray) -> float:
        """Negative log marginal likelihood of ``y`` under the noisy
        kernel ``K`` (``1e12`` where ``K`` is not positive definite)."""
        try:
            chol = _cholesky(K)
        except LinAlgError:
            return 1e12
        alpha = _lapack(dpotrs, chol, y, lower=1)
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
        """The objective at ``theta``, plus its kernel factors.

        The ``(matern, hamming, product)`` factors let the
        finite-difference stencil skip rebuilding whatever its single
        perturbed hyperparameter does not touch.
        """
        m_f = c_f = None
        if sq_num is not None:
            m_f = self._matern_factor(sq_num, theta[1])
        if mismatch is not None:
            c_f = self._hamming_factor(mismatch, theta[2])
        if m_f is None:
            product = np.ones((n, n)) if c_f is None else c_f
        elif c_f is None:
            product = m_f
        else:
            product = m_f * c_f
        K = _add_noise(product * self._amp2(theta), self._noise(theta))
        return self._chol_nll(K, y), (m_f, c_f, product)

    def _stencil_nll(
        self,
        theta_i: np.ndarray,
        i: int,
        factors: tuple,
        sq_num: np.ndarray | None,
        mismatch: np.ndarray | None,
        y: np.ndarray,
    ) -> float:
        """One finite-difference stencil point: ``theta_i`` differs from
        the base theta in coordinate ``i`` only, so every kernel factor
        the perturbed hyperparameter does not touch is reused from the
        base evaluation — bit-identical to a from-scratch evaluation (the
        reused arrays hold exactly the values it would recompute, and the
        combining ops run in the same order).  ``i`` is never a
        lengthscale whose factor is absent (see ``_fd_grad_stencil``)."""
        m_f, c_f, product = factors
        if i == 1:
            k = self._matern_factor(sq_num, theta_i[1])
            if c_f is not None:
                k *= c_f
            k *= self._amp2(theta_i)
        elif i == 2:
            k = self._hamming_factor(mismatch, theta_i[2])
            if m_f is not None:
                k *= m_f
            k *= self._amp2(theta_i)
        else:
            # The amplitude or the noise level: every factor is reused.
            k = product * self._amp2(theta_i)
        return self._chol_nll(_add_noise(k, self._noise(theta_i)), y)

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
        objective values cost roughly one kernel rebuild plus one Cholesky
        factorization each instead of full rebuilds.

        A lengthscale whose kernel factor the space lacks (the categorical
        one on a numeric-only space, the numeric one on a categorical-only
        space) leaves the kernel unchanged, so its stencil value is ``f0``
        bit for bit and is not recomputed."""
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

        absent = (False, sq_num is None, mismatch is None, False)
        f_evals = np.empty(len(theta))
        for i in range(len(theta)):
            if absent[i]:
                f_evals[i] = f0
                continue
            theta_i = np.copy(theta)
            theta_i[i] = theta[i] + h[i]
            f_evals[i] = self._stencil_nll(
                theta_i, i, factors, sq_num, mismatch, y
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
                sq_num, mismatch, y, lb, ub,
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
        K = self._kernel_from_parts(sq_num, mismatch, (n, n), best_theta)
        chol = _cholesky(_add_noise(K, self._noise(best_theta)))
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
            chol = self._extend_window(self._chol, self._cols, X[n_prev:])
        except LinAlgError:
            return self._refactor_theta_fixed(X, y)
        self._finish(X, y, chol, windows)
        return self

    def _extend_window(
        self,
        chol: np.ndarray,
        prev: tuple,
        X_new: np.ndarray,
    ) -> np.ndarray:
        """One block step: extend the factor by ``X_new``'s rows.

        ``chol`` covers the rows whose ``_columns`` are ``prev``; the
        returned factor covers those rows followed by ``X_new``'s.  Only
        the cross and new-diagonal kernel blocks are computed — the cached
        factor already encodes everything about the old rows.  Raises
        ``LinAlgError`` when the Schur complement of the new block is not
        positive definite.
        """
        n, k = len(chol), len(X_new)
        theta = self._theta
        new = self._columns(X_new)
        sq_cross, mis_cross = self._parts(prev, new)
        sq_new, mis_new = self._distance_parts(X_new, X_new)
        k_cross = self._kernel_from_parts(sq_cross, mis_cross, (n, k), theta)
        k_new = _add_noise(
            self._kernel_from_parts(sq_new, mis_new, (k, k), theta),
            self._noise(theta),
        )
        B = _solve_lower(chol, k_cross)
        S = _cholesky(k_new - B.T @ B)
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
        sq, mis = self._distance_parts(X[:n0], X[:n0])
        K = self._kernel_from_parts(sq, mis, (n0, n0), theta)
        chol = _cholesky(_add_noise(K, self._noise(theta)))
        pos = n0
        for w in windows[1:]:
            chol = self._extend_window(
                chol, self._columns(X[:pos]), X[pos:pos + w]
            )
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
        self._alpha = _lapack(dpotrs, chol, z, lower=1)
        self._X = X
        self._cols = self._columns(X)
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
        mask).  The restored factor is C-ordered, which routes its
        triangular solves through the transposed call (see
        ``_solve_lower``)."""

        def arr(value):
            return None if value is None else np.asarray(value, dtype=float)

        self._theta = np.asarray(state["theta"], dtype=float)
        self.rng.bit_generator.state = state["rng"]
        self._X = arr(state["X"])
        self._cols = None if self._X is None else self._columns(self._X)
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
        sq_num, mismatch = self._parts(self._columns(X), self._cols)
        k_star = self._kernel_from_parts(
            sq_num, mismatch, (len(X), len(self._X)), self._theta, out=sq_num
        )
        mean_z = k_star @ self._alpha
        v = _solve_lower(self._chol, k_star.T)  # k_star's buffer
        var_z = np.maximum(
            self._amp2(self._theta) - np.sum(np.square(v, out=v), axis=0),
            1e-12,
        )
        mean = mean_z * self._y_std + self._y_mean
        var = var_z * self._y_std**2
        return mean, var
