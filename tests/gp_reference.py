"""Reference Gaussian process: the scipy-wrapper implementation.

``ReferenceGP`` is the GP surrogate written the plain way: the Matérn
kernel as one textbook expression, every factorization and solve through
scipy's checked ``linalg.cholesky``/``cho_solve``/``solve_triangular``
wrappers, and every hyperparameter restart through scipy's own jac-less
L-BFGS-B on :func:`neg_log_marginal`.  It shares no numeric helper with
:mod:`repro.optimizers.gp`; the production GP must reproduce it byte for
byte — hyperparameters, factor, ``alpha``, windows, posteriors and the
restart RNG position (``tests/test_gp_reference.py``).

Comparing against a same-host oracle instead of committed digests keeps
the pins independent of the BLAS build and the CPU.

The pieces mirror the production API where the tests need it: ``fit``,
``update`` (one factor block per appended window, with the theta-fixed
single-window fallback), ``_factor_windows``, ``load_state`` and
``predict_mean_var``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg, optimize

BOUNDS = [(-3.0, 3.0), (-3.0, 2.0), (-3.0, 2.0), (-5.0, 1.0)]


def matern52(sq_dist: np.ndarray) -> np.ndarray:
    """Matérn 5/2 correlation given *squared* scaled distances."""
    d = np.sqrt(np.maximum(sq_dist, 0.0))
    sqrt5_d = np.sqrt(5.0) * d
    return (1.0 + sqrt5_d + 5.0 / 3.0 * sq_dist) * np.exp(-sqrt5_d)


def distance_parts(
    is_categorical: np.ndarray, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Squared numeric distance over the numeric dimensionality, and the
    categorical mismatch fraction, between the rows of ``A`` and ``B``."""
    num = ~is_categorical
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
    if is_categorical.any():
        cat = is_categorical
        mismatch = (A[:, cat][:, None, :] != B[:, cat][None, :, :]).mean(
            axis=2
        )
    return sq_num, mismatch


def kernel_from_parts(
    sq_num: np.ndarray | None,
    mismatch: np.ndarray | None,
    shape: tuple[int, int],
    theta: np.ndarray,
) -> np.ndarray:
    amp2 = math.exp(2.0 * theta[0])
    ls_num = math.exp(theta[1])
    ls_cat = math.exp(theta[2])
    k = np.ones(shape)
    if sq_num is not None:
        k *= matern52(sq_num / ls_num**2)
    if mismatch is not None:
        k *= np.exp(-mismatch / ls_cat)
    return amp2 * k


def noise_level(theta: np.ndarray) -> float:
    return math.exp(2.0 * theta[3]) + 1e-8


def neg_log_marginal(
    theta: np.ndarray,
    sq_num: np.ndarray | None,
    mismatch: np.ndarray | None,
    n: int,
    y: np.ndarray,
) -> float:
    """Negative log marginal likelihood of ``y`` at ``theta``, built from
    scratch (``1e12`` where the kernel is not positive definite)."""
    K = kernel_from_parts(sq_num, mismatch, (n, n), theta) + noise_level(
        theta
    ) * np.eye(n)
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


class ReferenceGP:
    """The GP surrogate over mixed numeric/categorical vectors, written
    with scipy's checked wrappers and jac-less restarts."""

    def __init__(self, is_categorical: np.ndarray, seed: int = 0):
        self.is_categorical = np.asarray(is_categorical, dtype=bool)
        self.rng = np.random.default_rng(seed)
        self._theta = np.array([0.0, -0.7, 0.0, -2.3])
        self._X: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._alpha: np.ndarray | None = None
        self._chol: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._windows: list[int] = []

    def _kernel(self, A: np.ndarray, B: np.ndarray, theta: np.ndarray):
        sq_num, mismatch = distance_parts(self.is_categorical, A, B)
        return kernel_from_parts(sq_num, mismatch, (len(A), len(B)), theta)

    def fit(self, X: np.ndarray, y: np.ndarray, n_restarts: int = 2):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std

        starts = [self._theta]
        for _ in range(n_restarts):
            starts.append(self._theta + self.rng.normal(0.0, 0.5, size=4))

        sq_num, mismatch = distance_parts(self.is_categorical, X, X)
        n = len(X)
        best_nll, best_theta = np.inf, self._theta
        lb = np.array([b[0] for b in BOUNDS])
        ub = np.array([b[1] for b in BOUNDS])
        for start in starts:
            result = optimize.minimize(
                neg_log_marginal,
                np.clip(start, lb, ub),
                args=(sq_num, mismatch, n, z),
                method="L-BFGS-B",
                bounds=BOUNDS,
                options={"maxiter": 50},
            )
            if result.fun < best_nll:
                best_nll, best_theta = result.fun, result.x

        self._theta = best_theta
        K = kernel_from_parts(
            sq_num, mismatch, (n, n), best_theta
        ) + noise_level(best_theta) * np.eye(n)
        self._finish(X, y, linalg.cholesky(K, lower=True), [n])
        return self

    def update(self, X: np.ndarray, y: np.ndarray):
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

    def _extend_window(self, chol, X_prev, X_new):
        n, k = len(X_prev), len(X_new)
        theta = self._theta
        sq_cross, mis_cross = distance_parts(
            self.is_categorical, X_prev, X_new
        )
        sq_new, mis_new = distance_parts(self.is_categorical, X_new, X_new)
        k_cross = kernel_from_parts(sq_cross, mis_cross, (n, k), theta)
        k_new = kernel_from_parts(
            sq_new, mis_new, (k, k), theta
        ) + noise_level(theta) * np.eye(k)
        B = linalg.solve_triangular(chol, k_cross, lower=True)
        S = linalg.cholesky(k_new - B.T @ B, lower=True)
        L = np.zeros((n + k, n + k))
        L[:n, :n] = chol
        L[n:, :n] = B.T
        L[n:, n:] = S
        return L

    def _factor_windows(self, X, windows):
        n0 = windows[0]
        theta = self._theta
        sq, mis = distance_parts(self.is_categorical, X[:n0], X[:n0])
        K = kernel_from_parts(sq, mis, (n0, n0), theta) + noise_level(
            theta
        ) * np.eye(n0)
        chol = linalg.cholesky(K, lower=True)
        pos = n0
        for w in windows[1:]:
            chol = self._extend_window(chol, X[:pos], X[pos:pos + w])
            pos += w
        return chol

    def _refactor_theta_fixed(self, X, y):
        self._finish(X, y, self._factor_windows(X, [len(X)]), [len(X)])
        return self

    def _finish(self, X, y, chol, windows):
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        z = (y - self._y_mean) / self._y_std
        self._chol = chol
        self._alpha = linalg.cho_solve((chol, True), z)
        self._X = X
        self._y_raw = y
        self._windows = windows

    def load_state(self, state: dict, X, y) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        windows = [int(w) for w in state["windows"]]
        self._theta = np.asarray(state["theta"], dtype=float)
        self.rng.bit_generator.state = state["rng"]
        self._finish(X, y, self._factor_windows(X, windows), windows)

    def predict_mean_var(self, X: np.ndarray):
        if self._X is None or self._alpha is None or self._chol is None:
            raise RuntimeError("GP is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k_star = self._kernel(X, self._X, self._theta)
        mean_z = k_star @ self._alpha
        v = linalg.solve_triangular(self._chol, k_star.T, lower=True)
        amp2 = math.exp(2.0 * self._theta[0])
        var_z = np.maximum(amp2 - np.sum(v**2, axis=0), 1e-12)
        mean = mean_z * self._y_std + self._y_mean
        var = var_z * self._y_std**2
        return mean, var
