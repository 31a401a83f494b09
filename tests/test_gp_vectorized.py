"""Pins for the GP boundary-fit fast path (stencil-reusing restarts).

``GaussianProcess.fit`` feeds L-BFGS-B a finite-difference gradient whose
four stencil evaluations reuse the base point's kernel factors; the (f, g)
bytes are identical to scipy's own jac-less differencing, so the selected
hyperparameters — and the winning restart — must match a plain jac-less
``optimize.minimize`` restart exactly.  Any divergence means the FD
replica (step, bound adjustment, or factor reuse) drifted from scipy's
scheme; fix the replica, don't loosen the comparison.
"""

import numpy as np
import pytest
from scipy import optimize

from gp_reference import neg_log_marginal
from repro.optimizers.gp import GaussianProcess
from repro.optimizers.gpbo import GPBOOptimizer
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, FloatKnob, IntegerKnob


def dataset(n: int, n_cat: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 12))
    is_cat = np.zeros(12, dtype=bool)
    if n_cat:
        X[:, -n_cat:] = rng.integers(0, 3, size=(n, n_cat))
        is_cat[-n_cat:] = True
    return X, rng.normal(size=n), is_cat


CASES = [(60, 0), (60, 3), (40, 12), (25, 1)]


def plain_restart(gp, x0, sq_num, mismatch, n, y, lb, ub, bounds):
    """The reference restart: scipy's L-BFGS-B with its own jac-less
    finite differences over the reference objective, in the signature of
    ``GaussianProcess._minimize_restart_vectorized``."""
    return optimize.minimize(
        neg_log_marginal,
        x0,
        args=(sq_num, mismatch, n, y),
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": 50},
    )


class TestVectorizedFitByteIdentity:
    @pytest.mark.parametrize("n,n_cat", CASES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_plain_path(self, monkeypatch, n, n_cat, seed):
        X, y, is_cat = dataset(n, n_cat, seed)
        fast = GaussianProcess(is_cat, seed=seed).fit(X, y)
        monkeypatch.setattr(
            GaussianProcess, "_minimize_restart_vectorized", plain_restart
        )
        plain = GaussianProcess(is_cat, seed=seed).fit(X, y)
        np.testing.assert_array_equal(fast._theta, plain._theta)
        np.testing.assert_array_equal(fast._chol, plain._chol)
        np.testing.assert_array_equal(fast._alpha, plain._alpha)
        probes, _, _ = dataset(9, n_cat, seed + 1)
        for a, b in zip(
            fast.predict_mean_var(probes), plain.predict_mean_var(probes)
        ):
            np.testing.assert_array_equal(a, b)

    def test_same_argmin_restart(self):
        """Every restart's optimum — value and iterate — matches the plain
        minimize call, so the argmin restart is the same by construction
        (checked per start, not just on the winner)."""
        X, y, is_cat = dataset(60, 2)
        gp = GaussianProcess(is_cat, seed=3)
        z = (y - y.mean()) / y.std()
        sq_num, mismatch = gp._distance_parts(X, X)
        bounds = [(-3.0, 3.0), (-3.0, 2.0), (-3.0, 2.0), (-5.0, 1.0)]
        lb = np.array([b[0] for b in bounds])
        ub = np.array([b[1] for b in bounds])
        rng = np.random.default_rng(11)
        starts = [gp._theta] + [
            gp._theta + rng.normal(0.0, 0.5, size=4) for _ in range(2)
        ]
        for start in starts:
            x0 = np.clip(start, lb, ub)
            fast = gp._minimize_restart_vectorized(
                x0, sq_num, mismatch, len(X), z, lb, ub, bounds
            )
            plain = plain_restart(
                gp, x0, sq_num, mismatch, len(X), z, lb, ub, bounds
            )
            assert fast.fun == plain.fun
            np.testing.assert_array_equal(fast.x, plain.x)

    @pytest.mark.parametrize("n,n_cat", CASES)
    def test_stencil_values_match_full_evaluations(self, n, n_cat):
        """Each factor-reusing stencil evaluation is byte-identical to a
        from-scratch ``neg_log_marginal`` at the perturbed theta.  A
        lengthscale whose kernel factor the space lacks leaves the
        objective at the base value, which the stencil reuses."""
        X, y, is_cat = dataset(n, n_cat)
        gp = GaussianProcess(is_cat, seed=0)
        z = (y - y.mean()) / y.std()
        sq_num, mismatch = gp._distance_parts(X, X)
        absent = (False, sq_num is None, mismatch is None, False)
        for theta in (
            np.array([0.0, -0.7, 0.0, -2.3]),
            np.array([1.2, -2.1, 1.5, -4.0]),
        ):
            value, factors = gp._nll_with_factors(
                theta, sq_num, mismatch, len(X), z
            )
            assert value == neg_log_marginal(
                theta, sq_num, mismatch, len(X), z
            )
            for i in range(4):
                theta_i = np.copy(theta)
                theta_i[i] += 1e-8
                full = neg_log_marginal(theta_i, sq_num, mismatch, len(X), z)
                if absent[i]:
                    assert full == value
                else:
                    assert gp._stencil_nll(
                        theta_i, i, factors, sq_num, mismatch, z
                    ) == full


def small_space() -> ConfigurationSpace:
    return ConfigurationSpace(
        [
            FloatKnob("x", default=0.0, lower=0.0, upper=1.0),
            IntegerKnob("k", default=1, lower=0, upper=8),
            CategoricalKnob("mode", default="a", choices=("a", "b")),
        ]
    )


def objective(config) -> float:
    return (
        1.0
        - (config["x"] - 0.7) ** 2
        + 0.05 * config["k"]
        + (0.3 if config["mode"] == "b" else 0.0)
    )


class TestBoundaryWarmStart:
    def drive(self, refit_every: int, iters: int = 16):
        entry_thetas = []
        original = GaussianProcess.fit

        def spy(gp_self, X, y, n_restarts=2):
            entry_thetas.append(np.copy(gp_self._theta))
            return original(gp_self, X, y, n_restarts)

        optimizer = GPBOOptimizer(
            small_space(), seed=2, n_init=6, refit_every=refit_every,
            n_random_candidates=100, n_local_candidates=4,
        )
        fitted_thetas = []
        import unittest.mock as mock
        with mock.patch.object(GaussianProcess, "fit", spy):
            for _ in range(iters):
                config = optimizer.suggest()
                optimizer.observe(config, objective(config))
                if optimizer._gp is not None:
                    fitted_thetas.append(np.copy(optimizer._gp._theta))
        return entry_thetas, optimizer

    def test_refit_boundaries_start_from_previous_optimum(self):
        entry_thetas, optimizer = self.drive(refit_every=4)
        default = np.array([0.0, -0.7, 0.0, -2.3])
        assert len(entry_thetas) >= 2
        # First boundary is cold (no previous window), later ones warm.
        np.testing.assert_array_equal(entry_thetas[0], default)
        for theta in entry_thetas[1:]:
            assert not np.array_equal(theta, default)

    def test_refit_every_one_stays_cold(self):
        entry_thetas, _ = self.drive(refit_every=1, iters=12)
        default = np.array([0.0, -0.7, 0.0, -2.3])
        assert len(entry_thetas) >= 4
        for theta in entry_thetas:
            np.testing.assert_array_equal(theta, default)
