"""Incremental-vs-full refit equivalence for the GP surrogate.

``GaussianProcess.update`` extends the cached Cholesky factor and kernel
tensors by block updates instead of refitting.  Two distinct contracts are
pinned here:

* **cache correctness, byte-exact**: the incremental path (cached tensors
  extended in place) must equal ``_factor_windows`` (the same windowed
  factorization replayed from scratch, trusting nothing) down to the
  last bit — factors, alphas, posteriors, and whole GP-BO session
  trajectories with ``refit_every > 1``, across hyperparameter
  re-optimization boundaries (where the exact full ``fit`` still runs).
* **mathematical correctness, tolerance-based**: the windowed factor is
  algebraically the Cholesky factor of the full kernel matrix, so it must
  match a monolithic ``linalg.cholesky(K_full)`` to within last-ulp
  accumulation differences (LAPACK blocks the computation differently —
  exact bit-equality across the two factorization orders is *not* a
  property either implementation has).

If a byte-exact assertion fails, cached state leaked or diverged — a
correctness regression, not a tolerance issue; do not loosen it.
"""

import numpy as np
import pytest
from scipy import linalg

from repro.optimizers.gp import GaussianProcess
from repro.optimizers.gpbo import GPBOOptimizer
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, FloatKnob, IntegerKnob


def mixed_data(n, seed=0, d_num=12, d_cat=4):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d_num + d_cat))
    X[:, d_num:] = rng.integers(0, 3, size=(n, d_cat))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    is_cat = np.zeros(d_num + d_cat, dtype=bool)
    is_cat[d_num:] = True
    return X, y, is_cat


def small_space() -> ConfigurationSpace:
    return ConfigurationSpace(
        [
            FloatKnob("x", default=0.0, lower=0.0, upper=1.0),
            FloatKnob("y", default=0.0, lower=0.0, upper=1.0),
            IntegerKnob("k", default=2, lower=0, upper=8),
            CategoricalKnob("mode", default="a", choices=("a", "b", "c")),
        ]
    )


def gp_state(gp: GaussianProcess) -> tuple:
    return (gp._chol, gp._alpha, gp._y_mean, gp._y_std,
            tuple(gp._windows))


def assert_state_equal(a: GaussianProcess, b: GaussianProcess) -> None:
    for x, y in zip(gp_state(a), gp_state(b)):
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y


def replay_updates(monkeypatch) -> None:
    """From here on, ``update`` is the from-scratch replay: the appended
    rows' factor is ``_factor_windows`` over the extended windows, so no
    cached factor is ever read."""

    def update(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n_prev = len(self._X)
        # these tests only ever append rows
        assert len(X) > n_prev and np.array_equal(X[:n_prev], self._X)
        windows = self._windows + [len(X) - n_prev]
        self._finish(X, y, self._factor_windows(X, windows), windows)
        return self

    monkeypatch.setattr(GaussianProcess, "update", update)


class TestUpdateMath:
    """The windowed factor is the factor of the full kernel matrix."""

    def test_extended_factor_matches_monolithic_cholesky(self):
        X, y, is_cat = mixed_data(72)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:60], y[:60])
        gp.update(X[:66], y[:66])
        gp.update(X, y)
        noise = np.exp(2.0 * gp._theta[3]) + 1e-8
        sq, mis = gp._distance_parts(X, X)
        K = gp._kernel_from_parts(sq, mis, (len(X), len(X)), gp._theta)
        K += noise * np.eye(len(X))
        L = linalg.cholesky(K, lower=True)
        np.testing.assert_allclose(
            np.tril(gp._chol), np.tril(L), rtol=0, atol=1e-9
        )

    def test_posterior_matches_theta_fixed_refactor(self):
        X, y, is_cat = mixed_data(70, seed=1)
        probes, _, _ = mixed_data(9, seed=2)
        inc = GaussianProcess(is_cat, seed=0).fit(X[:60], y[:60])
        inc.update(X, y)
        ref = GaussianProcess(is_cat, seed=0).fit(X[:60], y[:60])
        ref._refactor_theta_fixed(X, y)
        for a, b in zip(inc.predict_mean_var(probes),
                        ref.predict_mean_var(probes)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-8)

    def test_posterior_absorbs_new_observations(self):
        """After update, the GP interpolates the new rows (it is not the
        stale pre-update posterior)."""
        X, y, is_cat = mixed_data(66, seed=3)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:60], y[:60])
        stale_mean, stale_var = gp.predict_mean_var(X[60:])
        gp.update(X, y)
        mean, var = gp.predict_mean_var(X[60:])
        # Posterior variance collapses onto observed rows.
        assert var.mean() < stale_var.mean()
        assert np.abs(mean - y[60:]).mean() < np.abs(stale_mean - y[60:]).mean()

    def test_numeric_only_and_categorical_only_spaces(self):
        """Single-kernel spaces exercise the ``None`` distance-precursor
        branches of the extension blocks."""
        rng = np.random.default_rng(5)
        Xn = rng.random((40, 6))
        yn = Xn.sum(axis=1)
        gp = GaussianProcess(np.zeros(6, dtype=bool), seed=0).fit(
            Xn[:30], yn[:30]
        )
        gp.update(Xn, yn)
        assert gp._chol.shape == (40, 40)
        assert np.isfinite(gp.predict_mean_var(Xn[:5])[0]).all()

        Xc = rng.integers(0, 4, size=(40, 5)).astype(float)
        yc = (Xc[:, 0] == 1).astype(float)
        gp = GaussianProcess(np.ones(5, dtype=bool), seed=0).fit(
            Xc[:30], yc[:30]
        )
        gp.update(Xc, yc)
        assert gp._chol.shape == (40, 40)
        assert np.isfinite(gp.predict_mean_var(Xc[:5])[0]).all()


class TestUpdateContract:
    def test_unfitted_raises(self):
        gp = GaussianProcess(np.zeros(3, dtype=bool))
        with pytest.raises(RuntimeError):
            gp.update(np.zeros((2, 3)), np.zeros(2))

    def test_same_length_is_noop(self):
        X, y, is_cat = mixed_data(50)
        gp = GaussianProcess(is_cat, seed=0).fit(X, y)
        chol = gp._chol
        gp.update(X, y)
        assert gp._chol is chol  # untouched, not recomputed

    def test_non_extension_falls_back_to_refactor(self):
        """Changed prefix rows trigger the exact theta-fixed single-window
        re-factorization instead of a bogus extension."""
        X, y, is_cat = mixed_data(60, seed=7)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:50], y[:50])
        theta = gp._theta.copy()
        shuffled = X[::-1].copy()
        gp.update(shuffled, y[::-1].copy())
        np.testing.assert_array_equal(gp._theta, theta)  # no re-opt
        assert gp._windows == [60]
        ref = GaussianProcess(is_cat, seed=0)
        ref._theta = theta
        ref._refactor_theta_fixed(shuffled, y[::-1].copy())
        assert_state_equal(gp, ref)

    def test_shrunk_data_falls_back(self):
        X, y, is_cat = mixed_data(50, seed=8)
        gp = GaussianProcess(is_cat, seed=0).fit(X, y)
        gp.update(X[:30], y[:30])
        assert gp._windows == [30]
        assert gp._chol.shape == (30, 30)

    def test_window_bookkeeping(self):
        X, y, is_cat = mixed_data(70, seed=9)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:60], y[:60])
        assert gp._windows == [60]
        gp.update(X[:64], y[:64])
        gp.update(X[:65], y[:65])
        gp.update(X, y)
        assert gp._windows == [60, 4, 1, 5]


class TestIncrementalVsReplayByteIdentity:
    """``_factor_windows`` replays the same windowed computation from
    scratch; any byte of divergence means the cache is corrupt."""

    def test_state_identical_across_updates(self, monkeypatch):
        X, y, is_cat = mixed_data(78, seed=11)
        inc = GaussianProcess(is_cat, seed=4).fit(X[:60], y[:60])
        rep = GaussianProcess(is_cat, seed=4).fit(X[:60], y[:60])
        steps = [(66, None), (71, None), (78, None)]
        for stop, _ in steps:
            inc.update(X[:stop], y[:stop])
        replay_updates(monkeypatch)
        for stop, _ in steps:
            rep.update(X[:stop], y[:stop])
        assert_state_equal(inc, rep)
        probes, _, _ = mixed_data(13, seed=12)
        for a, b in zip(inc.predict_mean_var(probes),
                        rep.predict_mean_var(probes)):
            np.testing.assert_array_equal(a, b)


def drive_gpbo(refit_every: int, iters: int = 26, seed: int = 5):
    """A deterministic GP-BO session on the small mixed space; returns the
    suggested-value trajectory and the final RNG state."""
    optimizer = GPBOOptimizer(
        small_space(), seed=seed, n_init=8, refit_every=refit_every,
        n_random_candidates=150, n_local_candidates=5,
    )
    values = []
    for _ in range(iters):
        config = optimizer.suggest()
        value = (
            1.0
            - (config["x"] - 0.7) ** 2
            - (config["y"] - 0.3) ** 2
            + 0.05 * config["k"]
            + (0.3 if config["mode"] == "b" else 0.0)
        )
        optimizer.observe(config, value)
        values.append(value)
    return values, optimizer.rng.bit_generator.state


class TestGpboSessionByteIdentity:
    """Session-level pin: a ``refit_every > 1`` GP-BO trajectory is
    byte-identical whether updates run incrementally or through the
    from-scratch replay — including the full-``fit`` hyperparameter
    re-optimization at every window boundary (26 model iterations with
    ``refit_every=3`` crosses several boundaries)."""

    @pytest.mark.parametrize("refit_every", [2, 3])
    def test_trajectory_identical(self, monkeypatch, refit_every):
        inc_values, inc_state = drive_gpbo(refit_every)
        replay_updates(monkeypatch)
        rep_values, rep_state = drive_gpbo(refit_every)
        np.testing.assert_array_equal(
            np.array(inc_values), np.array(rep_values)
        )
        assert inc_state == rep_state

    def test_refit_every_one_never_updates(self, monkeypatch):
        """The default path never touches ``update`` (its trajectory is the
        historical one); guard the routing, not just the outcome."""
        calls = []
        original = GaussianProcess.update

        def spy(self, X, y):
            calls.append(len(X))
            return original(self, X, y)

        monkeypatch.setattr(GaussianProcess, "update", spy)
        drive_gpbo(refit_every=1, iters=14)
        assert calls == []

    def test_refit_boundaries_reoptimize(self, monkeypatch):
        """Full fits happen exactly at window boundaries; updates fill the
        gaps."""
        fits, updates = [], []
        original_fit = GaussianProcess.fit
        original_update = GaussianProcess.update

        def spy_fit(self, X, y, n_restarts=2):
            fits.append(len(X))
            return original_fit(self, X, y, n_restarts)

        def spy_update(self, X, y):
            updates.append(len(X))
            return original_update(self, X, y)

        monkeypatch.setattr(GaussianProcess, "fit", spy_fit)
        monkeypatch.setattr(GaussianProcess, "update", spy_update)
        drive_gpbo(refit_every=3, iters=15)  # 8 init + 7 model suggestions
        assert fits == [8, 11, 14]       # boundaries: suggestions 1, 4, 7
        assert updates == [9, 10, 12, 13]  # the in-window suggestions
