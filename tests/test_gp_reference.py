"""The production GP against the scipy-wrapper reference, byte for byte.

``tests/gp_reference.py`` holds the GP written the plain way (checked scipy
wrappers, the textbook Matérn expression, jac-less L-BFGS-B restarts).
Every hyperparameter, factor, ``alpha``, window list, posterior and RNG
position of :class:`repro.optimizers.gp.GaussianProcess` must equal it
exactly, on numeric-only, mixed and categorical-only spaces, across
appended update windows and through a checkpoint round trip; and a GP-BO
session must not change by one bit when the reference is swapped in.

Both sides run on this host, so the pins do not depend on the BLAS build
or the CPU.  A failure means the production arithmetic drifted from the
reference: fix the production code, never the comparison.
"""

import hashlib
import json

import numpy as np
import pytest
from scipy import linalg

from gp_reference import ReferenceGP
from repro.optimizers import gpbo
from repro.optimizers.gp import GaussianProcess
from repro.tuning.runner import SessionSpec, llamatune_factory

SPACES = {
    "numeric16": (16, 0),
    "mixed": (12, 4),
    "categorical": (0, 5),
}


def dataset(space: str, n: int, seed: int = 0):
    d_num, d_cat = SPACES[space]
    rng = np.random.default_rng(seed)
    X = rng.random((n, d_num + d_cat))
    X[:, d_num:] = rng.integers(0, 3, size=(n, d_cat))
    y = X[:, : max(1, d_num)].sum(axis=1) + 0.1 * rng.normal(size=n)
    if d_cat:
        y += X[:, d_num] == 1
    is_cat = np.zeros(d_num + d_cat, dtype=bool)
    is_cat[d_num:] = True
    return X, y, is_cat


def assert_same_state(gp: GaussianProcess, ref: ReferenceGP) -> None:
    np.testing.assert_array_equal(gp._theta, ref._theta)
    assert gp._chol.tobytes() == ref._chol.tobytes()
    assert gp._chol.shape == ref._chol.shape
    assert gp._alpha.tobytes() == ref._alpha.tobytes()
    assert gp._windows == ref._windows
    assert (gp._y_mean, gp._y_std) == (ref._y_mean, ref._y_std)
    assert gp.rng.bit_generator.state == ref.rng.bit_generator.state


def assert_same_posterior(gp, ref, probes) -> None:
    for a, b in zip(gp.predict_mean_var(probes), ref.predict_mean_var(probes)):
        assert a.tobytes() == b.tobytes()


class TestFitAndPredict:
    @pytest.mark.parametrize("n", [1, 10, 55, 95])
    @pytest.mark.parametrize("space", list(SPACES))
    def test_fit_matches_reference(self, space, n):
        X, y, is_cat = dataset(space, n)
        gp = GaussianProcess(is_cat, seed=0).fit(X, y)
        ref = ReferenceGP(is_cat, seed=0).fit(X, y)
        assert_same_state(gp, ref)
        probes, _, _ = dataset(space, 1050, seed=1)
        assert_same_posterior(gp, ref, probes)


class TestAppendedWindows:
    @pytest.mark.parametrize("space", list(SPACES))
    def test_update_windows_match_reference(self, space):
        X, y, is_cat = dataset(space, 95, seed=4)
        probes, _, _ = dataset(space, 300, seed=5)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:55], y[:55])
        ref = ReferenceGP(is_cat, seed=0).fit(X[:55], y[:55])
        for stop in (59, 60, 65, 95):
            gp.update(X[:stop], y[:stop])
            ref.update(X[:stop], y[:stop])
            assert_same_state(gp, ref)
            assert_same_posterior(gp, ref, probes)
        assert gp._windows == [55, 4, 1, 5, 30]
        # the from-scratch replay of the same windows
        assert (
            gp._factor_windows(X, gp._windows).tobytes()
            == ref._factor_windows(X, ref._windows).tobytes()
        )

    @pytest.mark.parametrize("space", list(SPACES))
    def test_checkpoint_round_trip_matches_reference(self, space):
        """A checkpoint holds theta, the restart RNG and the window
        sizes; restoring replays ``_factor_windows`` and ``_finish`` over
        the training rows.  The restored GP is the checkpointed one byte
        for byte — the factor's layout included (F-ordered after a fit,
        C-ordered after an extension, which routes triangular solves
        through the transposed upper/trans call) — and predict and
        further updates still match the reference restored from the
        same state."""
        X, y, is_cat = dataset(space, 80, seed=7)
        probes, _, _ = dataset(space, 200, seed=8)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:55], y[:55])
        for stop, f_ordered in ((55, True), (59, False)):
            gp.update(X[:stop], y[:stop])
            assert gp._chol.flags.f_contiguous is f_ordered
            state = json.loads(json.dumps(gp.state_dict()))
            assert sorted(state) == ["rng", "theta", "windows"]
            restored = GaussianProcess(is_cat)
            restored.load_state(state, X[:stop], y[:stop])
            ref = ReferenceGP(is_cat)
            ref.load_state(state, X[:stop], y[:stop])
            assert restored._chol.flags.f_contiguous is f_ordered
            assert restored._chol.tobytes() == gp._chol.tobytes()
            assert restored._alpha.tobytes() == gp._alpha.tobytes()
            assert_same_state(restored, ref)
            assert_same_posterior(restored, ref, probes)
        for stop in (60, 66, 80):
            restored.update(X[:stop], y[:stop])
            ref.update(X[:stop], y[:stop])
            assert_same_state(restored, ref)
            assert_same_posterior(restored, ref, probes)


def trajectory_digest(result) -> str:
    """SHA-256 over every value, crash flag and both knob configurations
    of a session (``repr`` keeps every float bit)."""
    h = hashlib.sha256(repr(result.default_value).encode())
    for o in result.knowledge_base:
        h.update(repr((
            o.iteration, o.value, o.crashed,
            sorted(o.optimizer_config.to_dict().items()),
            sorted(o.target_config.to_dict().items()),
        )).encode())
    return h.hexdigest()


def gpbo_session(refit_every: int, adapter=True, seed: int = 3):
    spec = SessionSpec(
        workload="tpcc",
        optimizer="gp-bo",
        adapter=llamatune_factory() if adapter else None,
        n_iterations=36,
        n_init=10,
        optimizer_kwargs=(("refit_every", refit_every),),
    )
    session = spec.build(seed)
    result = session.run()
    return (
        trajectory_digest(result),
        session.rng.bit_generator.state,
        session.optimizer.rng.bit_generator.state,
    )


class TestGpboSessionWithReference:
    """Swapping the reference GP into GP-BO changes no session byte."""

    @pytest.mark.parametrize(
        "refit_every,adapter",
        [(1, True), (5, True), (5, False)],
        ids=["refit1-llamatune", "refit5-llamatune", "refit5-mixed90"],
    )
    def test_session_digest_unchanged(self, monkeypatch, refit_every, adapter):
        production = gpbo_session(refit_every, adapter)
        monkeypatch.setattr(gpbo, "GaussianProcess", ReferenceGP)
        assert gpbo_session(refit_every, adapter) == production


class TestFailurePaths:
    """The branches a healthy run never reaches."""

    def test_non_pd_kernel_scores_sentinel(self):
        gp = GaussianProcess(np.zeros(2, dtype=bool))
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert gp._chol_nll(K, np.array([0.3, -0.3])) == 1e12

    def test_non_pd_schur_complement_falls_back(self):
        """A corrupt cached factor makes the extension block non-PD; update
        discards it and re-factors the whole window at fixed theta, as
        the reference does."""
        X, y, is_cat = dataset("numeric16", 60, seed=9)
        gp = GaussianProcess(is_cat, seed=0).fit(X[:50], y[:50])
        ref = ReferenceGP(is_cat, seed=0).fit(X[:50], y[:50])
        theta = np.copy(gp._theta)
        gp._chol = gp._chol * 0.25
        ref._chol = ref._chol * 0.25
        with pytest.raises(linalg.LinAlgError):
            ref._extend_window(ref._chol, ref._X, X[50:])
        gp.update(X, y)
        ref.update(X, y)
        assert gp._windows == [60]
        np.testing.assert_array_equal(gp._theta, theta)
        assert_same_state(gp, ref)
        assert_same_posterior(gp, ref, X[:9])

    # y - inf is NaN: numpy warns on the way to the ValueError.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cls", [GaussianProcess, ReferenceGP])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["X", "y"])
    def test_non_finite_data_raises(self, cls, bad, where):
        """``check_finite``'s ValueError, raised by the reference (the
        scipy wrappers) and by the production seam alike."""
        X, y, is_cat = dataset("mixed", 30, seed=10)
        X_bad, y_bad = X.copy(), y.copy()
        if where == "X":
            X_bad[25, 0] = bad
        else:
            y_bad[25] = bad
        with pytest.raises(ValueError):
            cls(is_cat, seed=0).fit(X_bad, y_bad)
        gp = cls(is_cat, seed=0).fit(X[:20], y[:20])
        with pytest.raises(ValueError):
            gp.update(X_bad, y_bad)
        if where == "X":
            gp = cls(is_cat, seed=0).fit(X[:20], y[:20])
            with pytest.raises(ValueError):
                gp.predict_mean_var(X_bad[20:])
