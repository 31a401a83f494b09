"""Tests for the random-forest surrogate (SMAC's model)."""

import importlib.util
import os
import pathlib
import shutil
import subprocess
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forest_reference import (
    predict_mean_var_per_tree,
    tree_predict_with_variance,
)
from repro.optimizers import _forest_kernel
from repro.optimizers.forest import (
    RandomForestRegressor,
    RegressionTree,
    _ForestArrays,
    predict_mean_var_stacked,
)


def make_data(n=120, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.1 * rng.normal(size=n)
    return X, y


class TestRegressionTree:
    def test_fits_and_predicts(self):
        X, y = make_data()
        tree = RegressionTree(rng=np.random.default_rng(0)).fit(X, y)
        mean, var = tree_predict_with_variance(tree, X)
        assert mean.shape == (len(X),)
        assert np.all(var >= 0)

    def test_constant_target_yields_leaf(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 7.0)
        tree = RegressionTree(rng=np.random.default_rng(0)).fit(X, y)
        mean, var = tree_predict_with_variance(tree, X[:5])
        np.testing.assert_allclose(mean, 7.0)
        np.testing.assert_allclose(var, 0.0)

    def test_single_sample(self):
        tree = RegressionTree(rng=np.random.default_rng(0))
        tree.fit(np.array([[0.5, 0.5]]), np.array([3.0]))
        mean, __ = tree_predict_with_variance(tree, np.array([[0.1, 0.9]]))
        assert mean[0] == 3.0

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            tree_predict_with_variance(
                RegressionTree(rng=np.random.default_rng(0)), np.zeros((1, 2))
            )

    def test_max_depth_respected(self):
        X, y = make_data(n=200)
        tree = RegressionTree(max_depth=1, rng=np.random.default_rng(0)).fit(X, y)
        # Depth-1 tree has at most 2 leaves -> at most 2 distinct predictions.
        mean, __ = tree_predict_with_variance(tree, X)
        assert len(np.unique(mean)) <= 2

    def test_learns_dominant_feature(self):
        """The split search should pick up the strongest signal."""
        rng = np.random.default_rng(1)
        X = rng.random((300, 5))
        y = 10.0 * (X[:, 2] > 0.5).astype(float)
        tree = RegressionTree(max_features=5, rng=rng).fit(X, y)
        lo, __ = tree_predict_with_variance(
            tree, np.array([[0.5, 0.5, 0.1, 0.5, 0.5]])
        )
        hi, __ = tree_predict_with_variance(
            tree, np.array([[0.5, 0.5, 0.9, 0.5, 0.5]])
        )
        assert hi[0] - lo[0] > 5.0


class TestRandomForest:
    def test_mean_and_variance_shapes(self):
        X, y = make_data()
        forest = RandomForestRegressor(n_trees=8, seed=0).fit(X, y)
        mean, var = forest.predict_mean_var(X[:10])
        assert mean.shape == (10,)
        assert np.all(var > 0)

    def test_fit_quality_on_training_data(self):
        X, y = make_data(n=200)
        forest = RandomForestRegressor(n_trees=20, seed=0).fit(X, y)
        pred = forest.predict(X)
        ss_res = np.sum((pred - y) ** 2)
        ss_tot = np.sum((y - y.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.7  # decent in-sample R^2

    def test_uncertainty_grows_off_data(self):
        """Predictive variance should be larger far from the training data
        than at the training points themselves (on average)."""
        rng = np.random.default_rng(2)
        X = rng.random((100, 4)) * 0.3  # clustered in a corner
        y = X.sum(axis=1) + 0.01 * rng.normal(size=100)
        forest = RandomForestRegressor(n_trees=20, seed=0).fit(X, y)
        __, var_in = forest.predict_mean_var(X)
        __, var_out = forest.predict_mean_var(np.full((20, 4), 0.95))
        assert var_out.mean() > var_in.mean()

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(seed=0).fit(np.empty((0, 3)), np.empty(0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(seed=0).fit(np.zeros((5, 2)), np.zeros(4))

    @pytest.mark.parametrize(
        "kernel", ["1", "0"], ids=["native-kernel", "numpy-fallback"]
    )
    def test_treeless_forest_rejected(self, kernel, monkeypatch):
        """``n_trees < 1`` is refused when the forest is built, on both
        paths: a treeless forest has no mean or variance to score."""
        monkeypatch.setenv("REPRO_FOREST_KERNEL", kernel)
        X, y = make_data(n=10)
        for n_trees in (0, -1):
            with pytest.raises(ValueError, match="n_trees"):
                RandomForestRegressor(n_trees=n_trees, seed=0).fit(X, y)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor(seed=0).predict_mean_var(np.zeros((1, 2)))

    def test_deterministic_given_seed(self):
        X, y = make_data()
        a = RandomForestRegressor(n_trees=5, seed=9).fit(X, y).predict(X[:5])
        b = RandomForestRegressor(n_trees=5, seed=9).fit(X, y).predict(X[:5])
        np.testing.assert_array_equal(a, b)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_predictions_within_target_hull_property(self, seed):
        """Tree/forest predictions are means of training targets, so they
        can never leave [min(y), max(y)]."""
        rng = np.random.default_rng(seed)
        X = rng.random((60, 3))
        y = rng.normal(size=60)
        forest = RandomForestRegressor(n_trees=5, seed=seed).fit(X, y)
        pred = forest.predict(rng.random((30, 3)))
        assert np.all(pred >= y.min() - 1e-9)
        assert np.all(pred <= y.max() + 1e-9)


class TestPackedForest:
    """The packed one-pass traversal must equal the per-tree reference
    exactly — same floats, not approximately."""

    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 1000])
    def test_packed_equals_per_tree_across_batch_shapes(self, batch):
        X, y = make_data(n=90, d=8)
        forest = RandomForestRegressor(n_trees=12, seed=5).fit(X, y)
        probes = np.random.default_rng(1).random((batch, 8))
        mean_packed, var_packed = forest.predict_mean_var(probes)
        mean_ref, var_ref = predict_mean_var_per_tree(forest, probes)
        np.testing.assert_array_equal(mean_packed, mean_ref)
        np.testing.assert_array_equal(var_packed, var_ref)

    @pytest.mark.parametrize(
        "rows", [(1, 63, 64, 65, 129), (1, 0, 64, 0, 3)],
        ids=["slabs", "zero-row-groups"],
    )
    def test_stacked_matches_per_forest_predict(self, rows):
        """One stacked call over five forests gives each forest's slab
        exactly what the per-tree reference gives that forest alone,
        zero-row groups included."""
        rng = np.random.default_rng(42)
        forests, slabs = [], []
        for g, n_rows in enumerate(rows):
            X = rng.normal(size=(80, 7))
            y = rng.normal(size=80) + X[:, 0]
            forests.append(
                RandomForestRegressor(n_trees=12, seed=g + 1).fit(X, y)
            )
            slabs.append(rng.normal(size=(n_rows, 7)))
        stacked = predict_mean_var_stacked(
            forests, np.concatenate(slabs), rows
        )
        for forest, slab, (mean, var) in zip(forests, slabs, stacked):
            mean_ref, var_ref = predict_mean_var_per_tree(forest, slab)
            np.testing.assert_array_equal(mean, mean_ref)
            np.testing.assert_array_equal(var, var_ref)

    def test_empty_batch(self):
        X, y = make_data()
        forest = RandomForestRegressor(n_trees=4, seed=0).fit(X, y)
        mean, var = forest.predict_mean_var(np.empty((0, 6)))
        assert mean.shape == (0,) and var.shape == (0,)

    def test_single_vector_input(self):
        X, y = make_data()
        forest = RandomForestRegressor(n_trees=4, seed=0).fit(X, y)
        a = forest.predict_mean_var(X[0])
        b = predict_mean_var_per_tree(forest, X[0])
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_singleton_leaves(self):
        """min_samples_split=2 grows the tree down to one-sample leaves
        (zero variance); the packed tables must carry them exactly."""
        rng = np.random.default_rng(3)
        X = rng.random((16, 2))
        y = rng.normal(size=16)
        forest = RandomForestRegressor(
            n_trees=6, min_samples_split=2, seed=3
        ).fit(X, y)
        a = forest.predict_mean_var(X)
        b = predict_mean_var_per_tree(forest, X)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_stump_forest(self):
        """Constant targets collapse every tree to a root-only leaf; the
        packed offsets must still line up."""
        X = np.random.default_rng(0).random((20, 3))
        forest = RandomForestRegressor(n_trees=5, seed=0).fit(
            X, np.full(20, 7.0)
        )
        mean, var = forest.predict_mean_var(X[:4])
        np.testing.assert_allclose(mean, 7.0)
        np.testing.assert_allclose(var, 1e-12)

    @pytest.mark.parametrize(
        "kernel", ["1", "0"], ids=["native-kernel", "numpy-fallback"]
    )
    def test_narrow_matrix_rejected(self, kernel, monkeypatch):
        """A matrix narrower than the columns a forest splits on raises
        ``ValueError`` on both paths, before any walk reads past its rows;
        a wider, zero-padded matrix (a mixed-width wave's) scores as the
        forest's own width does."""
        if kernel == "1" and not _forest_kernel.kernel_available():
            pytest.skip("native forest kernel unavailable on this host")
        monkeypatch.setenv("REPRO_FOREST_KERNEL", kernel)
        X, y = make_data(n=80, d=16)
        forest = RandomForestRegressor(n_trees=8, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="columns"):
            forest.predict_mean_var(X[:5, :4])
        other = RandomForestRegressor(n_trees=3, seed=1).fit(X[:, :4], y)
        with pytest.raises(ValueError, match="forest 1"):
            predict_mean_var_stacked([other, forest], X[:6, :4], [3, 3])
        padded = np.zeros((5, 20))
        padded[:, :16] = X[:5]
        for a, b in zip(forest.predict_mean_var(padded),
                        forest.predict_mean_var(X[:5])):
            assert a.tobytes() == b.tobytes()


def require_kernel():
    if not _forest_kernel.kernel_available():
        pytest.skip("native forest kernel unavailable on this host")


def assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_paths_match_reference(forests, X, row_counts):
    """Every group's native ``(mean, var)`` equals the numpy fallback's
    and the per-tree reference's, byte for byte."""
    native = predict_mean_var_stacked(forests, X, row_counts)
    with mock.patch.dict(os.environ, {"REPRO_FOREST_KERNEL": "0"}):
        fallback = predict_mean_var_stacked(forests, X, row_counts)
    start = 0
    for forest, n_rows, pair, numpy_pair in zip(
        forests, row_counts, native, fallback
    ):
        reference = (
            predict_mean_var_per_tree(forest, X[start:start + n_rows])
            if n_rows else (np.empty(0), np.empty(0))
        )
        for a, b, c in zip(pair, numpy_pair, reference):
            assert_same_bytes(a, b)
            assert_same_bytes(a, c)
        start += n_rows


def walk_leaves(forest, X):
    """The ``(n_trees, n_rows)`` leaf indices the scoring pass reaches on
    the current kernel path.  Each tree is scored as a one-tree group
    over the forest's own nodes, with every node's value set to its own
    index and every variance to zero, so a row's mean is its leaf."""
    p = forest._packed
    index_values = np.arange(len(p.feature), dtype=float)
    stand_ins = []
    for t in range(len(p.offsets)):
        stand_in = RandomForestRegressor(seed=0)
        stand_in._packed = _ForestArrays.from_packed(
            p.nodes4, index_values, np.zeros(len(p.feature)),
            p.offsets[t:t + 1],
        )
        stand_ins.append(stand_in)
    n_trees = len(stand_ins)
    stacked = predict_mean_var_stacked(
        stand_ins, np.tile(X, (n_trees, 1)), [len(X)] * n_trees
    )
    return np.array([mean for mean, __ in stacked]).reshape(n_trees, len(X))


def assert_walks_match(forest, X):
    """The native walk lands every (tree, row) pair on the numpy
    frontier's leaf."""
    native = walk_leaves(forest, X)
    with mock.patch.dict(os.environ, {"REPRO_FOREST_KERNEL": "0"}):
        fallback = walk_leaves(forest, X)
    np.testing.assert_array_equal(native, fallback)


class TestNativePredict:
    """The fused native pass (one walk, then each row's reduction into
    ``(mean, var)``) against the numpy frontier and the numpy tail: the
    same leaves, and the same bytes.  ``TestFusedPassProperty`` draws the
    general case; these are fixed examples of it."""

    @pytest.mark.parametrize("batch", [1, 7, 63, 64, 65, 500])
    def test_leaf_indices_match_numpy(self, batch):
        require_kernel()
        X, y = make_data(n=90, d=8)
        forest = RandomForestRegressor(n_trees=12, seed=5).fit(X, y)
        probes = np.random.default_rng(1).random((batch, 8))
        assert_walks_match(forest, probes)
        assert_paths_match_reference([forest], probes, [batch])

    def test_many_trees_chunked(self):
        """70 trees over rows that span two of the kernel's row blocks."""
        require_kernel()
        X, y = make_data(n=40, d=5)
        forest = RandomForestRegressor(n_trees=70, seed=2).fit(X, y)
        probes = np.random.default_rng(3).random((300, 5))
        assert_walks_match(forest, probes)
        assert_paths_match_reference([forest], probes, [300])

    def test_nan_probes_go_right_like_numpy(self):
        """A NaN feature value fails ``<=`` and must take the right child
        on both paths."""
        require_kernel()
        X, y = make_data(n=80, d=4)
        forest = RandomForestRegressor(n_trees=8, seed=7).fit(X, y)
        probes = np.random.default_rng(4).random((40, 4))
        probes[::3, 1] = np.nan
        probes[1::5] = np.nan
        assert_walks_match(forest, probes)
        assert_paths_match_reference([forest], probes, [40])

    def test_stump_forest_roots_are_leaves(self):
        """Root-only trees never step; every row's leaf is the root."""
        require_kernel()
        X = np.random.default_rng(0).random((20, 3))
        forest = RandomForestRegressor(n_trees=5, seed=0).fit(
            X, np.full(20, 7.0)
        )
        np.testing.assert_array_equal(
            walk_leaves(forest, X),
            np.repeat(forest._packed.offsets[:, None], 20, axis=1),
        )
        assert_paths_match_reference([forest], X, [20])

    def test_deep_shallow_and_empty_groups_in_one_call(self):
        """One call mixing deep forests (``min_samples_split=2``),
        shallow ones and empty groups: every group's ``(mean, var)``
        matches the numpy fallback and the reference."""
        require_kernel()
        rng = np.random.default_rng(6)
        X_deep = rng.random((300, 6))
        deep = RandomForestRegressor(
            n_trees=6, min_samples_split=2, seed=1
        ).fit(X_deep, rng.normal(size=300))
        shallow = [
            RandomForestRegressor(n_trees=9, seed=k).fit(*make_data(60, 6, k))
            for k in range(2)
        ]
        forests = [shallow[0], deep, shallow[1], deep, shallow[0]]
        row_counts = [70, 130, 0, 0, 5]
        X = rng.random((sum(row_counts), 6))
        X[::7, 2] = np.nan
        assert_paths_match_reference(forests, X, row_counts)

    def test_predict_identical_across_kernel_setting(self, monkeypatch):
        """predict_mean_var under REPRO_FOREST_KERNEL=0 equals the native
        output byte-for-byte on the same fitted forest."""
        require_kernel()
        X, y = make_data(n=100, d=6)
        forest = RandomForestRegressor(n_trees=10, seed=9).fit(X, y)
        probes = np.random.default_rng(8).random((200, 6))
        mean_native, var_native = forest.predict_mean_var(probes)
        monkeypatch.setenv("REPRO_FOREST_KERNEL", "0")
        mean_numpy, var_numpy = forest.predict_mean_var(probes)
        np.testing.assert_array_equal(mean_native, mean_numpy)
        np.testing.assert_array_equal(var_native, var_numpy)

    def test_pack_nodes_layout(self):
        """The interleaved node table bit-casts thresholds, so unpacking
        them recovers the original doubles exactly."""
        X, y = make_data(n=60, d=4)
        forest = RandomForestRegressor(n_trees=3, seed=1).fit(X, y)
        p = forest._packed
        nodes = p.nodes4
        np.testing.assert_array_equal(nodes[:, 0], p.feature)
        np.testing.assert_array_equal(nodes[:, 1].view(float), p.threshold)
        np.testing.assert_array_equal(nodes[:, 2], p.left)
        np.testing.assert_array_equal(nodes[:, 3], p.right)


@dataclass(frozen=True)
class ScoringCase:
    """One stacked scoring call: fitted forests, their row slabs stacked
    into one matrix, and each slab's row count."""

    forests: tuple
    X: np.ndarray
    row_counts: tuple


@st.composite
def scoring_cases(draw) -> ScoringCase:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_groups = draw(st.integers(1, 5))
    widths = [draw(st.integers(1, 12)) for _ in range(n_groups)]
    forests, row_counts = [], []
    for d in widths:
        shape = draw(st.sampled_from(["plain", "stump", "deep"]))
        n = 300 if shape == "deep" else draw(st.integers(2, 60))
        X = rng.random((n, d))
        y = rng.normal(size=n)
        target = draw(
            st.sampled_from(["normal", "negative-zero", "wide", "nan"])
        )
        if target == "wide":  # magnitudes where summation order shows
            y *= 10.0 ** rng.integers(-12, 13, size=n)
        elif target == "nan":  # NaN leaves: the variance floor keeps NaN
            y[rng.integers(n, size=max(1, n // 10))] = np.nan
        if shape == "stump":
            y[:] = y[0]
        forest = RandomForestRegressor(
            n_trees=draw(st.sampled_from([1, 2, 9, 20, 64, 65, 70])),
            min_samples_split=2 if shape == "deep" else 3,
            seed=draw(st.integers(0, 2**32 - 1)),
        ).fit(X, y)
        if target == "negative-zero":
            # Half or all of the leaves read -0.0: a row whose every leaf
            # does sums to +0.0 only when its reductions start from 0.0.
            # A fit yields a -0.0 leaf only when a mean underflows, so a
            # stand-in carries the table.
            share = draw(st.sampled_from([0.5, 1.0]))
            p = forest._packed
            forest = RandomForestRegressor(seed=0)
            forest._packed = _ForestArrays.from_packed(
                p.nodes4,
                np.where(rng.random(len(p.value)) < share, -0.0, p.value),
                p.variance, p.offsets,
            )
        forests.append(forest)
        row_counts.append(
            draw(st.sampled_from([0, 1, 2, 3, 255, 256, 257, 1100]))
        )
    # One matrix as wide as the widest group, zero-padded as a wave does.
    X = np.zeros((sum(row_counts), max(widths)))
    start = 0
    for d, n_rows in zip(widths, row_counts):
        X[start:start + n_rows, :d] = rng.random((n_rows, d))
        start += n_rows
    X[rng.random(X.shape) < 0.05] = np.nan
    return ScoringCase(tuple(forests), X, tuple(row_counts))


class TestFusedPassProperty:
    """The fused native pass equals the numpy fallback byte for byte, and
    both equal the per-tree reference, over the shapes where the two
    reductions could part: one-row groups with 9 or more trees (numpy
    sums those pairwise), row counts around the kernel's 256-row block,
    -0.0 leaves, large magnitudes, NaN leaves and probes, stump forests,
    depth-20 trees and mixed-width groups in one call.  The kernel's
    branch-free stores stay inside its own allocations, which the
    sanitized build checks; a store that lands on the wrong slot of its
    own buffer shows here."""

    @given(case=scoring_cases())
    @settings(max_examples=100, deadline=None)
    def test_fused_pass_matches_numpy_and_reference(self, case):
        require_kernel()
        assert_paths_match_reference(
            list(case.forests), case.X, list(case.row_counts)
        )


def load_compile_tool():
    path = (
        pathlib.Path(__file__).parent.parent / "tools"
        / "compile_forest_kernel.py"
    )
    spec = importlib.util.spec_from_file_location(
        "compile_forest_kernel", path
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


class TestKernelBuild:
    def test_missing_compiler_falls_through_to_the_next(self, monkeypatch):
        """A compiler absent from PATH makes ``subprocess.run`` raise; the
        build must go on to the next compiler instead of giving up."""
        # A fresh source digest, so no cached library short-cuts the build.
        monkeypatch.setattr(
            _forest_kernel, "_C_SOURCE",
            _forest_kernel._C_SOURCE + "/* missing-compiler test */\n",
        )
        tried = []

        def fake_run(cmd, **kwargs):
            tried.append(cmd[0])
            if cmd[0] == "cc":
                raise FileNotFoundError(2, "No such file or directory", "cc")
            return subprocess.CompletedProcess(cmd, 1, b"", b"")

        monkeypatch.setattr(_forest_kernel.subprocess, "run", fake_run)
        assert _forest_kernel._build_library() is None
        assert tried == ["cc", "gcc", "clang"]

    @pytest.fixture
    def unloaded(self, monkeypatch):
        """A process that has not tried to load the kernel yet."""
        monkeypatch.setattr(_forest_kernel, "_lib", None)
        monkeypatch.setattr(_forest_kernel, "_lib_failed", False)
        monkeypatch.delenv("REPRO_FOREST_KERNEL", raising=False)
        return monkeypatch

    def test_failed_build_warns_once(self, unloaded):
        """The fallback to numpy is loud: the first load that finds no
        usable kernel warns, and later loads stay quiet."""
        builds = []
        unloaded.setattr(
            _forest_kernel, "_build_library", lambda: builds.append(1)
        )
        with pytest.warns(RuntimeWarning, match="fall back to numpy") as rec:
            for _ in range(3):
                assert _forest_kernel.load_kernel() is None
        assert len(builds) == 1
        assert [w.category for w in rec] == [RuntimeWarning]

    def test_numpy_request_neither_builds_nor_warns(self, unloaded):
        def build():
            raise AssertionError("REPRO_FOREST_KERNEL=0 must not build")

        unloaded.setattr(_forest_kernel, "_build_library", build)
        unloaded.setenv("REPRO_FOREST_KERNEL", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _forest_kernel.load_kernel() is None
            assert not _forest_kernel.kernel_available()

    def test_compile_tool_reads_the_loader_constants(self):
        """CI compiles the kernel from the literals the tool reads with
        ``ast``; they must be the loader's own."""
        constants = load_compile_tool().kernel_constants()
        assert constants["_C_SOURCE"] == _forest_kernel._C_SOURCE
        assert constants["_BUILD_FLAGS"] == _forest_kernel._BUILD_FLAGS
        assert constants["_STRICT_FLAGS"] == _forest_kernel._STRICT_FLAGS

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc")
    def test_compile_tool_fails_on_a_warning(self):
        tool = load_compile_tool()
        constants = dict(tool.kernel_constants())
        constants["_C_SOURCE"] = "int f(void) { int unused; return 0; }\n"
        ok, diagnostics = tool.compile_kernel("gcc", constants)
        assert not ok and "unused" in diagnostics


@dataclass(frozen=True)
class FitCase:
    """One forest fit: training data, probes, the forest's seed and its
    shape knobs."""

    X: np.ndarray
    y: np.ndarray
    probes: np.ndarray
    seed: int
    n_trees: int = 6
    bootstrap: bool = True
    min_samples_split: int = 3
    max_depth: int = 20

    def forest(self) -> RandomForestRegressor:
        return RandomForestRegressor(
            n_trees=self.n_trees,
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            bootstrap=self.bootstrap,
            seed=self.seed,
        )


def legacy_case(trial_seed: int) -> FitCase:
    """A rounded-tie fit drawn from ``trial_seed``: tied feature and
    target values exercise the stable-sort and tie-break paths, where
    implementations diverge first."""
    rng = np.random.default_rng(trial_seed)
    n = int(rng.integers(5, 150))
    d = int(rng.integers(1, 40))
    X = np.round(rng.random((n, d)), 1)
    y = np.round(rng.normal(size=n), 1)
    seed = int(rng.integers(2**31))
    return FitCase(X, y, rng.random((25, d)), seed)


def smac_like_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Rows the way a SMAC session collects them: a random initial design
    of 10, then one-coordinate Gaussian steps from earlier rows clipped
    to [0, 1] — the clip piles values onto 0 and 1, and each step leaves
    the other coordinates tied with the row it came from."""
    X = rng.random((n, d))
    for i in range(min(10, n), n):
        X[i] = X[rng.integers(i)]
        j = rng.integers(d)
        X[i, j] = np.clip(X[i, j] + rng.normal(0.0, 0.3), 0.0, 1.0)
    return X


@st.composite
def fit_cases(draw) -> FitCase:
    n = draw(st.integers(1, 150))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "rounded", "smac"]))
    if layout == "smac":
        X = smac_like_rows(rng, n, d)
    else:
        X = rng.random((n, d))
        if layout == "rounded":
            X = np.round(X, draw(st.integers(0, 2)))
    if draw(st.booleans()):  # constant columns
        X[:, rng.random(d) < 0.3] = 0.5
    if draw(st.booleans()):  # -0.0 next to 0.0 in the same columns
        zeros = rng.random((n, d)) < 0.2
        X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    if draw(st.booleans()):  # NaN cells
        X[rng.random((n, d)) < 0.1] = np.nan
    y = rng.normal(size=n)
    target = draw(
        st.sampled_from(["normal", "rounded", "wide", "nan", "constant"])
    )
    if target == "rounded":
        y = np.round(y, 1)
    elif target == "wide":  # magnitudes where summation order shows
        y *= 10.0 ** rng.integers(-8, 9, size=n)
    elif target == "nan":
        y[rng.integers(n, size=max(1, n // 20))] = np.nan
    elif target == "constant":
        y[:] = 2.5
    probes = rng.random((25, d))
    probes[::6, rng.integers(d)] = np.nan
    return FitCase(
        X, y, probes,
        seed=draw(st.integers(0, 2**32 - 1)),
        n_trees=draw(st.integers(1, 8)),
        bootstrap=draw(st.booleans()),
        min_samples_split=draw(st.sampled_from([2, 3, 5])),
        max_depth=draw(st.sampled_from([20, 2, 1])),
    )


#: Every column of the packed forest, compared as raw bytes.
PACKED_FIELDS = ("feature", "threshold", "left", "right", "value",
                 "variance", "offsets")


class TestNativeKernelEquivalence:
    """The C build must be byte-identical to the numpy builder: same node
    columns, same predictions, same RNG stream afterwards.

    This property is also the only net for the kernel's unconditional
    stores: its scratch regions share one numpy buffer per type, so a
    store that overruns one region lands in the next, where ASan cannot
    see it but the trees change."""

    @pytest.mark.parametrize("trial_seed", [0, 1, 2, 3])
    def test_native_matches_numpy(self, trial_seed):
        self.assert_native_matches_numpy(legacy_case(trial_seed))

    @given(case=fit_cases())
    @settings(max_examples=200, deadline=None)
    def test_native_build_matches_numpy(self, case):
        self.assert_native_matches_numpy(case)

    @staticmethod
    def assert_native_matches_numpy(case):
        if not _forest_kernel.kernel_available():
            pytest.skip("native forest kernel unavailable on this host")
        native = case.forest().fit(case.X, case.y)
        with mock.patch.dict(os.environ, {"REPRO_FOREST_KERNEL": "0"}):
            fallback = case.forest().fit(case.X, case.y)

        assert (
            native.rng.bit_generator.state
            == fallback.rng.bit_generator.state
        )
        for field in PACKED_FIELDS:
            a = getattr(native._packed, field)
            b = getattr(fallback._packed, field)
            assert a.dtype == b.dtype, field
            assert a.tobytes() == b.tobytes(), field
        assert native._packed.n_columns == fallback._packed.n_columns
        for a, b in zip(native.predict_mean_var(case.probes),
                        fallback.predict_mean_var(case.probes)):
            assert a.tobytes() == b.tobytes()
