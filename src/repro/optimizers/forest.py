"""Random-forest regressor with predictive uncertainty.

This is the surrogate model behind our SMAC implementation (Hutter et al.,
2011): bagged CART regression trees with randomized split selection, and a
law-of-total-variance uncertainty estimate (variance across tree means plus
mean within-leaf variance), which is what SMAC feeds into expected
improvement.

Trees are stored as flat arrays, and the whole ensemble is additionally
*packed* into one concatenated node table (:class:`_ForestArrays`).  One
scoring path serves one forest and many: :func:`predict_mean_var_stacked`
scores every forest's row slab against the forest's own table — in one
native call that walks each row to its leaves and reduces them into the
row's ``(mean, var)``, or, without the kernel, a numpy frontier traversal
and numpy's reductions per forest — and ``predict_mean_var`` is its
one-forest call.  The native reduction replicates numpy's summation
order, so the paths are byte-identical.  The fit side hoists the per-node
``argsort`` into one stable presort per tree whose order arrays are
filtered down the recursion, so split search costs a membership gather
per node instead of an O(n log n) sort.

Both halves are pinned byte-identical to the historical per-tree
implementation: same RNG call sequence (bootstrap draw, per-node feature
permutation, threshold-subsample keys), same float operations on the same
intermediate arrays, same argmin winners.  ``tests/test_forest.py`` and
``tests/test_determinism_pins.py`` enforce this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.optimizers import _forest_kernel

#: Random threshold candidates kept per feature during split search.
DEFAULT_N_THRESHOLDS = 8


@dataclass
class _TreeArrays:
    """Flattened binary tree: internal nodes carry (feature, threshold)."""

    feature: np.ndarray  # int, -1 for leaves
    threshold: np.ndarray  # float, unused for leaves
    left: np.ndarray  # int child indices
    right: np.ndarray
    value: np.ndarray  # leaf mean (0.0 on internals, never read)
    variance: np.ndarray  # leaf variance (0.0 on internals, never read)


@dataclass
class _ForestArrays:
    """All trees' node tables concatenated, with per-tree start offsets.

    Child indices are rebased to the concatenated table, so one frontier
    descent can advance every (tree, row) pair simultaneously.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    variance: np.ndarray
    offsets: np.ndarray  # (n_trees,) root index of each tree
    n_columns: int  # columns a scored matrix needs: highest split + 1
    _nodes4: np.ndarray | None = None  # native-kernel node layout (lazy)

    @property
    def nodes4(self) -> np.ndarray:
        """Interleaved ``(feature, threshold, left, right)`` node table in
        the native kernel's 32-byte-per-node layout (built on first use)."""
        if self._nodes4 is None:
            self._nodes4 = _forest_kernel.pack_nodes(
                self.feature, self.threshold, self.left, self.right
            )
        return self._nodes4

    @classmethod
    def from_packed(
        cls,
        nodes4: np.ndarray,
        value: np.ndarray,
        variance: np.ndarray,
        offsets: np.ndarray,
    ) -> "_ForestArrays":
        """Wrap the native builder's packed node table (child indices
        already global to it), so the column fields are views into it."""
        return cls(
            feature=nodes4[:, 0],
            threshold=nodes4[:, 1].view(np.float64),
            left=nodes4[:, 2],
            right=nodes4[:, 3],
            value=value,
            variance=variance,
            offsets=offsets,
            n_columns=int(nodes4[:, 0].max(initial=-1)) + 1,
            _nodes4=nodes4,
        )

    @classmethod
    def pack(cls, trees: list[_TreeArrays]) -> "_ForestArrays":
        sizes = np.array([len(t.feature) for t in trees])
        offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        left = np.concatenate(
            [np.where(t.left >= 0, t.left + off, -1)
             for t, off in zip(trees, offsets)]
        )
        right = np.concatenate(
            [np.where(t.right >= 0, t.right + off, -1)
             for t, off in zip(trees, offsets)]
        )
        feature = np.concatenate([t.feature for t in trees])
        return cls(
            feature=feature,
            threshold=np.concatenate([t.threshold for t in trees]),
            left=left,
            right=right,
            value=np.concatenate([t.value for t in trees]),
            variance=np.concatenate([t.variance for t in trees]),
            offsets=offsets,
            n_columns=int(feature.max(initial=-1)) + 1,
        )


class RegressionTree:
    """A CART regression tree with random feature subsets and thresholds."""

    def __init__(
        self,
        max_features: int | None = None,
        min_samples_split: int = 3,
        max_depth: int = 20,
        n_thresholds: int = DEFAULT_N_THRESHOLDS,
        *,
        rng: np.random.Generator,
    ):
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.n_thresholds = n_thresholds
        self.rng = rng
        self._arrays: _TreeArrays | None = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        presort: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Fit on (X, y).

        ``presort`` is the feature-major stable argsort of ``X`` — shape
        ``(n_features, n_samples)``, row ``j`` = stable argsort of column
        ``j`` (computed here when absent); the recursion never re-sorts —
        each node recovers its sorted value rows by filtering presorted
        per-feature tables through a node membership mask, which preserves
        the stable tie order exactly (a stable sort filtered to a subset is
        the stable sort of that subset).  All split-search arrays live in feature-major ``(m, n)``
        layout so the cumulative sums run along contiguous memory; the
        random-key matrix is still *drawn* in the historical ``(n-1, m)``
        shape and the argmin ranks candidates in the historical
        (position, feature) order, keeping the RNG stream and every
        tie-break byte-identical to the per-node-argsort implementation.
        """
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        n_total, n_features = X.shape
        mf = self.max_features or max(1, int(np.sqrt(n_features)))
        x_t = np.ascontiguousarray(X.T)  # feature-major knob matrix
        if presort is None:
            presort = np.argsort(x_t, axis=1, kind="stable")
        # Feature-major presorted tables: row j holds sample positions and
        # (X, y) values in stable ascending order of feature j.  X and y
        # share one (2, d, n) table so each node gathers both with a single
        # advanced-indexing pass.
        xysort = np.empty((2, n_features, n_total))
        xysort[0] = np.take_along_axis(x_t, presort, axis=1)
        xysort[1] = y[presort]
        in_node = np.zeros(n_total, dtype=bool)
        rng = self.rng
        max_depth = self.max_depth
        min_split = self.min_samples_split
        n_thresholds = self.n_thresholds
        # Per-size scratch shared by every node of size n: split positions
        # k / n-k and reusable SSE buffers (each node consumes its buffers
        # before any child runs, so reuse across the recursion is safe).
        scratch: dict[int, tuple] = {}
        inf = np.inf

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        variance: list[float] = []

        # Iterative pre-order build (node ids and RNG consumption exactly
        # match the historical recursion: a node is processed fully, then
        # its whole left subtree, then the right).  Stack entries are
        # (row indices, depth, parent node, is-right-child).
        stack: list[tuple[np.ndarray, int, int, bool]] = [
            (np.arange(n_total), 0, -1, False)
        ]
        while stack:
            idx, depth, parent, is_right = stack.pop()
            node = len(feature)
            if parent >= 0:
                if is_right:
                    right[parent] = node
                else:
                    left[parent] = node
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            variance.append(0.0)
            y_node = y[idx]
            n = len(idx)
            split = None
            if (
                depth < max_depth
                and n >= min_split
                and np.maximum.reduce(y_node) - np.minimum.reduce(y_node)
                != 0.0
            ):
                # --- split search over the presorted tables -------------
                features = rng.permutation(n_features)[:mf]
                m = len(features)
                in_node[idx] = True
                cols = presort[features]  # m x n_total
                sel = in_node[cols]
                in_node[idx] = False
                xy = xysort[:, features][:, sel].reshape(2, m, n)
                xs = xy[0]
                ys = xy[1]
                valid = xs[:, :-1] < xs[:, 1:]  # split after col p, row c
                n_valid = np.count_nonzero(valid)
                if n_valid:
                    try:
                        k, n_minus_k, cum, cum_sq, b1, b2 = scratch[n]
                    except KeyError:
                        k = np.arange(1, n, dtype=float)[None, :]
                        n_minus_k = n - k
                        cum = np.empty((mf, n))
                        cum_sq = np.empty((mf, n))
                        b1 = np.empty((mf, n - 1))
                        b2 = np.empty((mf, n - 1))
                        scratch[n] = (k, n_minus_k, cum, cum_sq, b1, b2)
                    if m != mf:  # mf > n_features: every feature selected
                        cum, cum_sq = np.empty((m, n)), np.empty((m, n))
                        b1, b2 = np.empty((m, n - 1)), np.empty((m, n - 1))
                    np.add.accumulate(ys, 1, None, cum)
                    np.multiply(ys, ys, ys)
                    np.add.accumulate(ys, 1, None, cum_sq)
                    total = cum[:, -1:]
                    total_sq = cum_sq[:, -1:]
                    cum = cum[:, :-1]
                    cum_sq = cum_sq[:, :-1]
                    # scores = where(valid, left_sse + right_sse, inf) with
                    #   left_sse  = cum_sq - cum**2 / k
                    #   right_sse = (total_sq - cum_sq)
                    #               - (total - cum)**2 / (n - k)
                    # in the exact historical op order (same ufuncs on the
                    # same values; `a ** 2` lowers to `a * a`), into reused
                    # buffers via positional-out ufunc calls.
                    np.multiply(cum, cum, b1)
                    np.divide(b1, k, b1)
                    np.subtract(cum_sq, b1, b1)  # b1 = left_sse
                    np.subtract(total, cum, b2)
                    np.multiply(b2, b2, b2)
                    np.divide(b2, n_minus_k, b2)
                    scores = np.subtract(total_sq, cum_sq)
                    np.subtract(scores, b2, scores)  # right_sse
                    np.add(b1, scores, scores)
                    scores[np.invert(valid)] = inf

                    # Randomized threshold selection: keep at most
                    # n_thresholds valid candidates per feature, chosen
                    # uniformly via random keys.  The draw keeps its
                    # historical (n-1, m) shape so the stream maps values
                    # to (position, feature) pairs identically; the
                    # n_valid > m * n_thresholds pigeonhole shortcut skips
                    # the per-feature count when some row must overflow.
                    if n_valid > m * n_thresholds or (
                        n_valid > n_thresholds
                        and n > n_thresholds + 1
                        and int(
                            np.maximum.reduce(np.add.reduce(valid, axis=1))
                        )
                        > n_thresholds
                    ):
                        keys = rng.random((n - 1, m))
                        keys_t = keys.T
                        keys_t[np.invert(valid)] = inf
                        kth = np.partition(keys, n_thresholds - 1, axis=0)[
                            n_thresholds - 1
                        ]
                        scores[keys_t > kth[:, None]] = inf

                    # Rank candidates in the historical (position-major)
                    # flat order so equal scores break ties identically.
                    flat = int(scores.T.argmin())
                    p, c = flat // m, flat % m
                    if math.isfinite(scores[c, p]):
                        f = int(features[c])
                        t = float((xs[c, p] + xs[c, p + 1]) / 2.0)
                        mask = x_t[f][idx] <= t
                        n_left = np.count_nonzero(mask)
                        if n_left != n and n_left != 0:
                            split = (f, t, mask)

            if split is None:
                # Raw-ufunc mean/var: bit-identical to .mean()/.var()
                # (same pairwise summation) without the wrapper cost.
                mean = np.add.reduce(y_node) / n
                dev = y_node - mean
                value[node] = float(mean)
                variance[node] = float(np.add.reduce(dev * dev) / n)
            else:
                f, t, mask = split
                feature[node] = f
                threshold[node] = t
                stack.append((idx[np.invert(mask)], depth + 1, node, True))
                stack.append((idx[mask], depth + 1, node, False))
        self._arrays = _TreeArrays(
            feature=np.array(feature, dtype=int),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=int),
            right=np.array(right, dtype=int),
            value=np.array(value, dtype=float),
            variance=np.array(variance, dtype=float),
        )
        return self


class RandomForestRegressor:
    """Bagged ensemble of :class:`RegressionTree` with uncertainty."""

    def __init__(
        self,
        n_trees: int = 20,
        max_features: int | None = None,
        min_samples_split: int = 3,
        max_depth: int = 20,
        bootstrap: bool = True,
        *,
        seed: int,
    ):
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.max_depth = max_depth
        self.bootstrap = bootstrap
        self.rng = np.random.default_rng(seed)
        self._tree_storage: list[RegressionTree] | None = None
        self._packed: _ForestArrays | None = None

    @property
    def _trees(self) -> list[RegressionTree]:
        """Per-tree views: the numpy builder's output, and the
        representation the per-tree reference predict in
        ``tests/forest_reference.py`` walks.  The native builder emits the
        packed table directly, so the per-tree arrays are reconstructed
        lazily by slicing it and un-rebasing the child indices."""
        if self._tree_storage is None and self._packed is not None:
            p = self._packed
            bounds = np.append(p.offsets, len(p.feature))
            trees = []
            for off, end in zip(bounds[:-1], bounds[1:]):
                tree = RegressionTree(
                    max_features=self.max_features,
                    min_samples_split=self.min_samples_split,
                    max_depth=self.max_depth,
                    rng=self.rng,
                )
                left = p.left[off:end]
                right = p.right[off:end]
                tree._arrays = _TreeArrays(
                    feature=p.feature[off:end].copy(),
                    threshold=p.threshold[off:end].copy(),
                    left=np.where(left >= 0, left - off, -1),
                    right=np.where(right >= 0, right - off, -1),
                    value=p.value[off:end].copy(),
                    variance=p.variance[off:end].copy(),
                )
                trees.append(tree)
            self._tree_storage = trees
        return self._tree_storage or []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._tree_storage = None
        lib = _forest_kernel.load_kernel()
        if lib is not None:
            self._fit_native(lib, X, y)
        else:
            self._fit_numpy(X, y)
            self._packed = _ForestArrays.pack(
                [
                    tree._arrays
                    for tree in self._trees
                    if tree._arrays is not None
                ]
            )
        return self

    def _fit_native(self, lib, X: np.ndarray, y: np.ndarray) -> None:
        """Whole-forest build in one native call: the kernel consumes
        ``self.rng``'s bit-generator stream directly (same draws, same
        order as the numpy builder) and emits the packed node table, so
        trees and the post-fit stream position are byte-identical to
        :meth:`_fit_numpy`."""
        n_features = X.shape[1]
        nodes4, value, variance, offsets = _forest_kernel.build_forest(
            lib,
            X,
            y,
            self.rng,
            n_trees=self.n_trees,
            max_features=(
                self.max_features or max(1, int(np.sqrt(n_features)))
            ),
            min_samples_split=self.min_samples_split,
            max_depth=self.max_depth,
            n_thresholds=DEFAULT_N_THRESHOLDS,
            bootstrap=self.bootstrap,
        )
        self._packed = _ForestArrays.from_packed(
            nodes4, value, variance, offsets
        )

    def _fit_numpy(self, X: np.ndarray, y: np.ndarray) -> None:
        self._tree_storage = trees = []
        n = len(y)
        # Without bootstrap every tree sees the same matrix, so one presort
        # serves the whole ensemble.  With bootstrap each tree's resampled
        # matrix needs its own presort; the index draw itself is already one
        # batched RNG call per tree and cannot be hoisted further without
        # reordering the stream (tree building consumes the same generator
        # between draws).
        shared_presort = (
            None
            if self.bootstrap
            else np.argsort(
                np.ascontiguousarray(X.T), axis=1, kind="stable"
            )
        )
        for _ in range(self.n_trees):
            if self.bootstrap:
                idx = self.rng.integers(0, n, size=n)
                Xt, yt, presort = X[idx], y[idx], None
            else:
                Xt, yt, presort = X, y, shared_presort
            tree = RegressionTree(
                max_features=self.max_features,
                min_samples_split=self.min_samples_split,
                max_depth=self.max_depth,
                rng=self.rng,
            )
            tree.fit(Xt, yt, presort=presort)
            trees.append(tree)

    def predict(self, X: np.ndarray) -> np.ndarray:
        mean, __ = self.predict_mean_var(X)
        return mean

    def predict_mean_var(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ensemble mean and total variance (between + within trees): the
        one-forest call of :func:`predict_mean_var_stacked`, so output is
        byte-identical across kernels and to the per-tree reference in
        ``tests/forest_reference.py``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return predict_mean_var_stacked([self], X, [len(X)])[0]


def predict_mean_var_stacked(
    forests: list["RandomForestRegressor"],
    X: np.ndarray,
    row_counts: Sequence[int],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One model-phase scoring pass across one or more forests.

    Forest ``k`` scores only its own candidate slab — rows
    ``[sum(row_counts[:k]), sum(row_counts[:k+1]))`` of ``X`` — against its
    own packed table: one native call for every forest, which walks each
    forest's trees and reduces each row's leaves into its ``(mean, var)``,
    or, without the kernel, one numpy frontier and reduction per forest
    (:func:`_predict_numpy`).  Both paths give the same bytes, and each
    returned pair is byte-identical to scoring ``forests[k]`` alone on
    ``X_k`` — the wave scheduler's cross-session contract.  ``X`` may be
    wider than a forest's training matrix (the wave zero-pads mixed
    widths), but never narrower than the columns its trees split on.
    """
    if len(forests) != len(row_counts):
        raise ValueError("forests and row_counts length mismatch")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    row_counts = [int(n) for n in row_counts]
    if sum(row_counts) != len(X):
        raise ValueError("row_counts do not cover X")
    packs = []
    for k, forest in enumerate(forests):
        if forest._packed is None:
            raise RuntimeError("forest is not fitted")
        if X.shape[1] < forest._packed.n_columns:
            raise ValueError(
                f"X has {X.shape[1]} columns, but forest {k} splits on "
                f"column {forest._packed.n_columns - 1}"
            )
        packs.append(forest._packed)
    bounds = np.cumsum([0, *row_counts]).tolist()

    lib = _forest_kernel.load_kernel()
    if lib is None:
        return [
            _predict_numpy(p, X[a:b])
            for p, a, b in zip(packs, bounds[:-1], bounds[1:])
        ]
    out = _forest_kernel.predict_mean_var_grouped(
        lib, [(p.nodes4, p.value, p.variance, p.offsets) for p in packs],
        row_counts, X,
    )
    return [(out[0, a:b], out[1, a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def _predict_numpy(
    pack: _ForestArrays, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fallback for one forest: a simultaneous frontier traversal over
    every (tree, row) pair of its own table — pairs that reach a leaf drop
    out — then numpy's reductions over the ``(n_trees, n_rows)`` leaf
    value and variance stacks.  The native pass reproduces these bytes."""
    n_trees, n_rows = len(pack.offsets), len(X)
    node = np.repeat(pack.offsets, n_rows)
    row = np.tile(np.arange(n_rows), n_trees)
    active = np.flatnonzero(pack.feature[node] >= 0)
    while active.size:
        nd = node[active]
        go_left = X[row[active], pack.feature[nd]] <= pack.threshold[nd]
        nd = np.where(go_left, pack.left[nd], pack.right[nd])
        node[active] = nd
        active = active[pack.feature[nd] >= 0]
    mean_stack = pack.value[node].reshape(n_trees, n_rows)
    var_stack = pack.variance[node].reshape(n_trees, n_rows)
    mean = mean_stack.mean(axis=0)
    total_var = mean_stack.var(axis=0) + var_stack.mean(axis=0)
    return mean, np.maximum(total_var, 1e-12)
