"""Reference forest predict: one tree at a time.

``tree_predict_with_variance`` walks one :class:`RegressionTree`'s own
node arrays with a per-tree frontier, and ``predict_mean_var_per_tree``
averages those per-tree answers the textbook way (stack, mean, variance
across trees plus mean within-leaf variance).  They share no traversal
code with :mod:`repro.optimizers.forest`, whose packed one-pass walk —
native or numpy, one forest or several stacked — must reproduce them
byte for byte (``tests/test_forest.py``,
``tests/test_determinism_pins.py``).
"""

from __future__ import annotations

import numpy as np

from repro.optimizers.forest import RandomForestRegressor, RegressionTree


def tree_predict_with_variance(
    tree: RegressionTree, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf mean and leaf variance of ``tree`` for each row of ``X``."""
    if tree._arrays is None:
        raise RuntimeError("tree is not fitted")
    a = tree._arrays
    X = np.atleast_2d(np.asarray(X, dtype=float))
    node = np.zeros(len(X), dtype=int)
    active = a.feature[node] >= 0
    while active.any():
        rows = np.flatnonzero(active)
        nd = node[rows]
        go_left = X[rows, a.feature[nd]] <= a.threshold[nd]
        node[rows] = np.where(go_left, a.left[nd], a.right[nd])
        active = a.feature[node] >= 0
    return a.value[node], a.variance[node]


def predict_mean_var_per_tree(
    forest: RandomForestRegressor, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and total variance (between + within trees), from
    each tree's own predictions."""
    if not forest._trees:
        raise RuntimeError("forest is not fitted")
    means = []
    variances = []
    for tree in forest._trees:
        m, v = tree_predict_with_variance(tree, X)
        means.append(m)
        variances.append(v)
    mean_stack = np.stack(means)
    var_stack = np.stack(variances)
    mean = mean_stack.mean(axis=0)
    total_var = mean_stack.var(axis=0) + var_stack.mean(axis=0)
    return mean, np.maximum(total_var, 1e-12)
