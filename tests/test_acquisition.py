"""Tests for acquisition functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizers.acquisition import expected_improvement


class TestExpectedImprovement:
    def test_zero_std_zero_ei(self):
        ei = expected_improvement(np.array([10.0]), np.array([0.0]), best=5.0)
        assert ei[0] == 0.0

    def test_higher_mean_higher_ei(self):
        ei = expected_improvement(
            np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), best=1.5
        )
        assert ei[0] < ei[1] < ei[2]

    def test_higher_std_higher_ei_below_best(self):
        """Below the incumbent, more uncertainty means more EI (exploration)."""
        ei = expected_improvement(
            np.array([0.0, 0.0]), np.array([0.5, 2.0]), best=1.0
        )
        assert ei[1] > ei[0]

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(
            rng.normal(size=100), np.abs(rng.normal(size=100)), best=0.5
        )
        assert np.all(ei >= 0.0)

    @given(
        mean=st.floats(-100, 100, allow_nan=False),
        std=st.floats(0.001, 50),
        best=st.floats(-100, 100, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_ei_bounded_property(self, mean, std, best):
        """EI never exceeds mean improvement plus a few std."""
        ei = expected_improvement(np.array([mean]), np.array([std]), best)
        assert 0.0 <= ei[0] <= max(mean - best, 0.0) + 3.0 * std

    def test_far_above_best_ei_approaches_improvement(self):
        ei = expected_improvement(np.array([100.0]), np.array([0.01]), best=0.0)
        assert ei[0] == pytest.approx(100.0, rel=0.01)
