"""Tests for search-space bucketization (paper, Section 4.2)."""

import pytest

from repro.core.bucketization import bucketize_space, bucketized_fraction
from repro.core.pipeline import LlamaTuneAdapter
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, IntegerKnob
from repro.space.postgres import postgres_v96_space


class TestBucketizedFraction:
    def test_paper_policy_k10000_affects_about_half(self):
        """K = 10,000 was chosen so ~50% of the v9.6 knobs get bucketized
        (Section 4.2)."""
        fraction = bucketized_fraction(postgres_v96_space(), 10_000)
        assert 0.2 <= fraction <= 0.6

    def test_monotone_in_k(self):
        space = postgres_v96_space()
        f_small = bucketized_fraction(space, 1_000)
        f_large = bucketized_fraction(space, 1_000_000)
        assert f_small >= f_large

    def test_affects_only_large_knobs(self):
        """Only a knob with more than K unique values counts."""
        space = ConfigurationSpace([
            IntegerKnob("s", default=0, lower=0, upper=10),
            IntegerKnob("l", default=0, lower=0, upper=100_000),
        ])
        assert bucketized_fraction(space, 1000) == 0.5
        assert bucketized_fraction(space, 100_001) == 0.0


class TestBucketizeSpace:
    @pytest.fixture
    def space(self):
        return ConfigurationSpace(
            [
                IntegerKnob("big", default=0, lower=0, upper=1_000_000),
                IntegerKnob("small", default=3, lower=0, upper=7),
                CategoricalKnob("cat", default="a", choices=("a", "b")),
            ]
        )

    def test_large_knob_replaced_by_index(self, space):
        bucketized = bucketize_space(space, 100)
        assert bucketized["big"].upper == 99
        assert bucketized["small"] is space["small"]
        assert bucketized["cat"] is space["cat"]

    def test_names_preserved(self, space):
        bucketized = bucketize_space(space, 100)
        assert bucketized.names == space.names

    def test_invalid_max_values(self, space):
        """A grid needs at least two points (K - 1 divides the index); the
        adapter refuses a smaller K when it is built, projected or not."""
        for max_values in (1, 0, -5):
            with pytest.raises(ValueError, match="max_values"):
                LlamaTuneAdapter(space, projection=None, max_values=max_values)
            with pytest.raises(ValueError, match="max_values"):
                LlamaTuneAdapter(space, target_dim=2, max_values=max_values)

    def test_debucketize_round_trip(self, space):
        """An unprojected, bucketized adapter maps index knobs back onto
        their knob's range and passes the others through."""
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.0, max_values=100)
        config = adapter.optimizer_space.partial_configuration(
            {"big": 99, "small": 5}
        )
        original = adapter.to_target(config)
        assert original["big"] == 1_000_000
        assert original["small"] == 5
        assert original["cat"] == "a"

    def test_debucketize_grid_spacing(self, space):
        """Adjacent indices land one grid step apart in the original range."""
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.0, max_values=101)
        values = [
            target["big"]
            for target in adapter.to_target_batch([
                adapter.optimizer_space.partial_configuration({"big": i})
                for i in (0, 1, 2)
            ])
        ]
        assert values == [0, 10_000, 20_000]
