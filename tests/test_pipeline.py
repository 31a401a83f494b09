"""Tests for the unified LlamaTune adapter pipeline (paper, Section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import (
    IdentityAdapter,
    LlamaTuneAdapter,
    SubspaceAdapter,
    llamatune_adapter,
)
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import IntegerKnob
from repro.space.postgres import postgres_v96_space
from repro.space.sampling import uniform_configurations


@pytest.fixture(scope="module")
def space():
    return postgres_v96_space()


class TestIdentityAdapter:
    def test_passthrough(self, space):
        adapter = IdentityAdapter(space)
        config = space.default_configuration()
        assert adapter.optimizer_space is space
        assert adapter.to_target(config) is config


class TestSubspaceAdapter:
    def test_optimizer_space_is_subset(self, space):
        adapter = SubspaceAdapter(space, ["shared_buffers", "commit_delay"])
        assert adapter.optimizer_space.dim == 2

    def test_untuned_knobs_stay_default(self, space):
        adapter = SubspaceAdapter(space, ["shared_buffers"])
        sub_config = adapter.optimizer_space.configuration({"shared_buffers": 99_999})
        full = adapter.to_target(sub_config)
        assert full["shared_buffers"] == 99_999
        assert full["work_mem"] == space["work_mem"].default


class TestProjectionPipeline:
    def test_paper_default_space_shape(self, space):
        adapter = llamatune_adapter(space, seed=0)
        opt_space = adapter.optimizer_space
        assert opt_space.dim == 16
        assert opt_space.names[0] == "hesbo_1"
        # Bucketized grid exposed to the optimizer.
        assert opt_space["hesbo_1"].num_values == 10_000

    def test_unbucketized_space_is_continuous(self, space):
        adapter = LlamaTuneAdapter(space, target_dim=8, max_values=None, bias=0.0)
        assert np.isinf(adapter.optimizer_space["hesbo_1"].num_values)

    def test_rembo_space_bounds(self, space):
        adapter = LlamaTuneAdapter(
            space, projection="rembo", target_dim=16, max_values=None, bias=0.0
        )
        knob = adapter.optimizer_space["rembo_1"]
        assert knob.lower == pytest.approx(-4.0)
        assert knob.upper == pytest.approx(4.0)

    def test_projection_produces_valid_configurations(self, space):
        adapter = llamatune_adapter(space, seed=1)
        rng = np.random.default_rng(0)
        for config in uniform_configurations(adapter.optimizer_space, 25, rng):
            target = adapter.to_target(config)
            for knob in space:
                knob.validate(target[knob.name])

    def test_projection_is_deterministic(self, space):
        a = llamatune_adapter(space, seed=5)
        b = llamatune_adapter(space, seed=5)
        config = a.optimizer_space.default_configuration()
        assert a.to_target(config) == b.to_target(config)

    def test_different_seeds_differ(self, space):
        a = llamatune_adapter(space, seed=1)
        b = llamatune_adapter(space, seed=2)
        rng = np.random.default_rng(0)
        config_a = uniform_configurations(a.optimizer_space, 1, rng)[0]
        assert a.to_target(config_a) != b.to_target(config_a)

    def test_bias_raises_special_value_frequency(self, space):
        """With 20% SVB, hybrid knobs land on special values far more often
        than without biasing."""
        rng = np.random.default_rng(3)

        def special_rate(bias):
            adapter = LlamaTuneAdapter(
                space, target_dim=16, bias=bias, max_values=None, seed=0
            )
            configs = uniform_configurations(adapter.optimizer_space, 200, rng)
            hits = total = 0
            for config in configs:
                target = adapter.to_target(config)
                for knob in space.hybrid_knobs:
                    total += 1
                    hits += target[knob.name] in knob.special_values
            return hits / total

        assert special_rate(0.2) > special_rate(0.0) + 0.1

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_hesbo_sign_symmetry_property(self, seed):
        """Projecting the all-zeros low point gives each knob its midpoint
        (sign-invariant), for any random projection."""
        space = postgres_v96_space()
        adapter = LlamaTuneAdapter(
            space, target_dim=16, bias=0.0, max_values=None, seed=seed
        )
        zero = adapter.optimizer_space.configuration(
            {name: 0.0 for name in adapter.optimizer_space.names}
        )
        target = adapter.to_target(zero)
        sb = space["shared_buffers"]
        assert target["shared_buffers"] == sb.from_unit(0.5)


class TestNoProjectionPipeline:
    def test_svb_only_space_is_original(self, space):
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.2, max_values=None)
        assert adapter.optimizer_space is space

    def test_svb_only_biases_hybrid_knobs(self, space):
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.2, max_values=None)
        # commit_delay in [0, 100000]; unit 0.1 < bias -> special value 0.
        config = space.partial_configuration({"commit_delay": 10_000})
        target = adapter.to_target(config)
        assert target["commit_delay"] == 0

    def test_svb_only_leaves_plain_knobs_alone(self, space):
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.2, max_values=None)
        config = space.partial_configuration({"work_mem": 12_345})
        assert adapter.to_target(config)["work_mem"] == 12_345

    def test_bucketize_only_space(self, space):
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.0, max_values=1000)
        opt_space = adapter.optimizer_space
        assert opt_space["commit_delay"].upper == 999  # bucketized index
        assert opt_space["geqo_effort"] is space["geqo_effort"]  # small: untouched

    def test_bucketize_only_round_trip(self, space):
        adapter = LlamaTuneAdapter(space, projection=None, bias=0.0, max_values=1000)
        config = adapter.optimizer_space.partial_configuration({"commit_delay": 999})
        target = adapter.to_target(config)
        assert target["commit_delay"] == 100_000


class TestConstruction:
    """Bad arguments fail when the adapter is built, not at its first
    conversion."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(max_values=1),
            dict(max_values=-5),
            dict(projection=None, max_values=1),
            dict(projection="rembo", max_values=0),
            dict(bias=0.7),
            dict(target_dim=0),
            dict(target_dim=91),
        ],
        ids=["hesbo-k1", "hesbo-k-negative", "unprojected-k1", "rembo-k0",
             "bias-0.7", "dim-0", "dim-91"],
    )
    def test_bad_arguments_rejected(self, space, kwargs):
        with pytest.raises(ValueError):
            LlamaTuneAdapter(space, **kwargs)

    @pytest.mark.parametrize("projection", ["hesbo", None])
    def test_bias_filling_a_range_rejected(self, projection):
        """Three special values at p = 0.4 would take the whole range."""
        space = ConfigurationSpace([
            IntegerKnob("multi", default=0, lower=-2, upper=100,
                        special_values=(-2, -1, 0)),
            IntegerKnob("plain", default=5, lower=0, upper=10),
        ])
        with pytest.raises(ValueError, match="consumes the whole range"):
            LlamaTuneAdapter(
                space, projection=projection, target_dim=1, bias=0.4,
                max_values=None,
            )
