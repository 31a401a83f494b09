"""Tests for special-value biasing (paper, Section 4.1 / Figure 5).

The fixed examples run through the biaser's matrix pass
(:meth:`SpecialValueBiaser.from_unit_array`) on one-row unit matrices;
``tests/adapter_reference.py`` holds the knob-by-knob definition the
pass is pinned to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.biasing import SpecialValueBiaser
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import FloatKnob, IntegerKnob
from repro.space.postgres import postgres_v96_space


def svb(biaser, name, unit):
    """One knob's value from the SVB pass over a one-row unit matrix
    (every other coordinate at 0.5)."""
    row = np.full((1, biaser.space.dim), 0.5)
    row[0, biaser.space.index_of(name)] = unit
    return biaser.from_unit_array(row)[0][name]


@pytest.fixture
def space():
    return ConfigurationSpace(
        [
            IntegerKnob("bfa", default=0, lower=0, upper=256, special_values=(0,)),
            IntegerKnob("walb", default=-1, lower=-1, upper=1000, special_values=(-1,)),
            IntegerKnob("plain", default=5, lower=0, upper=10),
            FloatKnob("jit", default=-1.0, lower=-1.0, upper=100.0, special_values=(-1.0,)),
        ]
    )


class TestSpecialValueBiaser:
    def test_low_mass_maps_to_special(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        assert svb(biaser, "bfa", 0.0) == 0
        assert svb(biaser, "bfa", 0.19) == 0

    def test_above_mass_maps_to_regular_range(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        assert svb(biaser, "bfa", 0.2) == 1  # start of regular range
        assert svb(biaser, "bfa", 1.0) == 256

    def test_negative_special_value(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        assert svb(biaser, "walb", 0.1) == -1
        assert svb(biaser, "walb", 0.2) == 0
        assert svb(biaser, "walb", 1.0) == 1000

    def test_plain_knob_not_biased(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        assert svb(biaser, "plain", 0.1) == 1  # plain min-max scaling
        assert not biaser.is_biased("plain")

    def test_zero_bias_disables(self, space):
        biaser = SpecialValueBiaser(space, bias=0.0)
        assert svb(biaser, "bfa", 0.05) == 13  # plain scaling, no bias

    def test_float_hybrid_knob(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        special = svb(biaser, "jit", 0.1)
        assert special == -1.0 and type(special) is float
        assert svb(biaser, "jit", 1.0) == pytest.approx(100.0)

    def test_invalid_bias_rejected(self, space):
        with pytest.raises(ValueError):
            SpecialValueBiaser(space, bias=0.6)
        with pytest.raises(ValueError):
            SpecialValueBiaser(space, bias=-0.1)

    def test_special_probability(self, space):
        biaser = SpecialValueBiaser(space, bias=0.2)
        assert biaser.biased[space.index_of("bfa")].mass == pytest.approx(0.2)
        assert space.index_of("plain") not in biaser.biased

    @given(unit=st.floats(0.0, 1.0, allow_nan=False), bias=st.floats(0.01, 0.4))
    @settings(max_examples=100, deadline=None)
    def test_output_always_valid_property(self, unit, bias):
        """Any (unit, bias) yields a legal knob value."""
        space = ConfigurationSpace(
            [IntegerKnob("h", default=0, lower=-1, upper=99, special_values=(-1,))]
        )
        biaser = SpecialValueBiaser(space, bias=bias)
        space["h"].validate(svb(biaser, "h", unit))

    def test_uniform_sampling_hits_special_at_expected_rate(self, space):
        """With bias p, a uniform unit sample maps to the special value with
        probability p (the Section 4.1 binomial argument)."""
        biaser = SpecialValueBiaser(space, bias=0.2)
        rng = np.random.default_rng(0)
        unit = np.full((5000, space.dim), 0.5)
        unit[:, space.index_of("bfa")] = rng.random(5000)
        hits = sum(c["bfa"] == 0 for c in biaser.from_unit_array(unit))
        assert 0.17 < hits / 5000 < 0.23

    def test_catalog_hybrid_knobs_all_biasable(self):
        """Every hybrid knob in the real v9.6 catalog produces valid values
        across the whole normalized range."""
        space = postgres_v96_space()
        biaser = SpecialValueBiaser(space, bias=0.2)
        units = np.array([0.0, 0.1, 0.2, 0.5, 0.9, 1.0])
        configs = biaser.from_unit_array(np.repeat(units[:, None], space.dim, 1))
        for config in configs:
            for knob in space.hybrid_knobs:
                knob.validate(config[knob.name])
