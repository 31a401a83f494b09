"""Property-based round trips and conversions over *random* spaces.

``tests/test_batch_equivalence.py`` pins the batch contract on hand-picked
fixtures; this module fuzzes it: hypothesis draws arbitrary configuration
spaces (mixed integer/float/categorical knobs, hybrid knobs with up to
three special values, degenerate zero-span ranges, negative bounds) and
random unit matrices, and asserts the batch conversion paths are
*exactly* the scalar paths — identical native values, identical types,
identical configurations.  The LlamaTune adapter on top is pinned to the
knob-by-knob definition in ``tests/adapter_reference.py``: both
``to_target_batch`` and ``to_target`` (its one-row batch), for every
adapter kind, bias and batch size, with unit coordinates on the cube's
faces and on the special-value band edges.

Everything here is equality-based, never approximate: the batch-API
contract promises bit-identity, so any drift is a bug, not noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapter_reference import assert_matches_reference
from repro.core.pipeline import LlamaTuneAdapter
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, FloatKnob, IntegerKnob


# --- space generation --------------------------------------------------------


@st.composite
def integer_knobs(draw, name: str):
    lower = draw(st.integers(-20, 50))
    span = draw(st.integers(0, 200))
    upper = lower + span
    specials: tuple[int, ...] = ()
    if span >= 2 and draw(st.booleans()):
        # Edge special values make the knob hybrid; include the classic
        # "-1/0 disables the feature" shape when the range allows it, and
        # up to three special values (Section 4.1's extension).
        pool = sorted({lower, lower + 1, lower + 2, upper})
        count = draw(st.integers(1, min(3, len(pool) - 1)))
        specials = tuple(pool[:count])
    default = draw(st.integers(lower, upper))
    return IntegerKnob(
        name=name, default=default, lower=lower, upper=upper,
        special_values=specials,
    )


@st.composite
def float_knobs(draw, name: str):
    lower = draw(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    )
    span = draw(st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False))
    upper = lower + span
    default = lower if draw(st.booleans()) else upper
    specials: tuple[float, ...] = ()
    if span > 0 and draw(st.booleans()):
        specials = (lower,)
    return FloatKnob(
        name=name, default=default, lower=lower, upper=upper,
        special_values=specials,
    )


@st.composite
def categorical_knobs(draw, name: str):
    n = draw(st.integers(2, 6))
    return CategoricalKnob(
        name=name,
        default="c0",
        choices=tuple(f"c{i}" for i in range(n)),
    )


@st.composite
def spaces(draw, min_dim: int = 1, max_dim: int = 12):
    dim = draw(st.integers(min_dim, max_dim))
    kinds = draw(
        st.lists(st.sampled_from(["int", "float", "cat"]),
                 min_size=dim, max_size=dim)
    )
    knobs = []
    for i, kind in enumerate(kinds):
        name = f"knob_{i}"
        if kind == "int":
            knobs.append(draw(integer_knobs(name)))
        elif kind == "float":
            knobs.append(draw(float_knobs(name)))
        else:
            knobs.append(draw(categorical_knobs(name)))
    return ConfigurationSpace(knobs, name=f"fuzz-{dim}")


SETTINGS = settings(max_examples=40, deadline=None)


# --- space round trips -------------------------------------------------------


class TestSpaceRoundTrips:
    @given(space=spaces(), seed=st.integers(0, 2**31 - 1),
           n=st.integers(0, 9))
    @SETTINGS
    def test_from_unit_array_equals_scalar_path(self, space, seed, n):
        unit = np.random.default_rng(seed).random((n, space.dim))
        batch = space.from_unit_array(unit)
        scalar = [space.from_unit_vector(row) for row in unit]
        assert batch == scalar
        for b, s in zip(batch, scalar):
            for name in space.names:
                assert type(b[name]) is type(s[name]), name
                assert b[name] == s[name], name

    @given(space=spaces(), seed=st.integers(0, 2**31 - 1),
           n=st.integers(1, 9))
    @SETTINGS
    def test_to_unit_array_equals_scalar_path(self, space, seed, n):
        unit = np.random.default_rng(seed).random((n, space.dim))
        configs = space.from_unit_array(unit)
        batch = space.to_unit_array(configs)
        scalar = np.stack([space.to_unit_vector(c) for c in configs])
        np.testing.assert_array_equal(batch, scalar)

    @given(space=spaces(), seed=st.integers(0, 2**31 - 1),
           n=st.integers(1, 9))
    @SETTINGS
    def test_round_trip_is_idempotent(self, space, seed, n):
        """After one pass onto the legal grid, unit -> native -> unit ->
        native is a fixed point for the grid kinds (integer rounding and
        categorical binning are projections).  Float knobs are exempt from
        exactness: min-max rescaling of an arbitrary float drifts by an
        ulp (hypothesis finds e.g. 3699.8623549714266 -> ...75), so they
        only get a relative-error bound."""
        unit = np.random.default_rng(seed).random((n, space.dim))
        configs = space.from_unit_array(unit)
        again = space.from_unit_array(space.to_unit_array(configs))
        for a, b in zip(configs, again):
            for name in space.names:
                knob = space[name]
                if isinstance(knob, FloatKnob):
                    assert b[name] == pytest.approx(a[name], rel=1e-12, abs=1e-9)
                else:
                    assert a[name] == b[name], name

    @given(space=spaces(), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_out_of_cube_values_clip_like_scalar(self, space, seed):
        rng = np.random.default_rng(seed)
        unit = rng.random((6, space.dim)) * 3.0 - 1.0  # in [-1, 2)
        batch = space.from_unit_array(unit)
        scalar = [space.from_unit_vector(row) for row in unit]
        assert batch == scalar

    @given(space=spaces())
    @SETTINGS
    def test_default_configuration_round_trips(self, space):
        config = space.default_configuration()
        back = space.from_unit_vector(space.to_unit_vector(config))
        for name in space.names:
            knob = space[name]
            if isinstance(knob, FloatKnob):
                # min-max scaling of an arbitrary interior float is lossy
                # at ulp scale; the grid kinds must round-trip exactly
                continue
            assert back[name] == config[name], name


# --- adapter conversion ------------------------------------------------------


ADAPTER_KINDS = (
    "hesbo", "hesbo-bucketized", "rembo", "svb-only", "unprojected-bucketized",
)


def adapter_for(space, kind: str, seed: int, bias: float = 0.2) -> LlamaTuneAdapter:
    # K - 1 = 100 puts the band edges i * p (p = 0.2, 0.3) on the grid:
    # index 100 * u maps back to exactly u.
    max_values = 101 if kind.endswith("bucketized") else None
    if kind in ("svb-only", "unprojected-bucketized"):
        return LlamaTuneAdapter(
            space, projection=None, bias=bias, max_values=max_values, seed=seed
        )
    return LlamaTuneAdapter(
        space, projection=kind.partition("-")[0], target_dim=min(4, space.dim),
        bias=bias, max_values=max_values, seed=seed,
    )


class TestAdapterRoundTrips:
    @pytest.mark.parametrize(
        "kind", ["hesbo", "hesbo-bucketized", "svb-only"]
    )
    @given(space=spaces(min_dim=2), seed=st.integers(0, 2**31 - 1),
           n=st.integers(1, 8))
    @SETTINGS
    def test_to_target_batch_equals_scalar_path(self, kind, space, seed, n):
        adapter = adapter_for(space, kind, seed)
        opt_space = adapter.optimizer_space
        unit = np.random.default_rng(seed ^ 0x5EED).random((n, opt_space.dim))
        suggestions = opt_space.from_unit_array(unit)
        batch = adapter.to_target_batch(suggestions)
        scalar = [adapter.to_target(c) for c in suggestions]
        assert batch == scalar
        for b, s in zip(batch, scalar):
            for name in space.names:
                assert type(b[name]) is type(s[name]), name
                assert b[name] == s[name], name

    @given(space=spaces(min_dim=2), kind=st.sampled_from(ADAPTER_KINDS),
           bias=st.sampled_from([0.0, 0.2, 0.3]),
           n=st.sampled_from([0, 1, 2, 7, 33]),
           edge_share=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_to_target_paths_equal_reference(
        self, space, kind, bias, n, edge_share, seed
    ):
        """``to_target_batch`` and ``to_target`` both equal the reference
        conversion, value and type.  A drawn share of the optimizer-space
        unit coordinates sits on the cube's faces or on the band edges
        ``i * p``, which bucketized rows carry to the target knobs
        exactly."""
        adapter = adapter_for(space, kind, seed, bias)
        opt_space = adapter.optimizer_space
        rng = np.random.default_rng(seed ^ 0x5EED)
        unit = rng.random((n, opt_space.dim))
        edges = np.array([0.0, 1.0, bias, 2 * bias, 3 * bias])
        on_edge = rng.random(unit.shape) < edge_share
        unit[on_edge] = rng.choice(edges, size=int(on_edge.sum()))
        suggestions = opt_space.from_unit_array(unit)
        assert_matches_reference(
            adapter, suggestions, adapter.to_target_batch(suggestions)
        )
        assert_matches_reference(
            adapter, suggestions, [adapter.to_target(c) for c in suggestions]
        )

    @given(space=spaces(min_dim=2), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_empty_batch(self, space, seed):
        adapter = adapter_for(space, "hesbo", seed)
        assert adapter.to_target_batch([]) == []

    @given(space=spaces(min_dim=2), seed=st.integers(0, 2**31 - 1))
    @SETTINGS
    def test_targets_are_legal_configurations(self, space, seed):
        """Every batch-converted target validates against its own knob
        definitions (trusted construction must not smuggle illegal
        values)."""
        adapter = adapter_for(space, "hesbo", seed)
        opt_space = adapter.optimizer_space
        unit = np.random.default_rng(seed).random((5, opt_space.dim))
        for config in adapter.to_target_batch(
            opt_space.from_unit_array(unit)
        ):
            for name in space.names:
                space[name].validate(config[name])
