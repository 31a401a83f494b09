"""Pinned pre-refactor trajectories for the packed-forest surrogate engine.

``tests/data/determinism_pins.json`` was captured from the PR 2 (pre
packed-forest) implementation by ``tools/capture_determinism_pins.py``.
These tests assert that the refactored engine — packed predict, presorted
fit, native kernel, batched suggest plumbing — reproduces those
trajectories byte-for-byte: identical suggested knob values, identical
forest predictions, and an identical PCG64 stream position afterwards.

If one of these fails, the surrogate's RNG consumption order or float
op sequence changed — that is a correctness regression, not a tolerance
issue; do not loosen the comparison.
"""

import json
import pathlib

import numpy as np
import pytest

from forest_reference import predict_mean_var_per_tree
from repro.dbms.engine import PostgresSimulator
from repro.optimizers import _forest_kernel
from repro.optimizers.forest import RandomForestRegressor
from repro.optimizers.smac import SMACOptimizer
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import CategoricalKnob, FloatKnob
from repro.space.postgres import postgres_v96_space
from repro.space.sampling import uniform_configurations
from repro.workloads import get_workload

PINS_PATH = pathlib.Path(__file__).parent / "data" / "determinism_pins.json"

BOTH_PATHS = pytest.mark.parametrize(
    "kernel", ["native", "numpy"], ids=["native-kernel", "numpy-fallback"]
)


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


@pytest.fixture
def forest_path(kernel, monkeypatch):
    """Force the requested build path (skips native when unavailable)."""
    if kernel == "numpy":
        monkeypatch.setenv("REPRO_FOREST_KERNEL", "0")
    elif not _forest_kernel.kernel_available():
        pytest.skip("native forest kernel unavailable on this host")
    return kernel


def assert_rng_state(rng: np.random.Generator, expected: dict) -> None:
    state = rng.bit_generator.state
    assert state["bit_generator"] == expected["bit_generator"]
    assert int(state["state"]["state"]) == expected["state"]
    assert int(state["state"]["inc"]) == expected["inc"]
    assert int(state["has_uint32"]) == expected["has_uint32"]
    assert int(state["uinteger"]) == expected["uinteger"]


def small_space() -> ConfigurationSpace:
    return ConfigurationSpace(
        [
            FloatKnob("x", default=0.0, lower=0.0, upper=1.0),
            FloatKnob("y", default=0.0, lower=0.0, upper=1.0),
            CategoricalKnob("mode", default="a", choices=("a", "b")),
        ]
    )


@BOTH_PATHS
class TestForestPins:
    def test_predictions_and_stream(self, pins, kernel, forest_path):
        pin = pins["forest"]
        rng = np.random.default_rng(42)
        X = rng.random((80, 12))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.1 * rng.normal(size=80)
        forest = RandomForestRegressor(n_trees=10, seed=7).fit(X, y)
        probes = rng.random((25, 12))
        mean, var = forest.predict_mean_var(probes)
        np.testing.assert_array_equal(mean, np.array(pin["mean"]))
        np.testing.assert_array_equal(var, np.array(pin["var"]))
        assert_rng_state(forest.rng, pin["rng_state"])


class TestNativePredictPins:
    """Native predict against the pre-refactor pins, decoupled from the
    build path: a native-built forest scored by the fused native pass
    AND by the numpy fallback (and the per-tree reference) must all
    reproduce the pinned predictions byte-for-byte."""

    def test_native_predict_matches_pins(self, pins, monkeypatch):
        if not _forest_kernel.kernel_available():
            pytest.skip("native forest kernel unavailable on this host")
        pin = pins["forest"]
        rng = np.random.default_rng(42)
        X = rng.random((80, 12))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] ** 2 + 0.1 * rng.normal(size=80)
        forest = RandomForestRegressor(n_trees=10, seed=7).fit(X, y)
        probes = rng.random((25, 12))

        mean, var = forest.predict_mean_var(probes)  # the native pass
        np.testing.assert_array_equal(mean, np.array(pin["mean"]))
        np.testing.assert_array_equal(var, np.array(pin["var"]))
        monkeypatch.setenv("REPRO_FOREST_KERNEL", "0")
        numpy_mean, numpy_var = forest.predict_mean_var(probes)
        assert numpy_mean.tobytes() == mean.tobytes()
        assert numpy_var.tobytes() == var.tobytes()
        ref_mean, ref_var = predict_mean_var_per_tree(forest, probes)
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)


@BOTH_PATHS
class TestSmacSmallSpacePins:
    def test_trajectory_and_stream(self, pins, kernel, forest_path):
        pin = pins["smac_small"]
        optimizer = SMACOptimizer(
            small_space(), seed=5, n_init=5, random_interleave_every=4
        )
        values = []
        for _ in range(12):
            config = optimizer.suggest()
            value = (
                1.0
                - (config["x"] - 0.7) ** 2
                - (config["y"] - 0.3) ** 2
                + (0.3 if config["mode"] == "b" else 0.0)
            )
            optimizer.observe(config, value)
            values.append(value)
        np.testing.assert_array_equal(
            np.array(values), np.array(pin["values"])
        )
        assert optimizer.best_value == pin["best_value"]
        assert_rng_state(optimizer.rng, pin["rng_state"])


class TestSmacPostgresPins:
    """Full 90-knob space, 50 observations — the bench scenario."""

    def test_suggestions_and_stream(self, pins):
        pin = pins["smac_postgres"]
        space = postgres_v96_space()
        rng = np.random.default_rng(0)
        optimizer = SMACOptimizer(space, seed=0, n_init=10)
        simulator = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
        for config in uniform_configurations(space, 50, rng):
            try:
                value = simulator.evaluate(config).throughput
            except Exception:
                value = 1000.0
            optimizer.observe(config, value)
        for i, expected in enumerate(pin["suggestions"]):
            config = optimizer.suggest()
            got = {name: config[name] for name in config.keys()}
            assert got == expected, f"suggestion {i} diverged"
            optimizer.observe(config, 1234.5)
        assert_rng_state(optimizer.rng, pin["rng_state"])
