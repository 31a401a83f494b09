"""Tests for the paper's extension points and failure-injection paths.

Covers: multi-special-value biasing (Section 4.1's "straightforward
extension"), sessions under pathological simulators (always-crashing,
constant-output), and version/hardware profile plumbing.
"""

import numpy as np
import pytest

from repro.core.biasing import SpecialValueBiaser
from repro.core.pipeline import IdentityAdapter
from repro.dbms.engine import PostgresSimulator
from repro.dbms.errors import DbmsCrashError
from repro.dbms.hardware import Hardware
from repro.dbms.versions import PostgresVersion
from repro.optimizers import RandomSearchOptimizer, SMACOptimizer
from repro.space.configspace import ConfigurationSpace
from repro.space.knob import IntegerKnob
from repro.space.postgres import postgres_v96_space
from repro.tuning.session import TuningSession
from repro.workloads import get_workload


def svb_values(biaser, name, units):
    """One knob's values from the SVB pass over a unit matrix with one row
    per value in ``units`` (every other coordinate at 0.5)."""
    matrix = np.full((len(units), biaser.space.dim), 0.5)
    matrix[:, biaser.space.index_of(name)] = units
    return [config[name] for config in biaser.from_unit_array(matrix)]


class TestMultiSpecialValueBiasing:
    """Section 4.1: 'an extension for hybrid knobs with multiple special
    values is straightforward: multiple p_i, each biasing one value.'"""

    @pytest.fixture
    def space(self):
        return ConfigurationSpace(
            [
                IntegerKnob(
                    "multi",
                    default=0,
                    lower=-2,
                    upper=100,
                    special_values=(-2, -1, 0),
                )
            ]
        )

    def test_each_special_gets_its_own_band(self, space):
        biaser = SpecialValueBiaser(space, bias=0.1)
        assert svb_values(
            biaser, "multi", [0.05, 0.15, 0.25, 0.301, 1.0]
        ) == [-2, -1, 0, 1, 100]  # the regular range starts at 0.301

    def test_total_mass_scales_with_special_count(self, space):
        biaser = SpecialValueBiaser(space, bias=0.1)
        assert biaser.special_probability(space["multi"]) == pytest.approx(0.3)

    def test_excessive_mass_rejected(self, space):
        with pytest.raises(ValueError, match="consumes the whole range"):
            SpecialValueBiaser(space, bias=0.4)  # 3 * 0.4 > 1

    def test_sampling_distribution(self, space):
        biaser = SpecialValueBiaser(space, bias=0.1)
        rng = np.random.default_rng(0)
        values = svb_values(biaser, "multi", rng.random(6000))
        for special in (-2, -1, 0):
            rate = values.count(special) / len(values)
            assert 0.07 < rate < 0.13


class _AlwaysCrashSimulator(PostgresSimulator):
    """Failure injection: every configuration crashes."""

    def evaluate(self, config, rng=None):
        raise DbmsCrashError("injected failure")

    def default_measurement(self):
        return PostgresSimulator(
            self.workload, self.version, self.hardware, 0.0
        ).default_measurement()


class TestFailureInjection:
    def test_session_survives_total_crash(self):
        space = postgres_v96_space()
        simulator = _AlwaysCrashSimulator(get_workload("ycsb-a"))
        optimizer = RandomSearchOptimizer(space, seed=0, n_init=3)
        result = TuningSession(
            simulator, optimizer, IdentityAdapter(space), n_iterations=10
        ).run()
        assert result.crash_count == 10
        # Penalty stays anchored at ¼ of the default (the only reference).
        expected = result.default_value / 4.0
        assert all(o.value == pytest.approx(expected) for o in result.knowledge_base)

    def test_smac_handles_constant_observations(self):
        """A constant objective must not break the surrogate (zero variance)."""
        space = postgres_v96_space()
        optimizer = SMACOptimizer(space, seed=0, n_init=3)
        for _ in range(8):
            config = optimizer.suggest()
            optimizer.observe(config, 42.0)
        assert optimizer.best_value == 42.0


class TestCustomProfiles:
    def test_custom_hardware_changes_performance(self):
        workload = get_workload("ycsb-b")
        slow_disk = Hardware(ssd_read_ms=0.8)
        fast = PostgresSimulator(workload, noise_std=0.0)
        slow = PostgresSimulator(workload, hardware=slow_disk, noise_std=0.0)
        space = postgres_v96_space()
        # Calibration pins the default, so relative gains expose the device
        # model: on a 10x slower disk the cold-tail misses dominate read
        # time, shrinking the relative win from a big buffer pool.
        config = space.partial_configuration({"shared_buffers": 1_048_576})
        gain_fast = fast.evaluate(config).throughput / fast.default_measurement().throughput
        gain_slow = slow.evaluate(config).throughput / slow.default_measurement().throughput
        assert gain_slow < gain_fast
        assert gain_slow > 1.0  # the pool still helps, just less

    def test_custom_version_profile(self):
        version = PostgresVersion(
            name="9.6-patched",
            has_jit=False,
            writeback_impact=0.5,
            base_multiplier={"ycsb-b": 2.0},
        )
        sim = PostgresSimulator(get_workload("ycsb-b"), version=version, noise_std=0.0)
        assert sim.default_measurement().throughput == pytest.approx(110_000.0)

    def test_version_profile_immutable_multiplier(self):
        with pytest.raises(TypeError):
            V = PostgresVersion("x", False, 1.0, {"a": 1.0})
            V.base_multiplier["a"] = 2.0
