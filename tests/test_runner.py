"""Tests for the multi-seed experiment runner (SessionSpec and helpers)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.dbms.versions import V96, V136
from repro.space.postgres import postgres_v96_space, postgres_v136_space
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.faults import FaultPolicy
from repro.tuning.knowledge_base import Observation
from repro.experiments.fig2_knob_subsets import SubsetFactory
from repro.experiments.table1_importance import HAND_PICKED_YCSB_A
from repro.tuning.runner import (
    LlamaTuneFactory,
    SessionSpec,
    llamatune_factory,
    mean_best_curve,
    run_grid,
    run_spec,
    space_for_version,
)
from repro.tuning.server import SessionServer
from repro.tuning.session import TuningResult


class TestSpaceForVersion:
    def test_v96(self):
        assert space_for_version(V96).dim == 90

    def test_v136(self):
        assert space_for_version(V136).dim == 112


class TestSessionSpec:
    def test_build_baseline(self):
        spec = SessionSpec(workload="ycsb-a", n_iterations=5)
        session = spec.build(seed=1)
        assert session.optimizer.space.dim == 90
        assert session.n_iterations == 5

    def test_build_llamatune(self):
        spec = SessionSpec(
            workload="ycsb-a", adapter=llamatune_factory(), n_iterations=5
        )
        session = spec.build(seed=1)
        assert session.optimizer.space.dim == 16

    def test_optimizer_kwargs_forwarded(self):
        spec = SessionSpec(
            workload="ycsb-a",
            n_iterations=5,
            optimizer_kwargs=(("n_trees", 7),),
        )
        session = spec.build(seed=1)
        assert session.optimizer.n_trees == 7

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            SessionSpec(workload="tpch").build(seed=1)

    def test_one_thread_constants(self):
        """Waves run on one thread: the names that sized a thread pool
        accept one thread and refuse more (the default and the spec's
        identity are pinned in ``test_wave_threads.py``)."""
        SessionSpec(workload="ycsb-a", wave_threads=1)
        with pytest.raises(ValueError, match="wave_threads"):
            SessionSpec(workload="ycsb-a", wave_threads=2)
        with pytest.raises(ValueError, match="wave_threads"):
            SessionServer(wave_threads=2)
        SessionServer(wave_threads=1)

    @pytest.mark.parametrize("rate", [-0.5, 1.5, float("nan")])
    def test_fault_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="fault_rate"):
            SessionSpec(workload="ycsb-a", fault_rate=rate)

    def test_adapter_seed_varies_projection(self):
        factory = llamatune_factory()
        space = postgres_v96_space()
        a = factory(space, 1)
        b = factory(space, 2)
        config = a.optimizer_space.default_configuration()
        assert a.to_target(config) != b.to_target(config)


class TestRunners:
    def test_run_spec_returns_one_result_per_seed(self):
        spec = SessionSpec(
            workload="ycsb-a", optimizer="random", n_iterations=6
        )
        results = run_spec(spec, seeds=(1, 2, 3))
        assert len(results) == 3
        assert all(len(r.best_curve) == 6 for r in results)

    def test_mean_best_curve_averages(self):
        spec = SessionSpec(workload="ycsb-a", optimizer="random", n_iterations=6)
        results = run_spec(spec, seeds=(1, 2))
        curve = mean_best_curve(results)
        expected = np.mean([r.best_curve for r in results], axis=0)
        np.testing.assert_allclose(curve, expected)

    def test_workers_below_one_rejected(self):
        spec = SessionSpec(workload="ycsb-a", optimizer="random", n_iterations=4)
        with pytest.raises(ValueError, match="workers"):
            run_spec(spec, seeds=(1, 2), workers=0)


def assert_same_results(expected, actual, label):
    """Every result field and both configurations of every observation
    match (``suggest_seconds`` is wall-clock, so it is only checked for
    presence)."""
    assert len(actual) == len(expected), label
    for a, b in zip(expected, actual):
        for f in dataclasses.fields(TuningResult):
            if f.name != "knowledge_base":
                assert getattr(a, f.name) == getattr(b, f.name), (label, f.name)
        assert a.knowledge_base.maximize == b.knowledge_base.maximize, label
        assert len(a.knowledge_base) == len(b.knowledge_base), label
        for x, y in zip(a.knowledge_base, b.knowledge_base):
            for f in dataclasses.fields(Observation):
                if f.name == "suggest_seconds":
                    assert y.suggest_seconds >= 0.0, label
                else:
                    # Configurations compare knob names and values.
                    assert getattr(x, f.name) == getattr(y, f.name), (
                        label, f.name,
                    )


class TestProcessPool:
    """The ``workers`` strategies: specs, adapter factories, and results
    must cross process boundaries, and every strategy's outputs must be
    identical to sequential runs."""

    def test_spec_roundtrips_through_pickle(self):
        spec = SessionSpec(
            workload="ycsb-a",
            adapter=llamatune_factory(target_dim=8),
            version=V136,
            early_stopping=EarlyStoppingPolicy(0.01, 5),
            optimizer_kwargs=(("n_trees", 5),),
            suggest_batch=2,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.version.name == "13.6"
        assert isinstance(clone.adapter, LlamaTuneFactory)
        assert clone.adapter.target_dim == 8

    @pytest.mark.parametrize(
        "specs,seeds,feature",
        [
            pytest.param(
                [SessionSpec(
                    workload="ycsb-a",
                    optimizer="random",
                    adapter=llamatune_factory(),
                    n_iterations=6,
                )],
                (1, 2, 3),
                None,
                id="random",
            ),
            pytest.param(
                # The raw 90-knob space over-commits memory: crash rows
                # with None throughput/latency.
                [SessionSpec(
                    workload="tpcc", optimizer="smac", adapter=None,
                    n_iterations=10, n_init=6,
                )],
                (1, 2, 3),
                lambda r: r.crash_count > 0,
                id="crash-rows",
            ),
            pytest.param(
                [SessionSpec(
                    workload="ycsb-a", optimizer="smac",
                    adapter=llamatune_factory(), n_iterations=25, n_init=6,
                    early_stopping=EarlyStoppingPolicy(
                        min_improvement=0.5, patience=4
                    ),
                )],
                (1, 2, 3),
                lambda r: r.stopped_early_at is not None,
                id="early-stop",
            ),
            pytest.param(
                [SessionSpec(
                    workload="ycsb-a",
                    adapter=llamatune_factory(target_dim=4),
                    n_iterations=20, n_init=4,
                    fault_rate=0.02, fault_seed=1,
                    fault_policy=FaultPolicy(max_retries=0),
                )],
                (1, 2, 3),
                lambda r: r.quarantined_at is not None,
                id="quarantine",
            ),
            pytest.param(
                # An experiment's grid: two workloads, vanilla (90 knobs),
                # LlamaTune (16) and a knob subset (8) in one task list.
                [
                    SessionSpec(workload="tpcc", n_iterations=8, n_init=4),
                    SessionSpec(
                        workload="ycsb-a", adapter=llamatune_factory(),
                        n_iterations=8, n_init=4,
                    ),
                    SessionSpec(
                        workload="ycsb-a",
                        adapter=SubsetFactory(HAND_PICKED_YCSB_A),
                        n_iterations=8, n_init=4,
                    ),
                ],
                (1, 2),
                None,
                id="mixed",
            ),
        ],
    )
    def test_process_pool_matches_sequential(self, specs, seeds, feature):
        """Each strategy returns the sequential results in task order:
        one in-process wave (``workers=1``), round-robin shards in two
        worker processes (``workers=2``), and in three (``workers=3``)."""
        tasks = [(spec, seed) for spec in specs for seed in seeds]
        sequential = run_grid(tasks)
        if feature is not None:
            assert any(feature(r) for r in sequential), "fixture must hit it"
        for workers in (1, 2, 3):
            assert_same_results(
                sequential, run_grid(tasks, workers=workers),
                f"workers={workers}",
            )
