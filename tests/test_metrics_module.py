"""Tests for the internal DBMS metrics module (DDPG state source)."""

import numpy as np
import pytest

from repro.dbms.metrics import METRIC_NAMES, derive_metrics_batch, metrics_vector


def derive_metrics(notes, throughput, clients, read_fraction):
    """One evaluation's 27 metrics: a one-row :func:`derive_metrics_batch`."""
    matrix = derive_metrics_batch(
        {key: np.asarray([value], dtype=float) for key, value in notes.items()},
        np.asarray([throughput], dtype=float),
        clients=clients,
        read_fraction=read_fraction,
    )
    return dict(zip(METRIC_NAMES, matrix[:, 0].tolist()))


class TestDeriveMetrics:
    def test_emits_exactly_27(self):
        metrics = derive_metrics({}, throughput=1000.0, clients=40, read_fraction=0.5)
        assert set(metrics) == set(METRIC_NAMES)
        assert len(METRIC_NAMES) == 27

    def test_commit_rate_tracks_throughput(self):
        low = derive_metrics({}, 100.0, 40, 0.5)
        high = derive_metrics({}, 10_000.0, 40, 0.5)
        assert high["xact_commit_rate"] > low["xact_commit_rate"]
        assert high["wal_bytes_rate"] > low["wal_bytes_rate"]

    def test_read_fraction_shapes_write_metrics(self):
        writer = derive_metrics({}, 1000.0, 40, read_fraction=0.0)
        reader = derive_metrics({}, 1000.0, 40, read_fraction=1.0)
        assert writer["tup_updated_rate"] > reader["tup_updated_rate"]
        assert reader["tup_updated_rate"] == 0.0

    def test_notes_flow_through(self):
        metrics = derive_metrics(
            {"buffer_hit_ratio": 0.93, "memory_pressure": 0.7},
            1000.0,
            40,
            0.5,
        )
        assert metrics["buffer_hit_ratio"] == 0.93
        assert metrics["memory_pressure"] == 0.7


class TestMetricsVector:
    def test_canonical_order_and_shape(self):
        metrics = derive_metrics({}, 1000.0, 40, 0.5)
        vector = metrics_vector(metrics)
        assert vector.shape == (27,)

    def test_log_compression_bounds_dynamic_range(self):
        metrics = derive_metrics({}, 1_000_000.0, 40, 0.5)
        vector = metrics_vector(metrics)
        assert np.all(np.isfinite(vector))
        assert np.max(np.abs(vector)) < 50.0

    def test_vector_deterministic(self):
        metrics = derive_metrics({}, 1234.0, 40, 0.5)
        np.testing.assert_array_equal(metrics_vector(metrics), metrics_vector(metrics))
