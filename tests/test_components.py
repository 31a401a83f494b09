"""Unit tests for the individual DBMS simulator component models.

Each model scores a one-row :class:`BatchEvalContext` — the context the
engine builds for a single configuration.
"""

import numpy as np
import pytest

from repro.dbms.components import BATCH_COMPONENTS, buffer, checkpoint, locks
from repro.dbms.components import parallel, planner, stats, texture, vacuum
from repro.dbms.components import wal, writeback
from repro.dbms.context import BatchEvalContext
from repro.dbms.hardware import C220G5
from repro.dbms.plan import EvalPlan
from repro.dbms.versions import V96, V136
from repro.space.postgres import postgres_v96_space, postgres_v136_space
from repro.workloads import get_workload


def make_rows(rows, workload="tpcc", version=V96):
    """A context with one row per overrides mapping (defaults elsewhere)."""
    space = postgres_v136_space() if version is V136 else postgres_v96_space()
    configs = [space.partial_configuration(overrides) for overrides in rows]
    return context_for(configs, get_workload(workload), version)


def context_for(configs, workload, version=V96):
    """A context over ``configs`` through a freshly compiled plan."""
    plan = EvalPlan.for_rows(configs, workload, C220G5, version)
    return BatchEvalContext.from_values(configs, plan)


def make_ctx(workload="tpcc", version=V96, **overrides):
    """A one-row context: the catalog defaults with ``overrides``."""
    return make_rows([overrides], workload, version)


def score(component, ctx) -> float:
    """The component's score for a one-row context."""
    return float(np.asarray(component.score_batch(ctx)).reshape(-1)[0])


def note(ctx, key) -> float:
    """A note a component recorded on a one-row context."""
    return float(np.asarray(ctx.notes[key]).reshape(-1)[0])


class TestContextResolution:
    def test_wal_buffers_auto_clamps(self):
        # shared_buffers default 128 MB -> 1/32 = 4 MB, inside [64kB, 16MB].
        ctx = make_ctx(wal_buffers=-1)
        np.testing.assert_array_equal(ctx.wal_buffers_bytes(), [4 * 1024 * 1024])

    def test_wal_buffers_auto_upper_clamp(self):
        ctx = make_ctx(wal_buffers=-1, shared_buffers=1_000_000)  # ~7.6 GB
        np.testing.assert_array_equal(ctx.wal_buffers_bytes(), [16 * 1024 * 1024])

    def test_wal_buffers_explicit(self):
        # 8 MB in 8 kB pages, beside an auto-sized row of the same batch.
        ctx = make_rows([{"wal_buffers": 1024}, {"wal_buffers": -1}])
        np.testing.assert_array_equal(
            ctx.wal_buffers_bytes(), [1024 * 8192, 4 * 1024 * 1024]
        )

    def test_autovacuum_work_mem_fallback(self):
        ctx = make_rows([
            {"autovacuum_work_mem": -1, "maintenance_work_mem": 2048},
            {"autovacuum_work_mem": 4096, "maintenance_work_mem": 2048},
        ])
        np.testing.assert_array_equal(
            ctx.autovacuum_work_mem_bytes(), [2048 * 1024, 4096 * 1024]
        )

    def test_cost_delay_fallback(self):
        ctx = make_rows([
            {"autovacuum_vacuum_cost_delay": -1, "vacuum_cost_delay": 7},
            {"autovacuum_vacuum_cost_delay": 3, "vacuum_cost_delay": 7},
        ])
        delay = ctx.autovacuum_cost_delay_ms()
        assert delay.dtype == np.float64
        np.testing.assert_array_equal(delay, [7.0, 3.0])

    def test_cost_limit_fallback(self):
        ctx = make_rows([
            {"autovacuum_vacuum_cost_limit": -1, "vacuum_cost_limit": 300},
            {"autovacuum_vacuum_cost_limit": 1000, "vacuum_cost_limit": 300},
        ])
        limit = ctx.autovacuum_cost_limit()
        assert limit.dtype == np.float64
        np.testing.assert_array_equal(limit, [300.0, 1000.0])

    def test_missing_knob_without_default_raises(self):
        ctx = make_ctx()
        with pytest.raises(KeyError):
            ctx.get("nonexistent_knob")


class TestBufferComponent:
    def test_hit_fraction_monotone_in_cache_size(self):
        ws = 8 * 1024**3
        hits = [
            buffer.cache_hit_fraction(c, ws, 0.99)
            for c in (ws / 64, ws / 8, ws / 2, ws)
        ]
        assert hits == sorted(hits)
        assert hits[-1] == 1.0

    def test_skew_raises_small_cache_hits(self):
        small_cache = 0.5 * 1024**3
        ws = 8 * 1024**3
        assert buffer.cache_hit_fraction(
            small_cache, ws, 1.2
        ) > buffer.cache_hit_fraction(small_cache, ws, 0.0)

    def test_larger_pool_better_until_pressure(self):
        low = score(buffer, make_ctx("ycsb-b", shared_buffers=16_384))
        mid = score(buffer, make_ctx("ycsb-b", shared_buffers=1_048_576))
        assert mid > low


class TestWritebackComponent:
    def test_special_value_is_best_for_readers(self):
        scores = {
            v: score(writeback, make_ctx("ycsb-b", backend_flush_after=v))
            for v in (0, 1, 64, 256)
        }
        assert scores[0] == max(scores.values())
        assert scores[1] < scores[256]

    def test_version_scales_impact(self):
        gap96 = score(writeback, 
            make_ctx("ycsb-b", backend_flush_after=0)
        ) / score(writeback, make_ctx("ycsb-b", backend_flush_after=1))
        gap136 = score(writeback, 
            make_ctx("ycsb-b", version=V136, backend_flush_after=0)
        ) / score(writeback, make_ctx("ycsb-b", version=V136, backend_flush_after=1))
        assert gap96 > gap136


class TestWalComponent:
    def test_async_commit_is_faster(self):
        sync = score(wal, make_ctx(synchronous_commit="on"))
        async_ = score(wal, make_ctx(synchronous_commit="off"))
        assert async_ > sync

    def test_commit_delay_group_commit_helps_under_sync(self):
        none = score(wal, make_ctx(commit_delay=0))
        grouped = score(wal, make_ctx(commit_delay=500))
        huge = score(wal, make_ctx(commit_delay=100_000))
        assert grouped > none
        assert huge < grouped  # 100 ms of added latency is never worth it

    def test_full_page_writes_off_reduces_wal_volume(self):
        on = make_ctx(full_page_writes="on")
        off = make_ctx(full_page_writes="off")
        score(wal, on)
        score(wal, off)
        assert note(off, "wal_volume_multiplier") < note(on, "wal_volume_multiplier")

    def test_tiny_wal_buffers_stall(self):
        tiny = score(wal, make_ctx(wal_buffers=8))
        auto = score(wal, make_ctx(wal_buffers=-1))
        assert auto > tiny


class TestCheckpointComponent:
    def test_interval_monotone_in_max_wal_size(self):
        small = make_ctx(max_wal_size=32)
        large = make_ctx(max_wal_size=16_384)
        score(checkpoint, small)
        score(checkpoint, large)
        assert (
            note(large, "checkpoint_interval_s")
            >= note(small, "checkpoint_interval_s")
        )

    def test_longer_interval_scores_better(self):
        assert score(checkpoint, make_ctx(max_wal_size=16_384)) > score(checkpoint, 
            make_ctx(max_wal_size=32)
        )

    def test_completion_target_smooths(self):
        assert score(checkpoint, 
            make_ctx(checkpoint_completion_target=0.9)
        ) > score(checkpoint, make_ctx(checkpoint_completion_target=0.0))

    def test_disabled_bgwriter_penalized_for_writers(self):
        assert score(checkpoint, make_ctx(bgwriter_lru_maxpages=400)) > score(checkpoint, 
            make_ctx(bgwriter_lru_maxpages=0)
        )


class TestVacuumComponent:
    def test_track_counts_off_breaks_autovacuum(self):
        on = score(vacuum, make_ctx(track_counts="on"))
        off = score(vacuum, make_ctx(track_counts="off"))
        assert off < on

    def test_lower_scale_factor_reduces_bloat(self):
        eager = score(vacuum, make_ctx(autovacuum_vacuum_scale_factor=0.02))
        lazy = score(vacuum, make_ctx(autovacuum_vacuum_scale_factor=0.9))
        assert eager > lazy

    def test_write_heavy_suffers_more_without_autovacuum(self):
        tpcc_gap = score(vacuum, make_ctx("tpcc", autovacuum="on")) - score(vacuum, 
            make_ctx("tpcc", autovacuum="off")
        )
        ycsbb_gap = score(vacuum, make_ctx("ycsb-b", autovacuum="on")) - score(vacuum, 
            make_ctx("ycsb-b", autovacuum="off")
        )
        assert tpcc_gap > ycsbb_gap


class TestPlannerComponent:
    def test_disabling_indexscan_is_catastrophic(self):
        assert score(planner, make_ctx(enable_indexscan="off")) < 0.6 * score(planner, 
            make_ctx()
        )

    def test_ssd_random_page_cost_helps_complex_workloads(self):
        assert score(planner, make_ctx("tpcc", random_page_cost=1.2)) > score(planner, 
            make_ctx("tpcc", random_page_cost=50.0)
        )

    def test_simple_workloads_insensitive_to_join_toggles(self):
        base = score(planner, make_ctx("ycsb-a"))
        no_hash = score(planner, make_ctx("ycsb-a", enable_hashjoin="off"))
        assert abs(base - no_hash) < 0.02

    def test_geqo_inactive_above_threshold(self):
        """Default geqo_threshold (12) exceeds every workload's table count,
        so GEQO settings should not matter."""
        a = score(planner, make_ctx("tpcc", geqo_pool_size=0))
        b = score(planner, make_ctx("tpcc", geqo_pool_size=5000))
        assert a == b


class TestParallelComponent:
    def test_v96_workers_only_add_overhead(self):
        assert score(parallel, 
            make_ctx(max_parallel_workers_per_gather=8)
        ) < score(parallel, make_ctx(max_parallel_workers_per_gather=0))

    def test_v136_jit_special_value_wins_for_complex_oltp(self):
        default_jit = score(parallel, make_ctx("seats", version=V136))
        jit_off = score(parallel, 
            make_ctx("seats", version=V136, jit_above_cost=-1.0)
        )
        assert jit_off > default_jit

    def test_jit_ignored_on_v96(self):
        assert score(parallel, make_ctx("seats", version=V96)) == score(parallel, 
            make_ctx("seats", version=V96)
        )


class TestLocksAndStats:
    def test_deadlock_timeout_sweet_spot(self):
        sweet = score(locks, make_ctx("resourcestresser", deadlock_timeout=200))
        high = score(locks, make_ctx("resourcestresser", deadlock_timeout=600_000))
        assert sweet > high

    def test_track_io_timing_costs(self):
        assert score(stats, make_ctx(track_io_timing="on")) < score(stats, 
            make_ctx(track_io_timing="off")
        )


class TestTextureComponent:
    def test_deterministic(self):
        assert score(texture, make_ctx()) == score(texture, make_ctx())

    def test_workload_dependent(self):
        assert score(texture, make_ctx("tpcc")) != score(texture, make_ctx("ycsb-a"))

    def test_bounded_amplitude(self):
        """90 knobs at <=0.35% each keeps the texture within a few percent."""
        rng = np.random.default_rng(0)
        space = postgres_v96_space()
        from repro.space.sampling import uniform_configurations

        for config in uniform_configurations(space, 30, rng):
            ctx = context_for([config], get_workload("tpcc"))
            assert 0.85 < score(texture, ctx) < 1.18


class TestComponentRegistry:
    def test_memory_evaluated_first(self):
        assert next(iter(BATCH_COMPONENTS)) == "memory"

    def test_all_scores_positive_on_defaults(self):
        ctx = make_ctx()
        for name, fn in BATCH_COMPONENTS.items():
            assert np.asarray(fn(ctx)).reshape(-1)[0] > 0, name
