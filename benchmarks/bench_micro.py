"""Micro-benchmarks for the performance-critical building blocks.

These time the inner loops of the tuning stack (simulator evaluation,
projection, surrogate fit/predict, full suggest step) so performance
regressions show up independently of the end-to-end experiment benches.
"""

import copy
import itertools
import time

import numpy as np
import pytest

from repro.core.pipeline import LlamaTuneAdapter, llamatune_adapter
from repro.dbms.engine import PostgresSimulator
from repro.optimizers import _forest_kernel
from repro.optimizers.forest import (
    RandomForestRegressor,
    predict_mean_var_stacked,
)
from repro.optimizers.gp import GaussianProcess
from repro.optimizers.smac import SMACOptimizer
from repro.space.postgres import postgres_v96_space
from repro.space.sampling import uniform_configurations
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.wave import run_wave
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def space():
    return postgres_v96_space()


def test_simulator_evaluate(benchmark, space):
    simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
    config = space.default_configuration()
    simulator.evaluate(config)  # warm the calibration cache
    benchmark(simulator.evaluate, config)


def test_hesbo_projection_to_target(benchmark, space):
    adapter = llamatune_adapter(space, seed=0)
    config = adapter.optimizer_space.default_configuration()
    benchmark(adapter.to_target, config)


def test_svb_only_conversion(benchmark, space):
    adapter = LlamaTuneAdapter(space, projection=None, bias=0.2, max_values=None)
    config = space.default_configuration()
    benchmark(adapter.to_target, config)


def test_forest_fit_100x90(benchmark):
    rng = np.random.default_rng(0)
    X = rng.random((100, 90))
    y = rng.normal(size=100)
    benchmark(lambda: RandomForestRegressor(n_trees=20, seed=0).fit(X, y))


def test_forest_fit_50x90(benchmark):
    """The refit shape inside a 100-iteration SMAC session (the suggest
    hot path refits on the observation count, not the candidate pool)."""
    rng = np.random.default_rng(0)
    X = rng.random((50, 90))
    y = rng.normal(size=50)
    benchmark(lambda: RandomForestRegressor(n_trees=20, seed=0).fit(X, y))


def _smac_observations(rng):
    """55 rows on the 16 projected dimensions of a SMAC + LlamaTune
    session, collected the way SMAC collects them — 10 random initial
    rows, then mostly one-coordinate local-search steps (std 0.08) from
    earlier rows, clipped to [0, 1], with every third row a fresh random
    one — and their targets."""
    X = rng.random((55, 16))
    for i in range(10, 55):
        if i % 3 == 0:
            continue
        X[i] = X[rng.integers(i)]
        j = rng.integers(16)
        X[i, j] = np.clip(X[i, j] + rng.normal(0.0, 0.08), 0.0, 1.0)
    return X, rng.normal(size=55)


def _smac_round(seed):
    """A forest fit like ``forest_fit_smac_55x16``, and the 1,100 rows a
    SMAC round scores with it: 1,000 random rows, then ten one-coordinate
    neighbours at step 0.08 and ten at 0.02 around each of the five best
    observed rows."""
    rng = np.random.default_rng(seed)
    X, y = _smac_observations(rng)
    forest = RandomForestRegressor(n_trees=20, seed=seed).fit(X, y)
    pools = [rng.random((1000, 16))]
    for i in np.argsort(y)[-5:]:
        for step in (0.08, 0.02):
            local = np.repeat(X[i][None, :], 10, axis=0)
            dims = rng.integers(0, 16, size=10)
            local[np.arange(10), dims] = np.clip(
                X[i, dims] + rng.normal(0.0, step, size=10), 0.0, 1.0
            )
            pools.append(local)
    return forest, np.vstack(pools)


def test_forest_fit_smac_55x16(benchmark):
    """The refit a SMAC + LlamaTune session makes mid-run
    (:func:`_smac_observations`).  About 70 % of the cells sit in tie runs
    (61 % in recorded sessions), where the build's presort and split
    search spend their time; the uniform 90-column benches above have
    none."""
    X, y = _smac_observations(np.random.default_rng(0))
    benchmark(lambda: RandomForestRegressor(n_trees=20, seed=0).fit(X, y))


def test_forest_predict_1000_candidates(benchmark):
    """The native scoring pass (skips when no compiler), so a run never
    silently benchmarks the numpy fallback."""
    if not _forest_kernel.kernel_available():
        pytest.skip("native forest kernel unavailable on this host")
    rng = np.random.default_rng(0)
    X = rng.random((100, 90))
    y = rng.normal(size=100)
    forest = RandomForestRegressor(n_trees=20, seed=0).fit(X, y)
    candidates = rng.random((1000, 90))
    forest.predict_mean_var(candidates)  # warm-up
    benchmark(forest.predict_mean_var, candidates)


def test_forest_predict_64_candidates(benchmark):
    """Small-batch predict: packed-traversal overhead must stay flat when
    the frontier is narrow."""
    rng = np.random.default_rng(0)
    X = rng.random((100, 90))
    y = rng.normal(size=100)
    forest = RandomForestRegressor(n_trees=20, seed=0).fit(X, y)
    candidates = rng.random((64, 90))
    benchmark(forest.predict_mean_var, candidates)


def test_forest_predict_smac_1100x16(benchmark):
    """One SMAC + LlamaTune model round's scoring (:func:`_smac_round`):
    the call seq-ckpt makes once per suggestion."""
    forest, candidates = _smac_round(0)
    forest.predict_mean_var(candidates)
    benchmark(forest.predict_mean_var, candidates)


def test_forest_predict_stacked_8x1100x16(benchmark):
    """Eight sessions' rounds in one ``predict_mean_var_stacked`` call —
    a wave's model phase."""
    forests, candidates = zip(*(_smac_round(seed) for seed in range(8)))
    X = np.concatenate(candidates)
    rows = [len(c) for c in candidates]
    predict_mean_var_stacked(list(forests), X, rows)
    benchmark(predict_mean_var_stacked, list(forests), X, rows)


def test_gp_refit_incremental(benchmark):
    """Absorbing 4 new rows into a 100-point GP via the incremental
    Cholesky extension — the between-boundary model phase of GP-BO with
    ``refit_every > 1`` (vs the ~200ms full fit)."""
    rng = np.random.default_rng(0)
    X = rng.random((104, 16))
    y = rng.normal(size=104)
    is_cat = np.zeros(16, dtype=bool)
    fitted = GaussianProcess(is_cat, seed=0).fit(X[:100], y[:100])

    def fresh_copy():
        return (copy.deepcopy(fitted),), {}

    benchmark.pedantic(
        lambda gp: gp.update(X, y), setup=fresh_copy, rounds=30,
        warmup_rounds=2,
    )


def test_gp_predict_1050_candidates(benchmark):
    """GP predict over GP-BO's candidate pool — 1,000 random vectors plus
    10 local neighbors of each of the 5 best rows — from a 55-row GP on
    LlamaTune's 16 numeric dimensions: the scoring step of every GP-BO
    model round."""
    rng = np.random.default_rng(0)
    X = rng.random((55, 16))
    y = rng.normal(size=55)
    gp = GaussianProcess(np.zeros(16, dtype=bool), seed=0).fit(X, y)
    local = [
        np.clip(X[i] + rng.normal(0.0, 0.05, size=(10, 16)), 0.0, 1.0)
        for i in np.argsort(y)[-5:]
    ]
    candidates = np.vstack([rng.random((1000, 16))] + local)
    benchmark(gp.predict_mean_var, candidates)


def test_gp_fit_100x16(benchmark):
    rng = np.random.default_rng(0)
    X = rng.random((100, 16))
    y = rng.normal(size=100)
    is_cat = np.zeros(16, dtype=bool)
    benchmark(lambda: GaussianProcess(is_cat, seed=0).fit(X, y))


def test_gp_fit_vectorized_restarts(benchmark):
    """The boundary-fit fast path specifically: multi-restart L-BFGS with
    the factor-reusing finite-difference stencil, byte-identical to
    scipy's own jac-less restarts (``tests/test_gp_vectorized.py`` pins
    that)."""
    rng = np.random.default_rng(0)
    X = rng.random((100, 16))
    y = rng.normal(size=100)
    is_cat = np.zeros(16, dtype=bool)
    benchmark(lambda: GaussianProcess(is_cat, seed=0).fit(X, y))


def test_wave_runner_8seeds(benchmark):
    """The wave scheduler's headline case: an 8-seed SMAC+LlamaTune sweep
    in lockstep waves — per-iteration fixed costs (candidate scoring,
    EI, simulator pass) paid once per wave instead of once per seed, with
    per-seed trajectories byte-identical to sequential ``run_spec``
    (``tests/test_wave.py`` pins that)."""
    spec = SessionSpec(
        workload="ycsb-a", optimizer="smac", adapter=llamatune_factory(),
        n_iterations=24, n_init=8,
    )
    run_wave(spec, [1])  # warm calibration + kernel
    seeds = list(range(1, 9))
    benchmark.pedantic(
        lambda: run_wave(spec, seeds), rounds=5, warmup_rounds=1
    )


def test_checkpoint_resume(benchmark, tmp_path):
    """Compacted checkpoint + fresh-session restore round trip of a
    50-observation SMAC+LlamaTune session — the fault-tolerance tax of a
    session's first write to a path (alternating two paths keeps every
    write a compaction; later periodic writes append one record, see
    ``test_checkpoint_periodic_write``).  The budget: one round trip
    must stay well under 5% of the 8-seed wave sweep above
    (``test_wave_runner_8seeds``), so periodic checkpointing is free at
    sweep scale."""
    spec = SessionSpec(
        workload="ycsb-a", optimizer="smac", adapter=llamatune_factory(),
        n_iterations=50, n_init=10,
        checkpoint_every=50, checkpoint_dir=str(tmp_path),
    )
    session = spec.build(1)
    session.run()
    paths = itertools.cycle([tmp_path / "a.ckpt.json", tmp_path / "b.ckpt.json"])

    def round_trip():
        path = session.checkpoint(next(paths))
        spec.build(1).load_checkpoint(path)

    benchmark.pedantic(round_trip, rounds=10, warmup_rounds=1)


@pytest.mark.parametrize("n_obs", [10, 100])
def test_checkpoint_periodic_write(benchmark, tmp_path, n_obs):
    """One periodic checkpoint write of a SMAC+LlamaTune session — five
    new rows appended to its journal — at 10 and at 100 observations.
    The write holds only what changed since the previous one, so its
    cost must not grow with the history (at most 1.5x from 10 to 100).
    Each round's setup restores the session at ``n_obs - 5``
    observations, lets it compact a journal, and runs five rounds."""
    fields = dict(
        workload="ycsb-a", optimizer="smac", adapter=llamatune_factory(),
        n_init=10, checkpoint_dir=str(tmp_path),
    )
    SessionSpec(
        **fields, n_iterations=n_obs - 5, checkpoint_every=n_obs - 5
    ).build(1).run()
    spec = SessionSpec(**fields, n_iterations=n_obs, resume=True)
    journal = tmp_path / "journal.ckpt.json"

    def five_rounds():
        session = spec.build(1)
        session.checkpoint(journal)
        session.run()
        assert session.iteration == n_obs
        return (session,), {}

    benchmark.pedantic(
        lambda session: session.checkpoint(journal),
        setup=five_rounds, rounds=20,
    )


def test_gp_fit_100x16_mixed(benchmark):
    """Mixed numeric/categorical fit: exercises both precomputed kernel
    tensors (squared distances and Hamming mismatch)."""
    rng = np.random.default_rng(0)
    X = rng.random((100, 16))
    X[:, 12:] = rng.integers(0, 3, size=(100, 4))
    y = rng.normal(size=100)
    is_cat = np.zeros(16, dtype=bool)
    is_cat[12:] = True
    benchmark(lambda: GaussianProcess(is_cat, seed=0).fit(X, y))


def _observed_smac(space, n_obs: int = 50) -> SMACOptimizer:
    rng = np.random.default_rng(0)
    optimizer = SMACOptimizer(space, seed=0, n_init=10)
    simulator = PostgresSimulator(get_workload("ycsb-a"), noise_std=0.0)
    for config in uniform_configurations(space, n_obs, rng):
        try:
            value = simulator.evaluate(config).throughput
        except Exception:
            value = 1000.0
        optimizer.observe(config, value)
    return optimizer


def test_smac_suggest_after_50_observations(benchmark, space):
    optimizer = _observed_smac(space)
    benchmark(optimizer.suggest)


def test_smac_suggest_batch8_after_50_observations(benchmark, space):
    """Model-phase batch suggest: one forest fit and one shared candidate
    pool amortized over 8 EI-ranked suggestions."""
    optimizer = _observed_smac(space)
    benchmark(optimizer.suggest_batch, 8)


# --- batch paths (the vectorized counterparts of the scalar benches) --------


def test_to_unit_array_256(benchmark, space):
    rng = np.random.default_rng(0)
    configs = uniform_configurations(space, 256, rng)
    benchmark(space.to_unit_array, configs)


def test_from_unit_array_256(benchmark, space):
    rng = np.random.default_rng(0)
    unit = rng.random((256, space.dim))
    benchmark(space.from_unit_array, unit)


def test_hesbo_to_target_batch_10(benchmark, space):
    """The LHS design every LlamaTune session converts once (10 rows)."""
    rng = np.random.default_rng(0)
    adapter = llamatune_adapter(space, seed=0)
    suggestions = uniform_configurations(adapter.optimizer_space, 10, rng)
    benchmark(adapter.to_target_batch, suggestions)


def test_hesbo_to_target_batch_256(benchmark, space):
    rng = np.random.default_rng(0)
    adapter = llamatune_adapter(space, seed=0)
    suggestions = uniform_configurations(adapter.optimizer_space, 256, rng)
    benchmark(adapter.to_target_batch, suggestions)


def test_simulator_evaluate_batch_16(benchmark, space):
    simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
    rng = np.random.default_rng(0)
    configs = uniform_configurations(space, 16, rng)
    simulator.evaluate_batch(configs)  # warm calibration
    benchmark(simulator.evaluate_batch, configs)


def test_simulator_evaluate_batch_256(benchmark, space):
    """The LHS-init / sweep hot path: one whole-matrix component pass over
    256 configurations (must stay well under 256x the scalar evaluate)."""
    simulator = PostgresSimulator(get_workload("tpcc"), noise_std=0.0)
    rng = np.random.default_rng(0)
    configs = uniform_configurations(space, 256, rng)
    simulator.evaluate_batch(configs)  # warm calibration
    benchmark(simulator.evaluate_batch, configs)


def test_trace_replay_evaluate(benchmark, tmp_path):
    """The hermetic live-backend hot path: one replay-mode
    :meth:`LiveDbmsDriver.evaluate` — a fingerprint lookup into the
    recorded :class:`EvalTrace` plus measurement reconstruction, no
    transport I/O.  Replay must stay in the same cost class as the
    simulator's scalar evaluate so swapping ``backend="replay"`` into a
    session never moves its wall-clock profile."""
    from repro.dbms.live import EvalTrace, FakePg, LiveDbmsDriver

    workload = get_workload("ycsb-a")
    trace_path = tmp_path / "trace.json"
    recorder = LiveDbmsDriver(
        workload, transport=FakePg(), record_path=trace_path
    )
    config = recorder.space.default_configuration()
    recorder.evaluate(config)
    driver = LiveDbmsDriver(workload, trace=EvalTrace.load(trace_path))
    driver.evaluate(config)  # warm the lookup path
    benchmark(driver.evaluate, config)


def test_session_server_traffic(benchmark):
    """The serving headline: 100 concurrent tenant sessions (10 tenants x
    10 seeds, SMAC+LlamaTune) drive suggest/observe traffic through the
    asyncio :class:`~repro.tuning.server.SessionServer`, whose batcher
    coalesces every concurrently-pending suggest into one heterogeneous
    wave.  Observations are synthetic (the tenants report externally
    measured values) so the bench isolates the serving path: gather
    window, stacked model phase, protocol bookkeeping.  The acceptance
    floor is 1,000 requests/sec; each suggest + each observe counts as
    one request.  Per-tenant trajectories stay byte-identical to solo
    runs regardless of batching (``tests/test_server.py`` pins that)."""
    import asyncio

    from repro.tuning.server import SessionServer

    spec = SessionSpec(
        workload="ycsb-a", optimizer="smac", adapter=llamatune_factory(),
        n_iterations=12, n_init=8,
    )
    run_spec(spec, [1])  # warm calibration + kernel
    n_tenants, n_seeds = 10, 10
    requests = n_tenants * n_seeds * spec.n_iterations * 2

    def serve() -> float:
        async def go():
            async with SessionServer(gather_window=0.002) as server:
                keys = [
                    await server.open(f"tenant-{t}", spec, seed)
                    for t in range(n_tenants)
                    for seed in range(1, n_seeds + 1)
                ]

                async def drive(key, base):
                    session = server.session(key)
                    value = base
                    while session.live:
                        await server.suggest(key)
                        value += 1.0
                        await server.observe(key, value)

                await asyncio.gather(
                    *(drive(key, 1000.0 * i) for i, key in enumerate(keys))
                )
                for key in keys:
                    await server.close(key, checkpoint=False)

        started = time.perf_counter()
        asyncio.run(go())
        return time.perf_counter() - started

    elapsed = serve()  # warm + floor check outside the timed rounds
    rate = requests / elapsed
    benchmark.extra_info["requests"] = requests
    benchmark.extra_info["requests_per_second"] = round(rate)
    assert rate >= 1000, (
        f"serving floor: {rate:,.0f} req/s < 1,000 req/s "
        f"({requests} requests in {elapsed:.2f}s)"
    )
    benchmark.pedantic(serve, rounds=3, warmup_rounds=1)
