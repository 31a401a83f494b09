"""Session-server pins (:class:`repro.tuning.server.SessionServer`).

The server's contract has three legs, all pinned here:

1. **Determinism** — a tenant that evaluates its suggestions with its
   session's own simulator and noise stream reproduces the solo
   sequential ``run_spec`` trajectory *byte-identically* (values, crash
   rows, final PCG64 stream positions), no matter how many other
   tenants share its waves, how requests interleave, or what the gather
   window is.  A mismatch means wave batching leaked RNG draws across
   sessions — a correctness regression, never a tolerance issue.
2. **Lifecycle** — checkpoint-on-disconnect + ``resume=True`` reopening
   continues byte-identically; tenants get disjoint checkpoint
   namespaces under ``checkpoint_root``.
3. **Quarantine & protocol** — ``observe(exhausted=True)`` quarantines
   the session and the refusal propagates through ``suggest``,
   ``status``, and the ``quarantined()`` report; protocol violations
   (double suggest, observe-without-suggest, duplicate open, batch
   specs) raise :class:`ServerProtocolError` loudly.
"""

import asyncio
import dataclasses
import functools

import numpy as np
import pytest

from repro.dbms.errors import DbmsCrashError
from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec
from repro.tuning.server import (
    ExternalMeasurement,
    ServerProtocolError,
    SessionKey,
    SessionServer,
)
from repro.tuning.session import QuarantinedSessionError


def make_spec(**overrides):
    base = dict(
        workload="ycsb-a",
        optimizer="smac",
        adapter=llamatune_factory(),
        n_iterations=12,
        n_init=5,
    )
    base.update(overrides)
    return SessionSpec(**base)


async def observe_own(server, key, config):
    """Evaluate ``config`` with the session's own simulator and noise
    stream and observe the outcome."""
    session = server.session(key)
    try:
        outcome = session.simulator.evaluate(config, rng=session.rng)
    except DbmsCrashError:
        await server.observe(key, crashed=True)
    else:
        await server.observe(key, measurement=outcome)


async def drive(server, key):
    """In-process tenant: evaluate each suggestion with the session's own
    simulator and noise stream (the solo-reproducing client shape)."""
    session = server.session(key)
    while session.live:
        await observe_own(server, key, await server.suggest(key))


async def cancel_after_wave(server, key):
    """Start a ``suggest`` and cancel it once its wave has run: the round
    is pending, but the tenant never received its configuration."""
    task = asyncio.ensure_future(server.suggest(key))
    while not (await server.status(key)).pending:
        await asyncio.sleep(0)
    task.cancel()
    with pytest.raises(asyncio.CancelledError):
        await task


def serve_tasks(tasks, gather_window=0.001, **server_kwargs):
    """Open every (tenant_id, spec, seed) task, drive them concurrently,
    return (results, rng_states) in task order."""

    async def go():
        async with SessionServer(
            gather_window=gather_window, **server_kwargs
        ) as server:
            keys = [
                await server.open(tenant_id, spec, seed)
                for tenant_id, spec, seed in tasks
            ]
            await asyncio.gather(*(drive(server, key) for key in keys))
            sessions = [server.session(key) for key in keys]
            states = [
                (
                    s.optimizer.rng.bit_generator.state,
                    s.rng.bit_generator.state,
                )
                for s in sessions
            ]
            results = [await server.close(key) for key in keys]
            return results, states

    return asyncio.run(go())


def solo_states_and_results(tasks):
    results, states = [], []
    for _, spec, seed in tasks:
        session = spec.build(seed)
        results.append(session.run())
        states.append(
            (
                session.optimizer.rng.bit_generator.state,
                session.rng.bit_generator.state,
            )
        )
    return results, states


def assert_server_matches_solo(tasks, **server_kwargs):
    solo_results, solo_states = solo_states_and_results(tasks)
    served_results, served_states = serve_tasks(tasks, **server_kwargs)
    for solo, served in zip(solo_results, served_results):
        np.testing.assert_array_equal(solo.values, served.values)
        assert solo.stopped_early_at == served.stopped_early_at
        solo_obs = list(solo.knowledge_base)
        served_obs = list(served.knowledge_base)
        assert len(solo_obs) == len(served_obs)
        for a, b in zip(solo_obs, served_obs):
            assert a.crashed == b.crashed
            assert dict(a.target_config) == dict(b.target_config)
    assert solo_states == served_states
    return served_results


def outstanding_spec(optimizer):
    if optimizer == "gp-bo-refit5":
        return make_spec(
            optimizer="gp-bo", n_iterations=14, n_init=3,
            optimizer_kwargs=(("refit_every", 5),),
        )
    return make_spec(optimizer=optimizer, n_iterations=14, n_init=3)


@functools.lru_cache(maxsize=None)
def solo_run(optimizer):
    return outstanding_spec(optimizer).build(5).run()


def assert_same_trajectory(solo, other):
    np.testing.assert_array_equal(solo.values, other.values)
    solo_obs = list(solo.knowledge_base)
    other_obs = list(other.knowledge_base)
    assert len(solo_obs) == len(other_obs)
    for a, b in zip(solo_obs, other_obs):
        assert a.crashed == b.crashed
        assert dict(a.optimizer_config) == dict(b.optimizer_config)
        assert dict(a.target_config) == dict(b.target_config)


class TestServerDeterminism:
    def test_single_tenant_matches_solo(self):
        assert_server_matches_solo([("acme", make_spec(), 1)])

    def test_concurrent_heterogeneous_tenants_match_solo(self):
        # Two workloads, two optimizers, two adapter widths, all batched
        # into shared waves — every trajectory must still equal its solo
        # run exactly.
        tasks = [
            ("acme", make_spec(), 1),
            ("acme", make_spec(), 2),
            ("globex", make_spec(workload="tpcc"), 1),
            (
                "initech",
                make_spec(
                    optimizer="gp-bo",
                    adapter=llamatune_factory(target_dim=8),
                ),
                1,
            ),
        ]
        assert_server_matches_solo(tasks)

    def test_gather_window_is_not_observable(self):
        # Window length changes *which* requests share a wave, never the
        # trajectories.
        tasks = [
            ("acme", make_spec(n_iterations=10), 1),
            ("globex", make_spec(workload="tpcc", n_iterations=10), 1),
        ]
        wide, wide_states = serve_tasks(tasks, gather_window=0.01)
        zero, zero_states = serve_tasks(tasks, gather_window=0.0)
        for a, b in zip(wide, zero):
            np.testing.assert_array_equal(a.values, b.values)
        assert wide_states == zero_states

    def test_crash_rows_through_the_server(self):
        # The raw 90-knob space over-commits memory → crash outcomes
        # flow through observe(crashed=True) with the paper's penalty.
        results = assert_server_matches_solo(
            [("acme", make_spec(workload="tpcc", adapter=None), 1)]
        )
        assert any(o.crashed for o in results[0].knowledge_base)


class TestServerLifecycle:
    def test_checkpoint_on_disconnect_and_resume(self, tmp_path):
        spec = make_spec(n_iterations=14)
        solo = spec.build(5).run()

        async def interrupted():
            async with SessionServer(checkpoint_root=tmp_path) as server:
                key = await server.open("acme", spec, 5)
                session = server.session(key)
                for _ in range(6):
                    config = await server.suggest(key)
                    try:
                        outcome = session.simulator.evaluate(
                            config, rng=session.rng
                        )
                    except DbmsCrashError:
                        await server.observe(key, crashed=True)
                    else:
                        await server.observe(key, measurement=outcome)
                await server.close(key)  # checkpoint-on-disconnect

        async def reconnected():
            async with SessionServer(checkpoint_root=tmp_path) as server:
                key = await server.open(
                    "acme", dataclasses.replace(spec, resume=True), 5
                )
                await drive(server, key)
                return await server.close(key)

        asyncio.run(interrupted())
        ckpts = list((tmp_path / "acme").glob("*.ckpt.json"))
        assert len(ckpts) == 1
        resumed = asyncio.run(reconnected())
        np.testing.assert_array_equal(resumed.values, solo.values)

    @pytest.mark.parametrize("call", ["close", "checkpoint"])
    @pytest.mark.parametrize("k", [2, 3, 6])
    @pytest.mark.parametrize("optimizer", ["smac", "gp-bo-refit5"])
    def test_checkpoint_with_an_outstanding_suggestion(
        self, tmp_path, optimizer, k, call
    ):
        """A checkpoint taken while a suggestion is outstanding holds the
        state from before the wave that prepared it, so resuming replays
        that round as the solo run does — in the LHS phase (k = 2) and in
        model rounds, where preparing draws from the optimizer's stream
        (k = 3, 6).  ``checkpoint(key)`` leaves the live session on the
        solo trajectory too."""
        spec = outstanding_spec(optimizer)
        solo = solo_run(optimizer)

        async def interrupted():
            async with SessionServer(checkpoint_root=tmp_path) as server:
                key = await server.open("acme", spec, 5)
                for _ in range(k):
                    await observe_own(server, key, await server.suggest(key))
                config = await server.suggest(key)  # never observed here
                if call == "close":
                    await server.close(key)
                    return None
                await server.checkpoint(key)
                await observe_own(server, key, config)
                await drive(server, key)
                return await server.close(key, checkpoint=False)

        async def reconnected():
            async with SessionServer(checkpoint_root=tmp_path) as server:
                key = await server.open(
                    "acme", dataclasses.replace(spec, resume=True), 5
                )
                assert server.session(key).iteration == k
                await drive(server, key)
                return await server.close(key)

        live = asyncio.run(interrupted())
        if live is not None:
            assert_same_trajectory(solo, live)
        assert_same_trajectory(solo, asyncio.run(reconnected()))

    def test_uncheckpointable_optimizer_refused_at_open(self, tmp_path):
        # DDPG's state is outside the checkpoint seam: on a server that
        # checkpoints on close, such a session could never be closed.
        async def go():
            async with SessionServer(checkpoint_root=tmp_path) as server:
                with pytest.raises(ValueError, match="not checkpointable"):
                    await server.open("acme", make_spec(optimizer="ddpg"), 1)
                assert await server.status() == []

        asyncio.run(go())  # and the server shuts down cleanly

    def test_tenant_checkpoint_namespaces_are_disjoint(self, tmp_path):
        # Same spec, same seed, different tenants: identical filenames
        # land in per-tenant directories instead of colliding.
        spec = make_spec(n_iterations=6, n_init=3)
        tasks = [("acme", spec, 1), ("globex", spec, 1)]
        serve_tasks(tasks, checkpoint_root=tmp_path)
        acme = sorted(p.name for p in (tmp_path / "acme").iterdir())
        globex = sorted(p.name for p in (tmp_path / "globex").iterdir())
        assert acme == globex and len(acme) == 1

    def test_close_returns_partial_result(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open("acme", make_spec(), 1)
                session = server.session(key)
                config = await server.suggest(key)
                outcome = session.simulator.evaluate(
                    config, rng=session.rng
                )
                await server.observe(key, measurement=outcome)
                result = await server.close(key)
                assert len(list(result.knowledge_base)) == 1
                with pytest.raises(ServerProtocolError, match="unknown"):
                    await server.suggest(key)

        asyncio.run(go())

    def test_external_measurement_value_path(self):
        # A remote tenant without a Measurement object reports a bare
        # value; the KB must record it verbatim.
        async def go():
            async with SessionServer() as server:
                key = await server.open(
                    "acme", make_spec(n_iterations=4, n_init=2), 1
                )
                reported = []
                session = server.session(key)
                while session.live:
                    await server.suggest(key)
                    value = 1000.0 + 10 * len(reported)
                    reported.append(value)
                    status = await server.observe(
                        key, value, throughput=value
                    )
                assert status.state == "done"
                result = await server.close(key)
                assert [o.value for o in result.knowledge_base] == reported

        asyncio.run(go())
        assert ExternalMeasurement(42.0).value("throughput") == 42.0


class TestQuarantinePropagation:
    def test_exhausted_observe_quarantines(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open("acme", make_spec(), 1)
                await server.suggest(key)
                status = await server.observe(key, exhausted=True)
                assert status.quarantined_at is not None
                with pytest.raises(QuarantinedSessionError):
                    await server.suggest(key)
                report = server.quarantined()
                assert [s.key for s in report] == [key]
                result = await server.close(key)
                assert result.quarantined_at is not None

        asyncio.run(go())

    def test_quarantine_does_not_record_an_observation(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open("acme", make_spec(), 1)
                await server.suggest(key)
                await server.observe(key, exhausted=True)
                result = await server.close(key)
                assert len(list(result.knowledge_base)) == 0

        asyncio.run(go())


class TestServerProtocol:
    def test_double_suggest_refused(self):
        async def go():
            async with SessionServer(gather_window=0.05) as server:
                key = await server.open("acme", make_spec(), 1)
                first = asyncio.ensure_future(server.suggest(key))
                await asyncio.sleep(0)  # let the first request enqueue
                with pytest.raises(ServerProtocolError, match="outstanding"):
                    await server.suggest(key)
                await first
                # ...and again while the suggestion awaits its observe.
                with pytest.raises(ServerProtocolError, match="outstanding"):
                    await server.suggest(key)

        asyncio.run(go())

    @pytest.mark.parametrize("cancel_at", [0, 7], ids=["init", "model"])
    def test_suggest_cancelled_after_its_wave(self, cancel_at):
        """The next ``suggest`` hands the cancelled round over without a
        second prepare, so the session still ends on its solo trajectory
        and both PCG64 positions."""
        spec = make_spec()

        async def go():
            async with SessionServer(gather_window=0) as server:
                key = await server.open("acme", spec, 1)
                for __ in range(cancel_at):
                    await observe_own(server, key, await server.suggest(key))
                await cancel_after_wave(server, key)
                await drive(server, key)
                session = server.session(key)
                state = (
                    session.optimizer.rng.bit_generator.state,
                    session.rng.bit_generator.state,
                )
                return await server.close(key), state

        served, served_state = asyncio.run(go())
        (solo,), (solo_state,) = solo_states_and_results([("acme", spec, 1)])
        assert_same_trajectory(solo, served)
        assert served_state == solo_state

    def test_suggest_cancelled_before_its_wave(self):
        """A ``suggest`` cancelled while queued never reaches a wave: the
        next ``suggest`` prepares the round afresh, on the solo
        trajectory."""
        spec = make_spec()

        async def go():
            async with SessionServer(gather_window=0.05) as server:
                key = await server.open("acme", spec, 1)
                task = asyncio.ensure_future(server.suggest(key))
                await asyncio.sleep(0)  # let the request enqueue
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert not (await server.status(key)).pending
                await drive(server, key)
                return await server.close(key)

        (solo,), __ = solo_states_and_results([("acme", spec, 1)])
        assert_same_trajectory(solo, asyncio.run(go()))

    def test_suggest_after_a_handed_over_suggestion_refused(self):
        async def go():
            async with SessionServer(gather_window=0) as server:
                key = await server.open("acme", make_spec(), 1)
                await cancel_after_wave(server, key)
                await server.suggest(key)  # hands the round over
                with pytest.raises(ServerProtocolError, match="outstanding"):
                    await server.suggest(key)

        asyncio.run(go())

    def test_observe_of_an_undelivered_suggestion_refused(self):
        """A round whose ``suggest`` was cancelled after its wave never
        reached the tenant: ``observe`` refuses it until the next
        ``suggest`` hands it over."""

        async def go():
            async with SessionServer(gather_window=0) as server:
                key = await server.open("acme", make_spec(), 1)
                await cancel_after_wave(server, key)
                with pytest.raises(ServerProtocolError, match="delivered"):
                    await server.observe(key, 1234.0)
                assert (await server.status(key)).iteration == 0
                await server.suggest(key)
                assert (await server.observe(key, 1234.0)).iteration == 1

        asyncio.run(go())

    def test_observe_without_suggest_refused(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open("acme", make_spec(), 1)
                with pytest.raises(ServerProtocolError, match="no outstanding"):
                    await server.observe(key, 1.0)

        asyncio.run(go())

    def test_observe_without_outcome_refused(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open("acme", make_spec(), 1)
                await server.suggest(key)
                with pytest.raises(ServerProtocolError, match="needs"):
                    await server.observe(key)

        asyncio.run(go())

    def test_duplicate_open_refused(self):
        async def go():
            async with SessionServer() as server:
                spec = make_spec()
                await server.open("acme", spec, 1)
                with pytest.raises(ServerProtocolError, match="already open"):
                    await server.open("acme", spec, 1)
                # Distinct tenant or seed is a distinct key — allowed.
                await server.open("globex", spec, 1)
                await server.open("acme", spec, 2)

        asyncio.run(go())

    def test_batch_spec_refused(self):
        async def go():
            async with SessionServer() as server:
                with pytest.raises(ValueError, match="suggest_batch=1"):
                    await server.open("acme", make_spec(suggest_batch=4), 1)

        asyncio.run(go())

    def test_unsafe_tenant_id_refused(self):
        async def go():
            async with SessionServer() as server:
                with pytest.raises(ValueError, match="path-safe"):
                    await server.open("../escape", make_spec(), 1)

        asyncio.run(go())

    def test_suggest_after_budget_exhausted_refused(self):
        async def go():
            async with SessionServer() as server:
                key = await server.open(
                    "acme", make_spec(n_iterations=2, n_init=1), 1
                )
                await drive(server, key)
                with pytest.raises(ServerProtocolError, match="finished"):
                    await server.suggest(key)
                status = await server.status(key)
                assert status.state == "done"

        asyncio.run(go())

    def test_status_lists_every_open_session_sorted(self):
        async def go():
            async with SessionServer() as server:
                spec = make_spec()
                k2 = await server.open("globex", spec, 1)
                k1 = await server.open("acme", spec, 1)
                listing = await server.status()
                assert [s.key for s in listing] == sorted([k1, k2])
                assert all(s.state == "running" for s in listing)

        asyncio.run(go())

    def test_key_identity(self):
        spec = make_spec()
        assert SessionKey("a", spec.spec_token(), 1) == SessionKey(
            "a", spec.spec_token(), 1
        )
