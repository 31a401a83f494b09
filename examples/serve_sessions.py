#!/usr/bin/env python3
"""Tuning-as-a-service: multi-tenant sessions over the async server.

The other examples drive tuning *offline*: build a spec, call
``run_spec``, read the result.  This one runs the stack the way a
tuning service would (the E2ETune/OtterTune deployment shape): a
long-lived :class:`~repro.tuning.server.SessionServer` holds many
tenants' sessions open at once, each tenant drives its own
``suggest`` → evaluate → ``observe`` loop against its own DBMS, and
the server batches every concurrently-pending ``suggest`` into one
heterogeneous wave — all forest-backed tenants score in a single
stacked scoring call, whatever their workload, adapter width, or
seed.

Three properties worth noticing in the output:

* **Determinism.**  Each tenant evaluates with its session's own
  simulator and noise stream, so every trajectory is byte-identical to
  the tenant's solo ``run_spec`` — wave batching is invisible in the
  results (the example verifies one tenant against its solo run).
* **Tenancy.**  Checkpoints land under ``<root>/<tenant>/`` with
  spec-fingerprint file names, so tenants can never collide; a tenant
  that disconnects mid-run resumes byte-identically
  (checkpoint-on-disconnect is the server's default ``close``).
* **Quarantine.**  A tenant whose environment keeps failing reports
  ``observe(exhausted=True)``; the session is quarantined — visible in
  ``server.quarantined()`` — and further ``suggest`` calls refuse
  loudly instead of silently re-tuning a broken target.

Usage::

    python examples/serve_sessions.py
"""

import asyncio
import tempfile
import time

import numpy as np

from repro.dbms.errors import DbmsCrashError
from repro.tuning import SessionSpec, SessionServer, llamatune_factory, run_spec

ITERATIONS = 25
TENANTS = {
    # tenant id -> (workload, optimizer, target dims): deliberately
    # heterogeneous so every wave mixes specs.
    "acme-oltp": ("ycsb-a", "smac", 16),
    "globex-orders": ("tpcc", "smac", 8),
    "initech-batch": ("ycsb-b", "gp-bo", 16),
}


def make_spec(workload: str, optimizer: str, target_dim: int) -> SessionSpec:
    return SessionSpec(
        workload=workload,
        optimizer=optimizer,
        adapter=llamatune_factory(target_dim=target_dim),
        n_iterations=ITERATIONS,
        n_init=8,
    )


async def tenant_loop(server: SessionServer, key) -> int:
    """One tenant's client: evaluate each suggested configuration on its
    own DBMS (here: the session's simulator + noise stream, which is what
    makes the trajectory reproduce the solo run) and report back."""
    session = server.session(key)
    requests = 0
    while session.live:
        config = await server.suggest(key)
        requests += 1
        try:
            outcome = session.simulator.evaluate(config, rng=session.rng)
        except DbmsCrashError:
            # The config crashed the tenant's DBMS: report the crash and
            # let the server apply the paper's 1/4-of-worst penalty.
            await server.observe(key, crashed=True)
        else:
            await server.observe(key, measurement=outcome)
        requests += 1
    return requests


async def serve(checkpoint_root: str):
    async with SessionServer(
        checkpoint_root=checkpoint_root, gather_window=0.001
    ) as server:
        keys = {
            tenant: await server.open(tenant, make_spec(*shape), seed=1)
            for tenant, shape in TENANTS.items()
        }
        started = time.perf_counter()
        requests = sum(
            await asyncio.gather(
                *(tenant_loop(server, key) for key in keys.values())
            )
        )
        elapsed = time.perf_counter() - started
        for status in server.quarantined():
            print(f"quarantined: {status.key}")
        results = {
            tenant: await server.close(key) for tenant, key in keys.items()
        }
        return results, requests, elapsed


def main() -> None:
    with tempfile.TemporaryDirectory() as checkpoint_root:
        results, requests, elapsed = asyncio.run(serve(checkpoint_root))

    print(
        f"{len(TENANTS)} tenants, {requests} requests in {elapsed:.2f}s "
        f"({requests / elapsed:,.0f} req/s)\n"
    )
    for tenant, result in results.items():
        workload, optimizer, dims = TENANTS[tenant]
        print(
            f"  {tenant:>14} ({workload}, {optimizer}, {dims}d): "
            f"best {result.best_value:,.1f} reqs/sec, "
            f"{result.crash_count} crashes"
        )

    # The serving contract: wave batching never shows in the numbers.
    tenant = "acme-oltp"
    solo = run_spec(make_spec(*TENANTS[tenant]), [1])[0]
    assert np.array_equal(solo.values, results[tenant].values)
    print(f"\n{tenant} served == solo run_spec: byte-identical ✓")


if __name__ == "__main__":
    main()
