"""User-facing tuning CLI: ``python -m repro [options]``.

Runs one tuning session against the simulated DBMS and reports the result:
convergence plot, headline numbers, and (optionally) the best configuration
rendered as a ``postgresql.conf`` fragment or the whole knowledge base as
JSON.

Examples::

    python -m repro --workload ycsb-a
    python -m repro --workload tpcc --optimizer gp-bo --iterations 50
    python -m repro --workload seats --no-llamatune        # vanilla baseline
    python -m repro --workload tpcc --objective latency --rate 2000
    python -m repro --workload ycsb-b --conf-out best.conf --kb-out kb.json
    python -m repro --workload tpcc --seeds 1,2,3,4,5 --workers 2
    python -m repro --workload ycsb-a --seeds 1,2,3,4,5,6,7,8 --workers 1
    python -m repro serve --workloads ycsb-a,tpcc --tenants 4 --seeds 1,2

``--seeds`` runs one session per seed: sequentially by default, in one
lockstep wave with ``--workers 1``, or in waves sharded over N worker
processes with ``--workers N``; every strategy prints the same results.

The ``serve`` subcommand runs the asyncio tuning-as-a-service front end
(:class:`repro.tuning.server.SessionServer`) with in-process demo
tenants: every tenant session's suggest calls are batched into
heterogeneous waves, clients evaluate against the simulator, and the
run reports requests/sec, p95 suggest latency, and per-tenant results.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.analysis.textplot import ascii_plot
from repro.dbms.versions import V96, V136
from repro.space.render import to_conf
from repro.tuning.early_stopping import EarlyStoppingPolicy
from repro.tuning.persistence import atomic_write_text, save_result
from repro.tuning.runner import (
    SessionSpec,
    llamatune_factory,
    mean_best_curve,
    run_spec,
    space_for_version,
)
from repro.tuning.session import QuarantinedSessionError


def _seed_list(text: str) -> list[int]:
    """Parse a comma-separated seed list (argparse type for ``--seeds``)."""
    return [int(s) for s in text.split(",") if s]


def _quarantine_detail(row: int | None, fingerprint: str | None) -> str:
    """Attribution suffix for quarantine report lines: which batch row and
    which configuration (by fingerprint) exhausted the retries, when the
    envelope recorded them."""
    parts = []
    if row is not None:
        parts.append(f"row {row}")
    if fingerprint is not None:
        parts.append(f"config {fingerprint}")
    return f" ({', '.join(parts)})" if parts else ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tune the simulated PostgreSQL for a workload.",
    )
    parser.add_argument("--workload", default="ycsb-a",
                        help="workload name (ycsb-a, tpcc, seats, ...)")
    parser.add_argument("--optimizer", default="smac",
                        choices=["smac", "gp-bo", "ddpg", "random"])
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", metavar="S1,S2,...", type=_seed_list,
                        default=None,
                        help="run several seeds (overrides --seed) and report "
                             "the seed-averaged curve and overall best")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run the seeds in lockstep waves (one stacked "
                             "surrogate-scoring pass and one cross-session "
                             "simulator pass per round): N=1 in one wave "
                             "in this process, N>=2 in waves sharded "
                             "round-robin over N worker processes "
                             "(default: sequentially); per-seed "
                             "trajectories are byte-identical to the "
                             "sequential run at any N")
    parser.add_argument("--suggest-batch", type=int, default=1, metavar="Q",
                        help="model-phase batch size: fit the surrogate "
                             "once per round and evaluate the top-Q "
                             "EI-ranked candidates in one batch (Q=1 is "
                             "the paper's sequential loop)")
    parser.add_argument("--objective", default="throughput",
                        choices=["throughput", "latency"])
    parser.add_argument("--rate", type=float, default=None,
                        help="fixed request rate for latency tuning (req/s)")
    parser.add_argument("--dbms-version", default="9.6", choices=["9.6", "13.6"])
    parser.add_argument("--no-llamatune", action="store_true",
                        help="tune the raw knob space (vanilla baseline)")
    parser.add_argument("--dim", type=int, default=16,
                        help="LlamaTune projection dimensionality d")
    parser.add_argument("--bias", type=float, default=0.2,
                        help="special-value bias probability p")
    parser.add_argument("--buckets", type=int, default=10_000,
                        help="bucketization limit K (0 disables)")
    parser.add_argument("--projection", default="hesbo",
                        choices=["hesbo", "rembo", "none"])
    parser.add_argument("--early-stop", metavar="PCT,PATIENCE", default=None,
                        help="early stopping, e.g. '1,20' for (1%%, 20 iters)")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                        help="write a resumable session checkpoint at every "
                             "K-iteration round boundary (requires "
                             "--checkpoint-dir; 0 disables)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for per-seed session checkpoints")
    parser.add_argument("--resume", action="store_true",
                        help="restore any existing checkpoint from "
                             "--checkpoint-dir before running; the "
                             "continuation is byte-identical to the "
                             "uninterrupted run")
    parser.add_argument("--force-resume", action="store_true",
                        help="with --resume, also restore *quarantined* "
                             "checkpoints and retry the fault envelope at "
                             "the quarantine cursor (refused by default: "
                             "the envelope already exhausted its retries "
                             "there)")
    parser.add_argument("--fault-rate", type=float, default=0.0, metavar="P",
                        help="inject evaluation faults (transient errors, "
                             "hangs, flaky crashes, corrupted measurements) "
                             "with probability P per evaluation, handled by "
                             "the retry/timeout fault envelope; the schedule "
                             "is reproducible per (spec, seed, fault seed) "
                             "and P=0 is byte-identical to no injection")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="dedicated seed for the fault schedule "
                             "(independent of evaluation/optimizer streams)")
    parser.add_argument("--backend", default="sim",
                        choices=["sim", "live", "replay"],
                        help="execution backend: 'sim' (analytical "
                             "simulator, default), 'live' (a real Postgres "
                             "server via --dsn), or 'replay' (hermetic "
                             "deterministic replay of a recorded trace, "
                             "--trace)")
    parser.add_argument("--dsn", metavar="DSN", default=None,
                        help="libpq connection string for --backend live "
                             "(requires psycopg/psycopg2)")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="recorded evaluation trace for --backend replay")
    parser.add_argument("--record-trace", metavar="FILE", default=None,
                        help="with --backend live, record every evaluation "
                             "outcome to FILE for later hermetic replay "
                             "(sequential execution only)")
    parser.add_argument("--conf-out", metavar="FILE", default=None,
                        help="write the best configuration as postgresql.conf")
    parser.add_argument("--kb-out", metavar="FILE", default=None,
                        help="write the knowledge base as JSON")
    parser.add_argument("--no-plot", action="store_true")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the asyncio tuning session server with in-process "
                    "demo tenants (suggest/observe traffic batched into "
                    "heterogeneous waves).",
    )
    parser.add_argument("--workloads", default="ycsb-a",
                        metavar="W1,W2,...",
                        help="workloads cycled across tenants; two or more "
                             "distinct workloads make the waves "
                             "heterogeneous (per-tenant trajectories stay "
                             "byte-identical to solo runs either way)")
    parser.add_argument("--optimizer", default="smac",
                        choices=["smac", "gp-bo", "random"])
    parser.add_argument("--iterations", type=int, default=30)
    parser.add_argument("--n-init", type=int, default=10)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--seeds", metavar="S1,S2,...", type=_seed_list,
                        default=[1],
                        help="one session per (tenant, seed) pair")
    parser.add_argument("--gather-window", type=float, default=0.001,
                        metavar="SEC",
                        help="how long the batcher waits after the first "
                             "pending suggest so concurrent requests "
                             "coalesce into one wave")
    parser.add_argument("--checkpoint-root", metavar="DIR", default=None,
                        help="per-tenant checkpoint namespace: each "
                             "tenant's snapshots land under DIR/<tenant>")
    parser.add_argument("--checkpoint-every", type=int, default=0, metavar="K",
                        help="checkpoint every session at every "
                             "K-iteration round boundary (requires "
                             "--checkpoint-root)")
    parser.add_argument("--resume", action="store_true",
                        help="reopen sessions from their per-tenant "
                             "checkpoints (requires --checkpoint-root)")
    parser.add_argument("--force-resume", action="store_true",
                        help="with --resume, also reopen quarantined "
                             "sessions and retry their envelopes")
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    from repro.dbms.errors import DbmsCrashError
    from repro.tuning.server import SessionServer

    args = build_serve_parser().parse_args(argv)
    if args.tenants < 1:
        print("error: --tenants must be >= 1", file=sys.stderr)
        return 2
    if args.iterations < 1:
        print("error: --iterations must be >= 1", file=sys.stderr)
        return 2
    if args.n_init < 1:
        print("error: --n-init must be >= 1", file=sys.stderr)
        return 2
    if not args.seeds:
        print("error: --seeds is empty", file=sys.stderr)
        return 2
    if args.gather_window < 0:
        print("error: --gather-window must be >= 0", file=sys.stderr)
        return 2
    if (args.checkpoint_every > 0 or args.resume) and not args.checkpoint_root:
        print(
            "error: --checkpoint-every/--resume require --checkpoint-root",
            file=sys.stderr,
        )
        return 2
    if args.force_resume and not args.resume:
        print("error: --force-resume requires --resume", file=sys.stderr)
        return 2
    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        print("error: --workloads is empty", file=sys.stderr)
        return 2

    tasks = []
    for tenant in range(args.tenants):
        spec = SessionSpec(
            workload=workloads[tenant % len(workloads)],
            optimizer=args.optimizer,
            adapter=llamatune_factory(),
            n_iterations=args.iterations,
            n_init=args.n_init,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            force_resume=args.force_resume,
        )
        for seed in args.seeds:
            tasks.append((f"tenant-{tenant}", spec, seed))
    print(
        f"Serving {len(tasks)} session{'s' if len(tasks) > 1 else ''} "
        f"({args.tenants} tenant{'s' if args.tenants > 1 else ''} x "
        f"{len(args.seeds)} seed{'s' if len(args.seeds) > 1 else ''}, "
        f"workloads {', '.join(dict.fromkeys(workloads))}; "
        f"gather window {args.gather_window * 1000:.1f} ms)"
    )

    latencies: list[float] = []
    requests = 0

    async def serve() -> tuple[list, list, float]:
        nonlocal requests
        async with SessionServer(
            checkpoint_root=args.checkpoint_root,
            gather_window=args.gather_window,
        ) as server:
            keys = [
                await server.open(tenant_id, spec, seed)
                for tenant_id, spec, seed in tasks
            ]

            async def drive(key):
                nonlocal requests
                session = server.session(key)
                while session.live:
                    started = time.perf_counter()
                    config = await server.suggest(key)
                    latencies.append(time.perf_counter() - started)
                    try:
                        outcome = session.simulator.evaluate(
                            config, rng=session.rng
                        )
                        await server.observe(key, measurement=outcome)
                    except DbmsCrashError:
                        await server.observe(key, crashed=True)
                    requests += 2

            started = time.perf_counter()
            await asyncio.gather(*(drive(key) for key in keys))
            elapsed = time.perf_counter() - started
            quarantined = server.quarantined()
            results = [await server.close(key) for key in keys]
            return results, quarantined, elapsed

    try:
        results, quarantined, elapsed = asyncio.run(serve())
    except QuarantinedSessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: fix the evaluation environment, then reopen with "
            "--force-resume",
            file=sys.stderr,
        )
        return 3

    latencies.sort()
    p95 = latencies[min(len(latencies) - 1, int(0.95 * len(latencies)))]
    print()
    print(
        f"{requests} requests in {elapsed:.2f}s "
        f"({requests / max(elapsed, 1e-9):,.0f} req/s); "
        f"suggest p95 {p95 * 1000:.2f} ms"
    )
    for (tenant_id, spec, seed), result in zip(tasks, results):
        unit = "reqs/sec" if spec.objective == "throughput" else "ms (p95)"
        line = (
            f"  {tenant_id} {spec.workload} seed {seed}: "
            f"best {result.best_value:,.1f} {unit}"
        )
        if result.quarantined_at is not None:
            line += (
                f" [quarantined at iteration {result.quarantined_at}"
                f"{_quarantine_detail(result.quarantined_row, result.quarantined_fingerprint)}]"
            )
        print(line)
    for status in quarantined:
        print(
            f"quarantined: {status.key} at iteration {status.quarantined_at}"
            + _quarantine_detail(
                status.quarantined_row, status.quarantined_fingerprint
            )
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.objective == "latency" and args.rate is None:
        print("error: --objective latency requires --rate", file=sys.stderr)
        return 2
    if args.iterations < 1:
        print("error: --iterations must be >= 1", file=sys.stderr)
        return 2
    if args.suggest_batch < 1:
        print("error: --suggest-batch must be >= 1", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.checkpoint_every < 0:
        print("error: --checkpoint-every must be >= 0", file=sys.stderr)
        return 2
    if (args.checkpoint_every > 0 or args.resume) and not args.checkpoint_dir:
        print(
            "error: --checkpoint-every/--resume require --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    if args.force_resume and not args.resume:
        print("error: --force-resume requires --resume", file=sys.stderr)
        return 2
    if args.checkpoint_every > 0 and args.optimizer == "ddpg":
        print(
            "error: ddpg is not checkpointable (its neural state is outside "
            "the checkpoint seam); drop --checkpoint-every",
            file=sys.stderr,
        )
        return 2
    if not 0.0 <= args.fault_rate <= 1.0:
        print("error: --fault-rate must be in [0, 1]", file=sys.stderr)
        return 2
    if args.backend == "replay" and not args.trace:
        print("error: --backend replay requires --trace", file=sys.stderr)
        return 2
    if args.backend == "live" and not args.dsn:
        print("error: --backend live requires --dsn", file=sys.stderr)
        return 2
    if args.record_trace and args.backend != "live":
        print("error: --record-trace requires --backend live", file=sys.stderr)
        return 2
    if args.backend == "live" and args.workers is not None and args.workers >= 2:
        print(
            "error: --backend live cannot run seeds in parallel: every "
            "worker process would reconfigure and restart the same server "
            "concurrently; drop --workers or use --workers 1 (they "
            "evaluate one seed at a time)",
            file=sys.stderr,
        )
        return 2
    if args.backend != "sim" and args.fault_rate > 0:
        print(
            "error: --fault-rate injects faults into the simulator backend; "
            "use a FlakyPg transport for live-backend chaos",
            file=sys.stderr,
        )
        return 2
    if args.record_trace and args.workers is not None:
        print(
            "error: --record-trace captures traces sequentially; drop "
            "--workers",
            file=sys.stderr,
        )
        return 2
    if args.trace and args.backend != "replay":
        print("error: --trace requires --backend replay", file=sys.stderr)
        return 2

    early_stopping = None
    if args.early_stop:
        pct_text, __, patience_text = args.early_stop.partition(",")
        early_stopping = EarlyStoppingPolicy(
            min_improvement=float(pct_text) / 100.0,
            patience=int(patience_text or 10),
        )

    version = V96 if args.dbms_version == "9.6" else V136
    if args.no_llamatune:
        adapter = None
    else:
        adapter = llamatune_factory(
            projection=None if args.projection == "none" else args.projection,
            target_dim=args.dim,
            bias=args.bias,
            max_values=args.buckets or None,
        )
        # The adapter checks its own arguments (--dim, --bias, --buckets)
        # when it is built; build it once here so a bad value is a flag
        # error, not a traceback from inside the run.
        try:
            adapter(space_for_version(version), args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    spec = SessionSpec(
        workload=args.workload,
        optimizer=args.optimizer,
        adapter=adapter,
        objective=args.objective,
        version=version,
        n_iterations=args.iterations,
        target_rate=args.rate,
        early_stopping=early_stopping,
        suggest_batch=args.suggest_batch,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        force_resume=args.force_resume,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        backend=args.backend,
        trace=args.trace,
        record_trace=args.record_trace,
        dsn=args.dsn,
    )
    label = "vanilla" if args.no_llamatune else "LlamaTune"
    seeds = args.seeds if args.seeds else [args.seed]
    print(
        f"Tuning {args.workload} with {label} {args.optimizer} "
        f"({args.iterations} iterations, PostgreSQL v{args.dbms_version}, "
        f"{len(seeds)} seed{'s' if len(seeds) > 1 else ''})"
    )
    try:
        results = run_spec(spec, seeds, workers=args.workers)
    except QuarantinedSessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "hint: fix the evaluation environment, then retry with "
            "--force-resume to re-enter the quarantined session",
            file=sys.stderr,
        )
        return 3
    # A seed quarantined before its first measurement has an empty
    # knowledge base — no best value or curve to summarize.  Score only
    # the seeds that observed something; if none did, report the
    # quarantines and exit 3 instead of crashing on an empty reduction.
    scored = [r for r in results if len(r.knowledge_base) > 0]
    if not scored:
        for r, seed in zip(results, seeds):
            if r.quarantined_at is not None:
                print(
                    f"seed {seed} quarantined at iteration "
                    f"{r.quarantined_at}"
                    f"{_quarantine_detail(r.quarantined_row, r.quarantined_fingerprint)}"
                    " (an evaluation exhausted its fault-envelope retries)"
                )
        print(
            "error: no observations recorded — every session quarantined "
            "before its first measurement",
            file=sys.stderr,
        )
        return 3
    maximize = args.objective == "throughput"
    pick = max if maximize else min
    result = pick(scored, key=lambda r: r.best_value)
    curve = mean_best_curve(scored) if len(scored) > 1 else result.best_curve

    unit = "reqs/sec" if args.objective == "throughput" else "ms (p95)"
    if not args.no_plot:
        print()
        title = f"best {args.objective} so far"
        if len(scored) > 1:
            title += f" (mean of {len(scored)} seeds)"
        print(ascii_plot({label: curve}, title=title))
    print()
    print(f"default: {result.default_value:>12,.1f} {unit}")
    print(f"best:    {result.best_value:>12,.1f} {unit}")
    print(f"crashed configurations: {sum(r.crash_count for r in results)}")
    if result.stopped_early_at is not None:
        print(f"stopped early at iteration {result.stopped_early_at}")
    for r, seed in zip(results, seeds):
        if r.quarantined_at is not None:
            print(
                f"seed {seed} quarantined at iteration {r.quarantined_at}"
                f"{_quarantine_detail(r.quarantined_row, r.quarantined_fingerprint)}"
                " (an evaluation exhausted its fault-envelope retries)"
            )

    best = result.knowledge_base.best_observation().target_config
    if args.conf_out:
        atomic_write_text(
            args.conf_out,
            to_conf(best, header=f"best configuration for {args.workload}"),
        )
        print(f"wrote best configuration to {args.conf_out}")
    if args.kb_out:
        save_result(result, args.kb_out)
        print(f"wrote knowledge base to {args.kb_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
