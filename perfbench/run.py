"""End-to-end tuning benchmark: four single-core workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload seq-ckpt --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``seq-ckpt``,
``wave-mixed``, ``gpbo-seq``, ``serve-sim``.

``--trace 0`` prints the end-to-end metrics, each measured untraced:

* ``iters_per_s`` — observations recorded across all sessions over the
  seconds of the timed calls;
* ``suggest_ms_p50``/``suggest_ms_p90`` — serve-sim: tenant-side time
  from calling ``SessionServer.suggest`` to receiving the configuration
  (counted in requests and in waves, since every tenant of a wave shares
  its latency); the other workloads: the per-iteration suggestion time
  the program records (``suggest_seconds``, Table 10's tuner overhead);
* ``best_improvement_pct`` — mean over the scored sessions of best
  throughput / default throughput - 1 (fixed by the seed);
* ``setup_s`` — median over fresh processes of the time from before
  ``import repro`` to the first timed call (imports, kernel load,
  warm-up, and for serve-sim the server start and tenant opens);
* ``peak_rss_mb`` — ``ru_maxrss`` of the measuring process.

``--trace 1`` runs the workload untraced and then traced, each in its own
process, checks that both produced the same trajectories, and prints the
per-layer metrics of ``tracing.py`` with the tracing overhead.

Every run records which path ran (CPU, versions, kernel, wave threads)
and checks its outputs; any failed operation or check makes the run exit
non-zero.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

from measure import REQUIRED_ENV
from tracing import overhead_metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seq-ckpt", "wave-mixed", "gpbo-seq", "serve-sim")

#: Fresh processes that set up per ``--trace 0`` run, the measuring one
#: included; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Switches that would route the program onto another path; the benchmark
#: always measures the default one.
CLEARED_ENV = (
    "REPRO_FOREST_KERNEL",
    "REPRO_FOREST_KERNEL_SANITIZE",
    "REPRO_GP_INCREMENTAL",
    "REPRO_GP_VECTOR_RESTARTS",
    "REPRO_SHM_TRANSPORT",
)

#: Compiling the kernel on a fresh checkout may take a while; after that,
#: the whole run must end within RUN_LIMIT_S.
PREPARE_TIMEOUT_S = 600
RUN_LIMIT_S = 170


class RunFailed(RuntimeError):
    pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end tuning benchmark (see module docstring).")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--iterations", type=int, default=100,
        help="session budget (default: the paper's 100; the self-test "
             "uses a tiny one)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0 or args.iterations < 1:
        parser.error("--seed and --seconds must be >= 0, --iterations >= 1")
    return args


def child_env(work: pathlib.Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(REQUIRED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(work / "tmp")  # keep every write inside the checkout
    return env


def run_child(role_args: list, env: dict, deadline: float) -> dict:
    """One fresh benchmark process, killed at ``deadline`` (monotonic);
    its last stdout line is its JSON."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "measure.py"), *role_args],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role_args[:2]} did not end in time") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed(
            f"{role_args[:2]} exited {proc.returncode} without a result:\n"
            f"{proc.stderr[-2000:]}") from None
    if proc.returncode != 0:
        out.setdefault("error", f"exit code {proc.returncode}")
    return out


def combine_ops(*outs) -> dict:
    ops: dict = {}
    for out in outs:
        for kind, (attempted, failed) in out["ops"].items():
            total = ops.setdefault(kind, [0, 0])
            total[0] += attempted
            total[1] += failed
    return ops


def describe_env(env: dict) -> str:
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
    so = f" ({env['kernel_so']})" if env["kernel_so"] else ""
    return (
        f"env: cpus={env['cpu_count']} affinity={env['cpu_affinity']} "
        f"model={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} "
        f"kernel={env['forest_kernel']}{so} "
        f"wave_threads={env['wave_threads']} threads={env['threads']} "
        f"{threads}"
    )


def describe_ops(ops: dict) -> str:
    attempted = sum(a for a, __ in ops.values())
    failed = sum(f for __, f in ops.values())
    kinds = ", ".join(f"{k} {f}/{a}" for k, (a, f) in ops.items())
    return (f"failed_share {failed / attempted:.6g} "
            f"({failed} failed / {attempted} attempted: {kinds})")


def describe_checks(out: dict) -> list[str]:
    return [f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
            f"({c['detail']})" for c in out["checks"]]


def end_to_end(args, env, work, deadline) -> tuple[dict, list[dict], list[str]]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--iterations", str(args.iterations),
              "--work-dir", str(work)]
    setups = []
    for __ in range(SETUP_SAMPLES - 1):
        probe = run_child(["--role", "setup", *common], env, deadline)
        if "error" in probe:
            raise RunFailed(f"set-up probe failed:\n{probe['error']}")
        setups.append(probe["setup_s"])
    main = run_child(["--role", "run", "--seconds", str(args.seconds),
                      *common], env, deadline)
    if "digests" not in main:
        raise RunFailed(main.get("error", "no result"))
    setups.append(main["setup_s"])
    metrics = {
        "iters_per_s": (main["iters_per_s"], "1/s"),
        "suggest_ms_p50": (main["suggest_ms_p50"], "ms"),
        "suggest_ms_p90": (main["suggest_ms_p90"], "ms"),
        "best_improvement_pct": (main["best_improvement_pct"], "%"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    counts = main["suggest_samples"]
    sample_text = ", ".join(f"{v} {k}" for k, v in counts.items())
    notes = {
        "iters_per_s": f"{main['observations']} observations / "
                       f"{main['timed_s']:.3f} s of timed calls, "
                       f"{main['units']} units, {main['sessions']} sessions",
        "suggest_ms_p50": f"n = {sample_text}",
        "suggest_ms_p90": f"n = {sample_text}",
        "best_improvement_pct": f"mean over {main['scored_sessions']} "
                                "scored sessions",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    lines = [describe_env(main["env"])]
    lines += [f"{name} = {value:.6g} {unit}  ({notes[name]})"
              for name, (value, unit) in metrics.items()]
    return metrics, [main], lines


def per_layer(args, env, work, deadline) -> tuple[dict, list[dict], list[str]]:
    common = ["--role", "run", "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--iterations", str(args.iterations), "--work-dir", str(work)]
    untraced = run_child(common, env, deadline)
    traced = run_child([*common, "--trace"], env, deadline)
    for out in (untraced, traced):
        if "digests" not in out:
            raise RunFailed(out.get("error", "no result"))
    # The traced run must reproduce the untraced trajectories: compare
    # every session both runs completed (the scored units at least).
    common_keys = sorted(untraced["digests"].keys() & traced["digests"].keys())
    same = [k for k in common_keys
            if untraced["digests"][k] == traced["digests"][k]]
    traced["checks"].append({
        "name": "traced-reproduces-untraced",
        "ok": bool(common_keys) and len(same) == len(common_keys),
        "detail": f"{len(same)}/{len(common_keys)} sessions identical",
    })
    traced["ops"]["checks"][0] += 1
    traced["ops"]["checks"][1] += int(not traced["checks"][-1]["ok"])
    layers = {name: tuple(pair) for name, pair in traced["layers"].items()}
    layers.update(overhead_metrics(layers["trace.iters_per_s"][0],
                                   untraced["iters_per_s"]))
    lines = [describe_env(traced["env"])]
    lines += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in layers.items()]
    return layers, [untraced, traced], lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its child and removes its work dir:
    # subprocess.run kills the child when the wait is interrupted.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    (work / "tmp").mkdir(parents=True)
    try:
        env = child_env(work)
        prepared = run_child(["--role", "prepare"], env,
                             time.monotonic() + PREPARE_TIMEOUT_S)
        if "error" in prepared:
            raise RunFailed(prepared["error"])
        measured = per_layer if args.trace else end_to_end
        metrics, outs, lines = measured(
            args, env, work, time.monotonic() + RUN_LIMIT_S)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone

    ops = combine_ops(*outs)
    errors = [out["error"] for out in outs if "error" in out]
    checks_ok = all(c["ok"] for out in outs for c in out["checks"])
    healthy = all(out["healthy"] for out in outs)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    print(describe_ops(ops))
    for out in outs:
        for line in describe_checks(out):
            print(line)
    for error in errors:
        print(f"error: {error}")
    attempted = sum(a for a, __ in ops.values())
    failed = sum(f for __, f in ops.values())
    correct = not errors and checks_ok and healthy and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
