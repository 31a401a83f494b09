"""CLI entry point: ``python -m repro.experiments <id|all> [--scale ...]``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time

from repro.experiments import EXPERIMENTS, Scale, run_experiment
from repro.tuning.persistence import atomic_write_text

#: Unique experiment ids in a sensible execution order (aliases removed).
ORDERED_IDS = (
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig6",
    "fig7",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "fig11",
    "table10",
    "table11",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*ORDERED_IDS, "fig9", "fig10", "all"],
        help="experiment id, or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["paper", "default", "quick"],
        default="default",
        help="execution scale (seeds/iterations)",
    )
    parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each report's machine-readable data to DIR/<id>.json",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run an experiment's arms and seeds as one grid in lockstep "
             "waves: N=1 in one wave, N>=2 in waves sharded over N worker "
             "processes (default: sequentially); results are byte-identical "
             "either way, and Table 10 always runs sequentially",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="checkpoint every tuning session at K-iteration round "
             "boundaries (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="directory for per-seed session checkpoints",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="restore existing checkpoints from --checkpoint-dir, "
             "continuing interrupted experiments byte-identically",
    )
    parser.add_argument(
        "--force-resume",
        action="store_true",
        help="with --resume, also restore quarantined checkpoints and "
             "retry their failed evaluations",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        metavar="P",
        help="inject evaluation faults with probability P per evaluation "
             "(reproducible per (spec, seed, fault seed))",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="dedicated seed for the fault schedule",
    )
    args = parser.parse_args(argv)
    if args.checkpoint_every < 0:
        parser.error("--checkpoint-every must be >= 0")
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error("--fault-rate must be in [0, 1]")
    if (args.checkpoint_every or args.resume) and not args.checkpoint_dir:
        parser.error("--checkpoint-every/--resume require --checkpoint-dir")
    if args.force_resume and not args.resume:
        parser.error("--force-resume requires --resume")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    scale = {"paper": Scale.paper, "default": Scale.default, "quick": Scale.quick}[
        args.scale
    ]()
    # Every arm's SessionSpec takes the resilience fields from the scale
    # (Scale.arm); unset flags leave the spec defaults.
    scale = dataclasses.replace(
        scale,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        force_resume=args.force_resume,
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
    )

    ids = ORDERED_IDS if args.experiment == "all" else (args.experiment,)
    for experiment_id in ids:
        started = time.perf_counter()
        report = run_experiment(experiment_id, scale)
        elapsed = time.perf_counter() - started
        print(report.text())
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
        if args.json:
            out_dir = pathlib.Path(args.json)
            out_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "experiment": report.experiment_id,
                "title": report.title,
                "elapsed_seconds": elapsed,
                "data": report.data,
            }
            path = out_dir / f"{experiment_id}.json"
            atomic_write_text(
                path, json.dumps(payload, indent=2, default=float)
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
