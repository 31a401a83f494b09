#!/usr/bin/env python
"""Chaos smoke: fault-injected determinism + kill-and-resume, end to end.

Three short scenarios exercise the resilience contract (ROADMAP.md) the
way an unlucky user would hit it:

1. **Fault determinism** — a fault-injected sweep (transient errors,
   hangs, flaky crashes, corrupted measurements at ``--fault-rate 0.3``)
   runs twice and must produce byte-identical trajectories, and a
   zero-rate run must match a plain run byte-for-byte.

2. **Kill and resume** — a checkpointing CLI session is killed with
   SIGKILL as soon as its first checkpoint file appears; a ``--resume``
   run then continues it, and the combined knowledge base must equal an
   uninterrupted run's exactly (values, configurations, crash rows).

3. **Kill during appends** — the same with a checkpoint at every round,
   killed once its journal has grown past the first record, so the kill
   lands among appends (possibly inside one, leaving a torn last record
   for the resume to drop).

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py

Exit code 0 when every scenario holds.  Runs in a few seconds; CI runs it
on every forest-kernel leg after the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.tuning.runner import SessionSpec, llamatune_factory, run_spec  # noqa: E402


def check(condition: bool, label: str) -> bool:
    print(f"  {'PASS' if condition else 'FAIL'}  {label}")
    return condition


def fault_determinism() -> bool:
    print("fault-injected determinism:")
    spec = SessionSpec(
        workload="ycsb-a",
        optimizer="smac",
        adapter=llamatune_factory(target_dim=4),
        n_iterations=20,
        n_init=6,
        fault_rate=0.3,
        fault_seed=7,
    )
    a = run_spec(spec, [1, 2])
    b = run_spec(spec, [1, 2])
    ok = check(
        all(
            np.array_equal(x.values, y.values)
            and x.quarantined_at == y.quarantined_at
            and [o.crashed for o in x.knowledge_base]
            == [o.crashed for o in y.knowledge_base]
            for x, y in zip(a, b)
        ),
        "two fault-injected sweeps are byte-identical",
    )

    import dataclasses

    plain = run_spec(dataclasses.replace(spec, fault_rate=0.0), [1])[0]
    zero = run_spec(dataclasses.replace(spec, fault_rate=0.0, fault_seed=99), [1])[0]
    ok &= check(
        np.array_equal(plain.values, zero.values),
        "fault_rate=0 replays the plain trajectory regardless of fault_seed",
    )
    return ok


def _cli(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def _checkpoint_landed(ckpt_dir: pathlib.Path) -> bool:
    return any(ckpt_dir.glob("*.ckpt.json"))


def _appends_started(ckpt_dir: pathlib.Path) -> bool:
    """Bytes follow the journal's compacted first record: an append has
    begun."""
    for path in ckpt_dir.glob("*.ckpt.json"):
        parts = path.read_bytes().split(b"\n", 2)
        if len(parts) == 3 and parts[2]:
            return True
    return False


def kill_and_resume(label: str, every: int, ready) -> bool:
    """Run a checkpointing CLI victim (a checkpoint every ``every``
    iterations), SIGKILL it once ``ready(ckpt_dir)`` holds, resume it,
    and compare the result with an uninterrupted run."""
    print(f"{label}:")
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        ":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_dir = pathlib.Path(tmp) / "ckpt"
        base = [
            "--workload", "ycsb-a", "--optimizer", "smac",
            "--iterations", "40", "--seed", "1", "--dim", "4", "--no-plot",
        ]
        checkpointing = [
            "--checkpoint-every", str(every), "--checkpoint-dir", str(ckpt_dir),
        ]

        # Uninterrupted reference run.
        reference = pathlib.Path(tmp) / "reference.json"
        proc = _cli([*base, "--kb-out", str(reference)], env)
        if proc.wait() != 0:
            return check(False, "reference run completed")

        # The victim, SIGKILLed as soon as ``ready`` holds (a session
        # this short may win the race and exit first — resuming a
        # finished run is then a no-op, which the comparison below still
        # verifies).
        victim = _cli([*base, *checkpointing], env)
        deadline = time.monotonic() + 60.0
        killed = False
        while time.monotonic() < deadline:
            if ready(ckpt_dir):
                if victim.poll() is None:
                    victim.send_signal(signal.SIGKILL)
                    killed = True
                break
            if victim.poll() is not None:
                break
            time.sleep(0.001)
        victim.wait()
        checkpoints = list(ckpt_dir.glob("*.ckpt.json"))
        ok = check(bool(checkpoints), "a checkpoint survived the kill")
        state = "killed mid-run" if killed else "finished before the kill"
        if checkpoints:
            data = checkpoints[0].read_bytes()
            records = data.count(b"\n") - 1
            torn = "" if data.endswith(b"\n") else " and a torn one"
            plural = "" if records == 1 else "s"
            state += f"; {records} complete record{plural}{torn}"
        print(f"        (victim {state})")
        if not ok:
            return False

        # Resume to the full budget and compare against the reference.
        resumed = pathlib.Path(tmp) / "resumed.json"
        proc = _cli(
            [*base, *checkpointing, "--resume", "--kb-out", str(resumed)],
            env,
        )
        if proc.wait() != 0:
            return check(False, "resumed run completed")

        ref = json.loads(reference.read_text())
        res = json.loads(resumed.read_text())

        def rows(payload):
            # suggest_seconds is wall-clock timing — the only observation
            # field that is *supposed* to differ between runs.
            return [
                {k: v for k, v in o.items() if k != "suggest_seconds"}
                for o in payload["observations"]
            ]

        ok &= check(
            rows(ref) == rows(res),
            "resumed knowledge base equals the uninterrupted run's "
            f"({len(res['observations'])} observations)",
        )
        ok &= check(
            ref["default_value"] == res["default_value"],
            "default measurement matches",
        )
        return ok


def main() -> int:
    ok = fault_determinism()
    ok &= kill_and_resume("kill-and-resume", 5, _checkpoint_landed)
    ok &= kill_and_resume("kill-during-appends", 1, _appends_started)
    print("chaos smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
