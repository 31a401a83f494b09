"""One benchmark process: set up, run the timed phase, check the outputs.

``run.py`` starts this script in a fresh interpreter with the thread and
hash-seed environment already in place (they must be set before numpy
loads) and reads the one JSON object it prints last.  Roles:

* ``prepare`` — compile the forest kernel if its ``.so`` is missing, so
  the timed set-up measures loading, not compiling;
* ``setup`` — set up exactly as a measured run does, then stop: one
  ``setup_s`` sample;
* ``run`` — set up, run the timed phase, check every output; with
  ``--trace`` the timing shims of ``tracing.py`` are installed.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from before `import repro`

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

#: What the benchmark process must find in its environment: single-threaded
#: BLAS/OpenMP, one wave thread, a fixed hash seed.
REQUIRED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "REPRO_WAVE_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
COMPILERS = ("cc", "gcc", "clang")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("prepare", "setup", "run"),
                        required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--work-dir", type=pathlib.Path)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def kernel_path() -> dict:
    """Which forest kernel the program will use, and whether that is the
    silent numpy fallback on a host that could compile the native one."""
    from repro.optimizers import _forest_kernel

    lib = _forest_kernel.load_kernel()
    compilers = [c for c in COMPILERS if shutil.which(c)]
    return {
        "forest_kernel": "native" if lib is not None else "numpy-fallback",
        "kernel_so": pathlib.Path(lib._name).name if lib is not None else None,
        "compilers": compilers,
        "fallback_with_compiler": lib is None and bool(compilers),
    }


def thread_count() -> int:
    """Threads of this process, native BLAS and kernel pools included
    where ``/proc`` tells."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return threading.active_count()


def environment(workload) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **kernel_path(),
        "wave_threads": workload.wave_threads(),
        "threads": thread_count(),
        "thread_env": {name: os.environ.get(name) for name in REQUIRED_ENV},
    }


def percentile(samples, q):
    import numpy

    return float(numpy.percentile(samples, q)) if samples else 0.0


def measure(args) -> dict:
    from tracing import Tracer, class_shims, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        args.seed, args.iterations, args.work_dir, tracer)
    if args.role == "setup":
        return {"setup_s": workload.run(0.0, STARTED, setup_only=True)}

    if tracer is not None:
        with class_shims(tracer):
            setup_s = workload.run(args.seconds, STARTED)
    else:
        setup_s = workload.run(args.seconds, STARTED)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment(workload)
    workload.check()

    observations = sum(r.observations for r in workload.records)
    samples, sample_counts = workload.suggest_samples_ms()
    scored = workload.scored
    out = {
        "setup_s": setup_s,
        "timed_s": workload.timed_s,
        "units": workload.units,
        "sessions": len(workload.records),
        "observations": observations,
        "iters_per_s": observations / workload.timed_s,
        "suggest_ms_p50": percentile(samples, 50),
        "suggest_ms_p90": percentile(samples, 90),
        "suggest_samples": sample_counts,
        "best_improvement_pct": 100.0 * sum(r.improvement for r in scored)
        / len(scored),
        "scored_sessions": len(scored),
        "peak_rss_mb": peak_rss_mb,
        "healthy": not any(r.failed_iterations for r in workload.records),
        "ops": workload.ops,
        "checks": [vars(c) for c in workload.checks],
        "digests": {r.key: r.digest for r in workload.records},
        "env": env,
    }
    if env["fallback_with_compiler"]:
        out["error"] = ("the native forest kernel is unavailable although a "
                        "C compiler is present: the run would measure the "
                        "numpy fallback")
    if env["threads"] != 1:
        out["error"] = (f"{env['threads']} threads after the timed phase: "
                        "the benchmark holds the load to one busy core")
    if tracer is not None:
        layers = layer_metrics(tracer, workload.timed_s, observations,
                               getattr(workload, "waves", None))
        out["layers"] = {name: list(pair) for name, pair in layers.items()}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wrong = {k: os.environ.get(k) for k, v in REQUIRED_ENV.items()
             if os.environ.get(k) != v}
    if wrong:
        print(json.dumps({"error": f"environment not prepared by run.py: {wrong}"}))
        return 2
    try:
        if args.role == "prepare":
            out = kernel_path()
            if out["fallback_with_compiler"]:
                out["error"] = "the native forest kernel failed to build"
        else:
            out = measure(args)
    except Exception:  # report any failure of the program as a failed run
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    failed = "error" in out or not out.get("healthy", True) or any(
        not c["ok"] for c in out.get("checks", ()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
