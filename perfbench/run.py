"""damplab benchmark: one workload, whole rounds for ``--seconds``, one JSON line.

    python3 perfbench/run.py --workload large_grid --seed 3 --seconds 10 --trace 0

Run from the root of a damplab checkout (``src/damplab`` and ``models/``
must exist; the program runs from source).  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics, with ``--trace 1``
the per-layer ones, as listed in ``BENCHMARK.json``; the lines before it
print the same figures by name, the environment, per-kind operation
times, failed operations and failed checks.  Outputs and traces go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is timed this many times in fresh interpreters; the runner has
#: imported damplab already, so the file cache is warm.
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1,
                        help="BLAS threads of this run and its children "
                        "(0: the library default)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def configure(blas_threads):
    """Fix the BLAS thread count and the import path before numpy loads."""
    for var in BLAS_VARS:
        if blas_threads:
            os.environ[var] = str(blas_threads)
        else:
            os.environ.pop(var, None)
    src = os.path.abspath("src")
    os.environ["PYTHONPATH"] = src
    sys.path[:0] = [src, HERE]


def setup_seconds(args):
    """Median wall time from a fresh interpreter to the first operation."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--blas-threads", str(args.blas_threads)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.time()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def environment(blas_threads):
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "blas_threads": blas_threads or "library default",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "damplab", "__init__.py")) or not os.path.isdir("models"):
        print("run from the root of a damplab checkout: src/damplab and models/ "
              "are missing", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"unknown workload {args.workload!r}; one of {workload_names}",
              file=sys.stderr)
        return 2
    configure(args.blas_threads)
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-{os.getpid()}")

    try:
        import workloads as wl  # imports damplab

        workload = wl.build(args.workload, args.seed, os.path.join(out_dir, "cli"))
        if args.setup_only:
            print(time.time())
            return 0
        return measure(args, spec, wl, workload, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def measure(args, spec, wl, workload, out_dir):
    from tracing import NullTracer, Tracer, overhead_s

    setup = None if args.trace else setup_seconds(args)
    env = environment(args.blas_threads)
    workload.references()
    tracer = Tracer() if args.trace else NullTracer()
    runner = wl.Runner(tracer)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < args.seconds:
        workload.round(runner)
        rounds += 1

    records = runner.records
    attempted = sum(r.count for r in records)
    failed = sum(r.failed for r in records)
    # Each operation of the list counts with its median over the rounds, so
    # a burst of load on the machine moves one sample, not the figure.
    labels = {}
    for r in records:
        labels.setdefault(r.label, []).append(r)
    round_s = sum(statistics.median([r.seconds for r in rs]) for rs in labels.values())
    round_ok = sum(statistics.median([r.count - r.failed for r in rs]) for rs in labels.values())
    ops_per_s = round_ok / round_s
    kinds = {}
    for r in records:
        if not r.failed:
            kinds.setdefault(r.kind, []).append(r.seconds / r.count)

    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds: {rounds}  attempted: {attempted}  failed: {failed}")
    for kind, values in kinds.items():
        print(f"{kind}_s = {statistics.median(values):.6g} s  (median of {len(values)})")
    for label, rs in labels.items():
        times = " ".join(f"{r.seconds:.4g}" for r in rs)
        print(f"op {label}: {times} s")
    for label, message in runner.failures.items():
        print(f"failed: {label}: {message}")
    for problem in runner.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if args.trace:
        import layers

        metrics = layers.measure(args.seed, os.path.join(out_dir, "layers"), tracer)
        op_seconds = sum(r.seconds for r in records)
        metrics["trace.overhead_share"] = overhead_s(tracer) / op_seconds
        metrics["trace.ops_per_s"] = ops_per_s
        os.makedirs(OUT_ROOT, exist_ok=True)
        path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(path, {"environment": env, "layers": metrics})
        print(f"trace: {path}  ({len(tracer.spans)} spans)")
        for name, seconds in sorted(tracer.self_times().items(), key=lambda kv: -kv[1]):
            print(f"self {name} = {seconds:.6g} s")
        listed = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": peak_rss_kb(workload) / 1024.0,
            "ops_per_s": ops_per_s,
        }
        listed = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }))
    return 0


def peak_rss_kb(workload):
    """Largest resident set: of the CLI children for cli_bundled, else of this process."""
    child = getattr(workload, "peak_rss_kb", None)
    return child if child else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    sys.exit(main())
