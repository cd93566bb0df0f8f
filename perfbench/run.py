"""rampc benchmark: one workload per run, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload mc_closed_loop --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation.  ``--trace 1`` runs the same
units twice, untraced and then traced, reports the per-layer metrics from
the traced region and the tracing overhead from the pair, and writes the
spans to ``perfbench/out/``.  ``--smoke`` shrinks every workload to a few
operations for the self-test.  The last line of standard output is the
result object; the line before it records the environment and the digest
of the workload's outputs.  The exit code is 1 when a correctness check
fails and 2 when the checkout cannot be benchmarked.
"""
from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["mc_closed_loop", "roa_grid"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="a few operations per workload")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout read from .git, or None when it is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "rampc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".pyx"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy
    from rampc.qpsolver import active_kernel

    return {
        "kernel": active_kernel(),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in _THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure(args, problem_data):
    """End-to-end run: set up SETUP_REPS times, then run units for the budget."""
    import metrics
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        stack = workloads.Stack(problem_data, cls.needs_baseline)
        setup_times.append(time.perf_counter() - t0)
    work = cls(stack, args.seed, smoke=args.smoke)
    workloads.run_units(work, args.seconds)
    values = metrics.end_to_end(setup_times, work.units)
    return [work], values, metrics.END_TO_END, {}


def measure_traced(args, problem_data):
    """Traced run: the same units untraced and then traced, each after its own set-up."""
    import metrics
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workloads.Stack(problem_data, cls.needs_baseline)  # warm-up: both regions start equally warm

    t0 = time.perf_counter()
    plain = cls(workloads.Stack(problem_data, cls.needs_baseline), args.seed, smoke=args.smoke)
    n_units = workloads.run_units(plain, args.seconds)
    wall_plain = time.perf_counter() - t0

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        t0 = time.perf_counter()
        stack = workloads.Stack(problem_data, cls.needs_baseline)
        stack.label_solvers(tracer)
        work = cls(stack, args.seed, smoke=args.smoke)
        workloads.run_units(work, args.seconds, n_units=n_units)
        t1 = time.perf_counter()
    wall = t1 - t0
    values = metrics.per_layer(tracer.spans, work.attempted, wall, wall / wall_plain - 1.0)
    bookkeeping = metrics.self_time_failure(tracer.spans, values)
    if bookkeeping:
        work.fail("trace", bookkeeping)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / ("spans-%s-seed%d.csv" % (args.workload, args.seed))
    tracer.write_csv(spans_file, t0)
    extra = {"spans_file": str(spans_file.relative_to(ROOT)), "n_spans": len(tracer.spans),
             "traced_wall_s": wall, "untraced_wall_s": wall_plain, "units": n_units}
    return [plain, work], values, metrics.PER_LAYER, extra


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rampc" / "__init__.py").is_file():
        print("error: %s has no rampc package; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rampc

    if Path(rampc.__file__).resolve().parent != (SRC / "rampc").resolve():
        print("error: imported rampc from %s, not from this checkout" % rampc.__file__, file=sys.stderr)
        return 2
    import workloads

    env = environment(args.seed)
    run = measure_traced if args.trace else measure
    t0 = time.perf_counter()
    parts, values, catalogue, extra = run(args, workloads.load_default_problem())
    work = parts[-1]  # the measured (or traced) region
    attempted = sum(p.attempted for p in parts)
    failures = [f for p in parts for f in p.failures]
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "run_wall_s": time.perf_counter() - t0,
        "digest": work.digest,
        "digests_agree": len({p.digest for p in parts}) == 1,
        "failures": [{"op": what, "reason": why} for what, why in failures[:20]],
        "environment": env,
        **extra,
    }
    correct = not failures and info["digests_agree"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": sum(len({what for what, _ in p.failures}) for p in parts),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in catalogue},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record = {"info": info, "result": result, "latencies_ms": work.latencies_ms}
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
