"""Benchmark of the rbu library: end-to-end and per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload rbu-large --seed 0 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``rbu-large``, ``sweep-final`` and
``resample-large``.  Each run is a closed loop: one client in one process
issues a pass of the workload, waits for it, and issues the next until
``--seconds`` have gone by and at least ``MIN_PASSES`` passes are done.

With ``--trace 0`` the run reports the end-to-end metrics ``setup_s``,
``wall_s``, ``cpu_s`` and ``peak_rss_mb``.  With ``--trace 1`` it patches
span recorders onto the library's module boundaries (``tracing.py``) and
reports the per-layer metrics; traced passes alternate with untraced ones,
so the tracing overhead is measured too.  Every workload runs in this one
process (jobs = 1); BLAS gets ``nproc`` threads, set before numpy loads.

The library is imported from ``src/`` of the checkout the script sits in.
Every output is checked (golden digests for the default seed, oracles and
invariants for any seed).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"

WORKLOADS = ("rbu-large", "sweep-final", "resample-large")
MIN_PASSES = 3
SETUP_REPEATS = 3
# Imports timed again in fresh interpreters, so that set-up is a median too.
IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import rbu, workloads\n"
    "sys.stdout.write(repr(time.perf_counter() - start))\n"
)
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_block(blas_threads: str) -> dict:
    import numpy
    import scipy

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        **dict(sorted(caches.items())),
        "blas": blas_version,
        "blas_threads": int(blas_threads),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed(fn, *args):
    """(wall seconds, CPU seconds of this process and its children, result)."""
    cpu, start = _cpu_seconds(), time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return wall, _cpu_seconds() - cpu, result


def peak_rss_mb() -> float:
    """Peak RSS of this process, which runs every pass (no pool workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_import_s() -> float:
    """Import time of the library and the workloads in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not (SRC / "rbu" / "__init__.py").is_file():
        print(f"error: no rbu package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import rbu
    import tracing
    import workloads

    import_s = time.perf_counter() - started
    if not Path(rbu.__file__).resolve().is_relative_to(SRC):
        print(f"error: rbu imported from {rbu.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    checker = workloads.Checker(workloads.load_golden(args.workload, args.seed))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        imports = [import_s] + [probe_import_s() for _ in range(SETUP_REPEATS - 1)]
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            inputs = workload.prepare(args.seed, workdir)
            workload.warm_up(inputs)
            setups.append(time.perf_counter() - start)

        def one_pass(tracer=None):
            wall, cpu, outputs = timed(workload.run_pass, inputs, checker, tracer)
            workload.check(inputs, outputs, checker)
            return wall, cpu

        clock = time.perf_counter()
        untraced = [one_pass()]
        traced, tracer = [], None
        if args.trace:
            tracer = tracing.Tracer()
            while not traced or time.perf_counter() - clock < args.seconds:
                tracing.install(tracer)
                try:
                    traced.append(one_pass(tracer))
                finally:
                    tracer.unpatch()
                if len(untraced) < len(traced):
                    untraced.append(one_pass())
        else:
            while (len(untraced) < MIN_PASSES
                   or time.perf_counter() - clock < args.seconds):
                untraced.append(one_pass())
        final_checks = getattr(workload, "final_checks", None)
        if final_checks is not None:
            final_checks(inputs, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [w for w, _ in untraced]
    cpus = [c for _, c in untraced]
    end_to_end = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
    }

    print("machine: " + json.dumps(machine_block(threads)))
    print(f"workload: {args.workload} seed={args.seed} jobs=1 "
          f"trace={args.trace} passes={len(untraced)} untraced, {len(traced)} traced")
    print(f"setup: median of {SETUP_REPEATS} imports {statistics.median(imports):.3f} s "
          f"+ median of {SETUP_REPEATS} set-ups {statistics.median(setups):.3f} s")
    print(f"wall_s: median of {len(walls)} passes "
          f"[{' '.join(f'{w:.3f}' for w in walls)}]; no tail percentile "
          "(fewer than 10 samples beyond any)")
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")

    if args.trace:
        metrics = tracing.layer_metrics(
            tracer.spans, len(traced), statistics.median(w for w, _ in traced)
        )
        metrics["evaluation.pool_busy_ratio"] = (
            statistics.median(cpus) / statistics.median(walls)
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(w for w, _ in traced) / statistics.median(walls)
        )
        SPANS.mkdir(exist_ok=True)
        span_path = SPANS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(span_path)
        print(f"spans: {len(tracer.spans)} written to {span_path.relative_to(ROOT)}")
        for name, unit in tracing.LAYER_METRICS.items():
            print(f"  {name} = {metrics[name]:.6g} {unit}")
        reported = {n: {"value": metrics[n], "unit": u} for n, u in tracing.LAYER_METRICS.items()}
    else:
        reported = {n: {"value": v, "unit": END_TO_END[n]} for n, v in end_to_end.items()}

    print(f"failed_ratio: {checker.failed}/{checker.attempted} = {checker.failed_ratio:.6g}")
    for problem in checker.problems:
        print(f"  failed: {problem}")
    if checker.golden:
        print(f"digests: checked against golden for seed {args.seed}")
    print("digests: " + json.dumps(checker.digests, sort_keys=True))
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
