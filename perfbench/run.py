"""Benchmark of the ryddephase CLI: closed-loop workloads, end-to-end metrics,
and an outside-in per-layer trace.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one CLI invocation built
from the seed (workloads.py), launched in a fresh process again and again,
one at a time, for about S seconds; every invocation's outputs are checked
(check.py).  With --trace 0 the last stdout line holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a run that alternates untraced and
traced invocations (tracer.py, spans.py).  Metric names and units are those of
BENCHMARK.json.  A line before it records the environment.

The benchmark sets no environment variable for the program: BLAS thread
counts and the pool start method are whatever the machine gives, and are
recorded.
"""

import argparse
import ctypes
import itertools
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import spans
from workloads import POOL_SIZE, WORKLOADS, pair_points

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the checkout root, where the driver runs the command
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 3  # import-only launches per run, on top of one per invocation
INVOCATION_TIMEOUT_S = 120  # keeps a run within 180 s even if its last invocation hangs


def now_s() -> float:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC) / 1e9


class Invocation:
    """One CLI process: timings from launch to exit, resource use, check result."""

    def __init__(self, rc, wall_s, setup_s, rusage, problems):
        self.rc = rc
        self.wall_s = wall_s
        self.setup_s = setup_s
        self.peak_rss_mb = rusage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.problems = problems

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


def launch(run_dir: Path, cli_args: list, spans_dir=None) -> tuple:
    """Run entry.py once; returns (exit code, wall s, setup s, rusage).

    os.wait4 gives the resource use of this process and of every worker it
    reaped, and of nothing launched earlier.
    """
    ready = run_dir / "ready"
    ready.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "entry.py"), str(SRC), str(ready), str(spans_dir or "-")]
    with open(run_dir / "stdout", "w") as out, open(run_dir / "stderr", "w") as err:
        t0 = now_s()
        proc = subprocess.Popen(argv + cli_args, stdout=out, stderr=err, cwd=ROOT, start_new_session=True)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = now_s() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        setup = int(ready.read_text()) / 1e9 - t0
    except (OSError, ValueError):
        setup = wall
    return proc.returncode, wall, setup, rusage


class Runner:
    """Runs one workload's invocations inside WORK_DIR and checks their outputs."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.cfg = workload.config(seed)
        self.reference = check.load_reference(workload.name, seed % POOL_SIZE)
        self.run_dir = run_dir
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2))
        self.out_dir = run_dir / "out"
        self.pair_points = pair_points(workload.subcommand, self.cfg)

    def probe(self) -> float:
        rc, _, setup, _ = launch(self.run_dir, [])
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}: {(self.run_dir / 'stderr').read_text()[-2000:]}")
        return setup

    def invoke(self, spans_dir=None) -> Invocation:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        args = self.workload.cli_args(self.config_path, self.out_dir)
        rc, wall, setup, rusage = launch(self.run_dir, args, spans_dir)
        if rc != 0:
            problems = [f"exit code {rc}: {(self.run_dir / 'stderr').read_text()[-2000:]}"]
        else:
            problems = check.check_outputs(self.workload, self.cfg, self.out_dir, self.reference)
        for problem in problems:
            print(f"{self.workload.name}: {problem}", file=sys.stderr)
        return Invocation(rc, wall, setup, rusage, problems)


def closed_loop(step, seconds: float, started: float) -> list:
    """Call step() one at a time until another call would end past the budget."""
    results = [step()]
    while now_s() - started + statistics.median(r.wall_s for r in results) <= seconds:
        results.append(step())
    return results


def end_to_end(runner: Runner, seconds: float) -> tuple:
    started = now_s()
    setups = [runner.probe() for _ in range(SETUP_PROBES)]
    runs = closed_loop(runner.invoke, seconds, started)
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "setup_s": statistics.median(setups + [r.setup_s for r in runs]),
        "pair_points_per_s": statistics.median(runner.pair_points / (r.wall_s - r.setup_s) for r in runs),
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "ok_frac": sum(r.ok for r in runs) / len(runs),
    }
    return runs, metrics


class TracedPair:
    """An untraced invocation followed by a traced one, and the traced spans."""

    def __init__(self, runner: Runner, index: int):
        self.plain = runner.invoke()
        spans_dir = runner.run_dir / f"spans{index}"
        spans_dir.mkdir()
        self.traced = runner.invoke(spans_dir)
        self.missing = json.loads((spans_dir / "missing.json").read_text())
        recorded = spans.load(spans_dir)
        main_pid = next((s["pid"] for s in recorded if s["name"] == "cli.main"), None)
        self.layers = spans.layer_metrics(recorded, main_pid)
        self.wall_s = self.plain.wall_s + self.traced.wall_s


def traced(runner: Runner, seconds: float) -> tuple:
    started = now_s()
    counter = itertools.count()
    pairs = closed_loop(lambda: TracedPair(runner, next(counter)), seconds, started)
    for name in pairs[0].missing:
        print(f"tracer: {name} not found; its layer reads 0", file=sys.stderr)
    # median_low keeps a count an int that some traced invocation really reported
    metrics = {name: statistics.median_low(p.layers[name] for p in pairs) for name in pairs[0].layers}
    plain_wall = statistics.median(p.plain.wall_s for p in pairs)
    traced_wall = statistics.median(p.traced.wall_s for p in pairs)
    traced_setup = statistics.median(p.traced.setup_s for p in pairs)
    main_s = metrics.pop("trace.main_s")
    metrics.update(
        {
            "process.cpu_s": statistics.median(p.plain.cpu_s for p in pairs),
            "process.cpu_per_wall": statistics.median(p.plain.cpu_s / p.plain.wall_s for p in pairs),
            "trace.wall_s": traced_wall,
            "trace.setup_s": traced_setup,
            "trace.unattributed_s": traced_wall - traced_setup - main_s,
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        }
    )
    runs = [r for p in pairs for r in (p.plain, p.traced)]
    return runs, metrics


def _blas_threads() -> int | None:
    """Default thread count of the OpenBLAS that numpy loaded, if it is one."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy  # only after measuring: its BLAS threads then never compete with the program

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "start_method": multiprocessing.get_start_method(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ryddephase" / "cli.py").is_file():
        print(f"no ryddephase sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, run_dir)
        measure = traced if args.trace else end_to_end
        runs, values = measure(runner, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"env": environment(), "workload": workload.name, "seed": args.seed}))
    failed = sum(not r.ok for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
