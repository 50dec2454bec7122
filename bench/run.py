"""coupledrec benchmark: one workload, one process, one operation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  The loop is closed: a single
caller runs one operation, checks it, and only then starts the next.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``: median seconds per operation over the timed window;
* ``setup_s``: median seconds to build the workload's inputs, over repeats;
* ``final_energy``: objective at the returned solution, evaluated by the
  benchmark (summed over a sweep's solves);
* ``peak_mem_mb``: peak traced heap (tracemalloc) during one operation.

``--trace 1`` runs half the window untraced and half traced, and prints the
per-layer metrics of ``layers.py`` plus the tracing overhead.  Spans are
written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS is pinned to
one thread before numpy is imported: every hot kernel of the library is
single-threaded, and a second OpenBLAS thread made small reductions slower
and erratic.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"

# Set-up is timed this many times (at least) and for at least this long.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPS = 200


def _import_library():
    if not (SRC / "coupledrec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'coupledrec'} not found; run from a coupledrec source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import coupledrec

    if Path(coupledrec.__file__).resolve().parent != SRC / "coupledrec":
        sys.exit(f"error: imported coupledrec from {coupledrec.__file__}, not from {SRC}")


def _blas_threads() -> dict:
    import numpy
    import scipy

    out = {}
    for mod in (numpy, scipy):
        libs = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    out[mod.__name__] = fn()
                    break
    return out


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or commit
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_pin": "OPENBLAS/OMP/MKL/BLIS_NUM_THREADS=1 set before numpy import",
        "commit": commit,
    }


class Runner:
    """Runs operations on one input and checks every result."""

    def __init__(self, workload, inputs):
        self.wl = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.first = None  # result of the first operation that returned
        self.fingerprint = None

    def op(self, tracer=None) -> float | None:
        """Run and check one operation; returns its seconds, None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.wl.run(self.inputs)
        except Exception:  # a failing operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        with tracer.suspended() if tracer is not None else contextlib.nullcontext():
            problems = self.wl.failures(self.inputs, result)
            fp = self.wl.fingerprint(result)
        if self.first is None:
            self.first, self.fingerprint = result, fp
        elif fp != self.fingerprint:
            problems.append("result differs bitwise from an earlier run of the same input")
        if problems:
            print(f"# FAILED operation {self.attempted}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return elapsed

    def window(self, seconds: float, min_ops: int = 1, tracer=None) -> list[float]:
        """Run operations until the next one would end after `seconds`."""
        times: list[float] = []
        start = time.perf_counter()
        ops = 0
        while True:
            if tracer is not None:
                tracer.op = ops + 1
            t = self.op(tracer)
            ops += 1
            if t is not None:
                times.append(t)
            used = time.perf_counter() - start
            typical = statistics.median(times) if times else used / ops
            if ops >= min_ops and used + typical > seconds:
                return times


def _timed_setups(workload, seed: int) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_SECONDS
    ):
        t0 = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times


def _tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return f"n={n}: too few samples for a tail percentile"
    s = sorted(times)
    return f"n={n}: p{100 * (n - 10) / n:.0f} = {s[n - 11]:.6f} s (10 samples above)"


def measure(workload, seed: int, seconds: float) -> tuple[Runner, dict]:
    setup_times = _timed_setups(workload, seed)
    runner = Runner(workload, workload.setup(seed))
    tracemalloc.start()
    runner.op()  # untimed warm-up, also the peak-memory sample
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times = runner.window(seconds)
    energy = workload.energy(runner.inputs, runner.first) if runner.first else float("nan")
    print(f"# wall_s samples: {_tail(times)}; " + " ".join(f"{t:.4f}" for t in times))
    print(f"# setup_s samples: n={len(setup_times)}")
    return runner, {
        "wall_s": (statistics.median(times) if times else float("nan"), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "final_energy": (energy, "objective"),
        "peak_mem_mb": (peak / 2**20, "MB"),
    }


def measure_traced(workload, seed: int, seconds: float) -> tuple[Runner, dict]:
    import layers
    from tracing import Tracer

    runner = Runner(workload, workload.setup(seed))
    runner.op()  # untimed warm-up
    untraced = runner.window(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(seed)  # traced set-up, operation 0
        traced = runner.window(seconds / 2, min_ops=len(untraced), tracer=tracer)
    finally:
        tracer.uninstall()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace_{workload.name}_seed{seed}.npz"
    tracer.save(path)
    print(f"# {len(tracer.start)} spans written to {path.relative_to(ROOT)}")
    units = layers.metric_units()
    values = layers.compute(tracer, untraced, traced)
    return runner, {name: (values[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(_environment(), sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# why: {workload.why}")

    if args.trace:
        runner, metrics = measure_traced(workload, args.seed, args.seconds)
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        runner, metrics = measure(workload, args.seed, args.seconds)
        expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        sys.exit(f"error: metrics {sorted(metrics)} do not match {spec_path.name} {sorted(expected)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.9g} {unit}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
