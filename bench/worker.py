"""One benchmark run of one workload, in the child process `run.py` starts.

Phases: timed passes until they add up to `--seconds`, each followed by the
workload's untimed `after_pass` and by a few timed set-ups; one tracemalloc
pass for `peak_mb`; output checks. Host-speed probes (`speed.py`) run between
the timed steps, and a timing metric reads the median of its samples in
reference seconds. With `--trace 1`, untraced and traced passes alternate
instead, without probes, and the result holds the per-layer metrics. The
last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from statistics import median, quantiles

from spans import Patches, Tracer, instrument, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SETUP_BUDGET_S = 0.4  # per batch of set-ups; one batch before each pass and one after the last
MIN_PASSES = 3


def _blas_info() -> dict:
    import numpy as np

    info = {"env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info["threads"] = get_threads()
                    info["config"] = get_config().decode()
                    return info
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["config"] = f"{blas.get('name')} {blas.get('version')}"
    return info


def _commit(src: Path) -> str:
    if not (src.parent / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(src.parent), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _src_digest(src: Path) -> str:
    """Names the measured code where no commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted((src / "ntfusion").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(src: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "NT_THREADS": os.environ.get("NT_THREADS"),
        "commit": _commit(src),
        "src_sha256": _src_digest(src),
    }


def timed_setups(workload, budget_s: float) -> list:
    """Set the workload up at least once and until `budget_s` has elapsed,
    probing the host's speed in between. Batches between the passes spread
    the samples over the whole run, whose speed drifts with the machine's
    other load."""
    steps = []
    start = time.perf_counter()
    while not steps or time.perf_counter() - start < budget_s:
        clock = workload.speed.start()
        workload.setup()
        steps.append(clock.stop())
        workload.speed.maybe_probe()
    return steps


class Runner:
    """Runs passes of one workload and keeps the operation tally."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        patches = Patches()
        if tracer is not None:
            instrument(tracer, patches)
        meter = getattr(self.workload, "meter", None)
        if meter is not None:
            meter.install(patches)
        try:
            result = self.workload.run_pass()
        except Exception:  # a failed operation is counted, not fatal
            self._count_failure()
            return None
        finally:
            patches.restore()
        self.attempted += result.ops
        self.failed += result.failed
        return result

    def after_pass(self) -> None:
        """The workload's untimed follow-up to a timed pass, one operation."""
        self.attempted += 1
        try:
            self.workload.after_pass()
        except Exception:
            traceback.print_exc()
            self.failed += 1

    def check(self) -> bool:
        try:
            results = self.workload.checks()
        except Exception:
            self._count_failure()
            return False
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"check failed: {name}", file=sys.stderr)
        return all(ok for _, ok in results)

    def _count_failure(self) -> None:
        traceback.print_exc()
        self.attempted += 1
        self.failed += 1


def _summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1], "q3": q[2],
            "max": max(values)}


def measure(runner: Runner, seconds: float, setup_budget_s: float):
    speed = runner.workload.speed
    speed.warm_up()
    setups = timed_setups(runner.workload, setup_budget_s)
    results = []
    while len(results) < MIN_PASSES or sum(r.wall_s for r in results) < seconds:
        result = runner.run_pass()
        if result is None:
            break
        results.append(result)
        runner.after_pass()
        setups += timed_setups(runner.workload, setup_budget_s)
    if not results:
        raise SystemExit("no pass completed")

    speed.enabled = False  # no probe arrays in the peak
    tracemalloc.start()
    try:
        runner.run_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    samples = {"setup_s": [speed.scaled(t) for t in setups],
               "wall_s": [speed.scaled(r.wall) for r in results],
               **runner.workload.extra_samples(results)}
    runner.check()
    values = {name: median(v) if v else math.nan for name, v in samples.items()}
    values["peak_mb"] = peak / 1e6
    values["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    detail = {name: _summary(v) for name, v in samples.items()}
    detail["raw_setup_s"] = _summary([t.seconds for t in setups])
    detail["raw_wall_s"] = _summary([r.wall_s for r in results])
    detail["probe_s"] = _summary([s for _, s in speed.probes])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["end_to_end"]}, detail


def measure_traced(runner: Runner, seconds: float, spans_path: Path):
    runner.workload.speed.enabled = False
    runner.workload.setup()
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < seconds:
        result = runner.run_pass()
        tracer.pass_id = len(traced)
        result_traced = runner.run_pass(tracer)
        if result is None or result_traced is None:
            break
        plain.append(result.wall_s)
        traced.append(result_traced.wall_s)
    if not traced:
        raise SystemExit("no pass completed")
    runner.check()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(spans_path)
    values = layer_metrics(tracer.spans)
    values["trace.overhead_ratio"] = median(traced) / median(plain)
    detail = {"untraced_wall_s": _summary(plain), "traced_wall_s": _summary(traced),
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    src = args.src.resolve()

    import ntfusion

    if Path(ntfusion.__file__).resolve().parent != src / "ntfusion":
        print(f"error: imported ntfusion from {ntfusion.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, args.size, run_dir)
    runner = Runner(workload)
    print(json.dumps({"env": environment(src)}))
    try:
        if args.trace:
            values, detail = measure_traced(
                runner, args.seconds, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in SPEC["per_layer"]}
        else:
            metrics, detail = measure(runner, args.seconds,
                                      SETUP_BUDGET_S if args.size == "full" else 0.0)
    finally:
        for path in sorted(run_dir.glob("*")):
            path.unlink()
        if run_dir.exists():
            run_dir.rmdir()
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
