"""Benchmark entry point: python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Checks that the checkout holds the ntfusion sources, then runs one benchmark
run in a child process whose environment pins the BLAS thread count to 1,
fixes the string-hash seed and leaves NT_THREADS unset, so that seeds run
serially. The child's last line of standard output is the result object;
this process adds nothing after it and exits with the child's code.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"  # at or below nproc on any machine


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("NT_THREADS", None)
    # A fixed string-hash seed: with a random one, each process lands in one
    # of two speeds of the interpreter-bound fusion paths, 35% apart.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="ntfusion source tree to measure (compare.py points it at a parent)")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    if not (src / "ntfusion" / "__init__.py").is_file():
        print(f"error: no ntfusion sources under {src}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--src", str(src)]
    try:
        done = subprocess.run(cmd, env=child_env(src), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
