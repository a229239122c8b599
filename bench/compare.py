"""Compare two ntfusion source trees with this benchmark's code and settings.

    git archive <parent> src | tar -x -C ../parent
    python3 bench/compare.py --base ../parent/src --head src --workload mlp-distill

Runs ten pairs, seeds 1 to 10, at the run length BENCHMARK.json sets,
alternating which side goes first, and prints each
end-to-end metric's median and quartiles per side. A gain is claimed only when
the head wins at least nine tenths of the pairs and the medians differ by more
than the base's own quartile spread; a regression is a head median worse than
the base median by more than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10


def run_once(src: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0", "--src", str(src)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"run failed on {src} seed {seed}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"outputs incorrect on {src} seed {seed}:\n{done.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(metric: dict, base: list[float], head: list[float]) -> str:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    mb, mh = median(base), median(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    q = quantiles(base, n=4) if len(base) > 1 else [mb, mb, mb]
    if wins >= 0.9 * len(base) and abs(mh - mb) > q[2] - q[0] and sign * (mh - mb) > 0:
        return f"gain ({wins}/{len(base)} pairs)"
    if sign * (mh - mb) < -metric["bound"] * abs(mb):
        return "REGRESSION"
    if (q[2] - q[0]) > metric["bound"] * abs(mb):
        return "unresolved (spread above bound)"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent's src directory")
    parser.add_argument("--head", type=Path, required=True, help="change's src directory")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    values: dict[str, list[dict]] = {"base": [], "head": []}
    for seed in range(1, PAIRS + 1):
        order = ["base", "head"] if seed % 2 else ["head", "base"]
        for side in order:
            values[side].append(run_once(sides[side], args.workload, seed))
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{args.workload}: {PAIRS} pairs, {SPEC['run_seconds']} s per run")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        cols = []
        for side in ("base", "head"):
            v = [r[name] for r in values[side]]
            q = quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            cols.append(f"{side} {median(v):.6g} [{q[0]:.6g}, {q[2]:.6g}]")
        base = [r[name] for r in values["base"]]
        head = [r[name] for r in values["head"]]
        print(f"  {name:20s} {metric['unit']:6s} {cols[0]:40s} {cols[1]:40s} "
              f"{verdict(metric, base, head)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
