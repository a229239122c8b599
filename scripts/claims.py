"""The paper's claims, measured from the experiment specs in `claims/`.

Every spec runs in memory through `ntfusion.experiments.run_spec`, which
writes no report files. A claim is one margin per seed, read from the
reports, and it holds iff its mean margin is > 0. `BENCH_claims.json` records
per claim the spec, seeds, margins (rounded to 1e-6), mean, `wins` (margins
> 0) and `holds`. The gate records and does not judge: it exits 0 when a
claim fails. It writes no wall time, so reruns write identical bytes.

Specs (dataset seed 93, seeds 1-5, momentum 0.9, batch 64, no LR schedule):
- compare.json: NT, averaging and align (member 1 matched to anchor member 0,
  the exact OT fusion of Singh & Jaggi, arXiv 1910.05653, for equal widths) of
  two MLPs 16-3x64-10 trained 25 epochs at lr 0.05 on 2400 blobs, then 30
  fine-tune epochs at lr 0.01 (epoch 3 of these is a 3-epoch fine-tune).
- sweep.json: `transplant_fraction` p in {0, 0.5, 1}, MLPs 16-64-10, 3 epochs.
- multimodel.json: joint and iterative NT of k in {2, 4, 8} MLPs 16-3x256-10.
- failure.json: NT of an MLP 12-3x64-6 with its copy on 1600 blobs, tuned 3
  epochs; recovery may end 0.01 below the member.

Rerun from the repo root: `python scripts/claims.py [SPEC_DIR [OUT_PATH]]`.
"""

import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread unless the caller chose: before numpy loads, as OpenBLAS
    # reads these once. The specs' GEMMs are too small for a second thread to
    # pay off, and it spins on them. Importers keep their own environment.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ntfusion.experiments import run_spec  # noqa: E402

RULE = "a claim holds iff the mean of its per-seed margins is > 0"
NT, AVG, ALIGN, SELF = "compare/nt", "compare/avg", "compare/align", "failure/nt_self_fusion"
IT = "nt_iterative"


def ft(rec, epoch=None) -> float:
    """Fine-tuned accuracy at `epoch`, or the best of the series."""
    series = rec.series["finetuned_acc"]
    return max(series) if epoch is None else series[epoch - 1]


def reach(rec, target: float) -> int:
    """First fine-tune epoch at or above `target`; never counts as epochs + 1."""
    series = rec.series["finetuned_acc"]
    return next((e for e, acc in enumerate(series, 1) if acc >= target), len(series) + 1)


def imm(r, k: int, method: str = "nt") -> float:
    return r[f"multimodel-k{k}/{method}"].metrics["immediate_acc"]


def best(r) -> float:
    return r[NT].metrics["best_member_acc"]


def member(r) -> float:
    return r[SELF].metrics["member_acc"]


# claim -> (spec file, margin of one seed's records keyed "experiment/method")
CLAIMS = {
    "nt_finetuned_beats_best_member": ("compare.json", lambda r: ft(r[NT]) - best(r)),
    "nt_beats_avg_after_3_epochs": ("compare.json", lambda r: ft(r[NT], 3) - ft(r[AVG], 3)),
    "nt_reaches_best_member_before_align":
        ("compare.json", lambda r: reach(r[ALIGN], best(r)) - reach(r[NT], best(r))),
    "nt_beats_align_immediately":
        ("compare.json", lambda r: r[NT].metrics["immediate_acc"]
                                   - r[ALIGN].metrics["immediate_acc"]),
    "nt_beats_align_after_1_epoch": ("compare.json", lambda r: ft(r[NT], 1) - ft(r[ALIGN], 1)),
    "transplant_half_beats_endpoints":
        ("sweep.json", lambda r: ft(r["sweep/p=0.5"], 3)
                                 - max(ft(r["sweep/p=0"], 3), ft(r["sweep/p=1"], 3))),
    "self_fusion_drops": ("failure.json", lambda r: member(r) - r[SELF].metrics["immediate_acc"]),
    "self_fusion_recovers": ("failure.json", lambda r: ft(r[SELF]) - member(r) + 0.01),
    "nt_k2_beats_k4": ("multimodel.json", lambda r: imm(r, 2) - imm(r, 4)),
    "nt_k4_beats_k8": ("multimodel.json", lambda r: imm(r, 4) - imm(r, 8)),
    "iterative_beats_joint_k4": ("multimodel.json", lambda r: imm(r, 4, IT) - imm(r, 4)),
    "iterative_beats_joint_k8": ("multimodel.json", lambda r: imm(r, 8, IT) - imm(r, 8)),
}


def main(spec_dir=ROOT / "claims", out_path=ROOT / "BENCH_claims.json") -> int:
    t0 = time.perf_counter()
    cells = {}  # spec file name -> seed -> "experiment/method" -> record
    for path in sorted(Path(spec_dir).glob("*.json")):
        by_seed = cells[path.name] = {}
        for rep in run_spec(json.loads(path.read_text(encoding="utf-8"))):
            for rec in rep.records:
                by_seed.setdefault(rec.seed, {})[f"{rep.experiment}/{rep.method}"] = rec
    claims = {}
    for name, (spec, margin) in CLAIMS.items():
        seeds = sorted(cells[spec])
        margins = [round(margin(cells[spec][s]), 6) for s in seeds]
        mean = round(sum(margins) / len(margins), 6)
        wins = sum(m > 0 for m in margins)
        claims[name] = {"spec": spec, "seeds": seeds, "margins": margins, "mean": mean,
                        "wins": wins, "holds": mean > 0}
        print(f"{name:36s} {mean:+.4f} wins {wins}/{len(seeds)} {'holds' if mean > 0 else 'fails'}")
    Path(out_path).write_text(json.dumps({"rule": RULE, "claims": claims}, indent=2) + "\n",
                              encoding="utf-8")
    print(f"wrote {out_path} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
