"""Smoke test of the claims gate (`scripts/claims.py`) on shrunk copies of
the committed specs."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from ntfusion import experiments
from ntfusion.data import BatchPlan
from ntfusion.fusion import FusionPlan
from ntfusion.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    spec = importlib.util.spec_from_file_location("claims_gate", ROOT / "scripts" / "claims.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shrink(doc: dict) -> dict:
    """2 seeds, 200 rows, hidden widths of 6, 1 member epoch and 3
    fine-tune epochs (0 where the spec has 0)."""
    doc = dict(doc, seeds=[1, 2], dataset=dict(doc["dataset"], n=200),
               arch=dict(doc["arch"], hidden=[6] * len(doc["arch"]["hidden"])),
               train=dict(doc["train"], epochs=1))
    if "finetune_epochs" in doc:
        doc["finetune_epochs"] = min(doc["finetune_epochs"], 3)
    if "plan" in doc:
        ft = doc["plan"]["finetune"]
        doc["plan"] = dict(doc["plan"], finetune=dict(ft, epochs=min(ft["epochs"], 3)))
    return doc


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    spec_dir = tmp_path_factory.mktemp("claims")
    for path in sorted((ROOT / "claims").glob("*.json")):
        (spec_dir / path.name).write_text(json.dumps(shrink(json.loads(path.read_text()))))
    gate = load_gate()
    out = spec_dir.parent / "BENCH_claims.json"
    code = gate.main(spec_dir, out)
    return gate, spec_dir, out, code


def test_import_leaves_blas_threads_alone(monkeypatch):
    """Only a script run pins the BLAS threads; an importer's environment
    stays as it was."""
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas:
        monkeypatch.delenv(var, raising=False)
    load_gate()
    assert not any(var in os.environ for var in blas)


def test_committed_specs_cover_every_claim(gate_run):
    names = {p.name for p in (ROOT / "claims").glob("*.json")}
    assert {spec for spec, _ in gate_run[0].CLAIMS.values()} == names


def test_every_claim_recorded_per_seed(gate_run):
    gate, _, out, _ = gate_run
    claims = json.loads(out.read_text())["claims"]
    assert list(claims) == list(gate.CLAIMS)
    assert len(claims) == 12
    for name, claim in claims.items():
        assert claim["spec"] == gate.CLAIMS[name][0]
        assert claim["seeds"] == [1, 2]
        assert len(claim["margins"]) == 2
        assert claim["mean"] == round(sum(claim["margins"]) / 2, 6)
        assert claim["holds"] == (claim["mean"] > 0)
        assert claim["wins"] == sum(m > 0 for m in claim["margins"])


def test_gate_records_a_failing_claim_and_exits_0(gate_run):
    _, _, out, code = gate_run
    assert code == 0
    assert not all(c["holds"] for c in json.loads(out.read_text())["claims"].values())


def test_rerun_writes_identical_bytes(gate_run, tmp_path):
    gate, spec_dir, out, _ = gate_run
    again = tmp_path / "again.json"
    assert gate.main(spec_dir, again) == 0
    assert again.read_bytes() == out.read_bytes()


def budget(epochs: int, lr: float) -> TrainConfig:
    return TrainConfig(epochs=epochs, lr=lr, momentum=0.9, schedule=None,
                       batch=BatchPlan(batch_size=64, shuffle_seed=0, drop_last=False))


# What each committed spec runs: its driver and the arguments the driver
# reads, its k, seeds and members' training, and its fine-tune. A change to
# the spec reader that moves a claim's budget shows here, not only in the
# gate's margins.
COMMITTED = {
    "compare.json": ("compare_methods", {"methods": ("nt", "avg", "align"), "kd": None},
                     2, (1, 2, 3, 4, 5), budget(25, 0.05), budget(30, 0.01)),
    "failure.json": ("failure_case", {}, 2, (1, 2, 3, 4, 5), budget(20, 0.05), budget(3, 0.05)),
    "multimodel.json": ("ablation_multimodel",
                        {"ks": (2, 4, 8), "methods": ("nt", "nt_iterative")},
                        2, (1, 2, 3, 4, 5), budget(25, 0.05), budget(0, 0.05)),
    "sweep.json": ("ablation_sweep", {"axis": "transplant_fraction", "values": [0, 0.5, 1]},
                   2, (1, 2, 3, 4, 5), budget(25, 0.05), budget(3, 0.01)),
}


@pytest.mark.parametrize("name", sorted(COMMITTED))
def test_committed_specs_run_their_stated_budgets(monkeypatch, name):
    calls = []

    def recorder(driver):
        def record(*args, **kw):
            if driver == "ablation_sweep":
                axis, values, spec = args
                kw = dict(kw, axis=axis, values=values)
            else:
                (spec,) = args
            calls.append((driver, spec, kw))
            return []
        return record

    for driver in ("compare_methods", "failure_case", "ablation_multimodel", "ablation_sweep"):
        monkeypatch.setattr(experiments, driver, recorder(driver))
    experiments.run_spec(json.loads((ROOT / "claims" / name).read_text()))
    driver, arguments, k, seeds, train, finetune = COMMITTED[name]
    [(got_driver, spec, got_arguments)] = calls
    assert (got_driver, got_arguments) == (driver, arguments)
    assert (spec.k, spec.seeds, spec.train) == (k, seeds, train)
    assert spec.plan == FusionPlan(method="nt", sparsity=None, pipeline="merge_prune_ft",
                                   finetune=finetune)
