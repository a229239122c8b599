"""Smoke test of the claims gate (`scripts/claims.py`) on shrunk copies of
the committed specs."""

import importlib.util
import json
from pathlib import Path

import pytest

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


def test_committed_specs_cover_every_claim(gate_run):
    names = {p.name for p in (ROOT / "claims").glob("*.json")}
    assert {spec for spec, _ in gate_run[0].CLAIMS.values()} == names


def test_every_claim_recorded_per_seed(gate_run):
    gate, _, out, _ = gate_run
    claims = json.loads(out.read_text())["claims"]
    assert list(claims) == list(gate.CLAIMS)
    assert len(claims) == 10
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
