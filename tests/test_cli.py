"""CLI dispatch tests: exit codes, subcommand plumbing, output determinism."""

import json

import pytest

from ntfusion import network as nw
from ntfusion.checkpoint import load_checkpoint, save_checkpoint
from ntfusion.cli import cli_dispatch
from ntfusion.tensor import RngStream


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "train.json").write_text(json.dumps({
        "dataset": {"kind": "blobs", "n": 300, "classes": 3, "dim": 4,
                    "spread": 0.5, "seed": 5},
        "arch": {"type": "mlp", "in_features": 4, "hidden": [16], "classes": 3},
        "train": {"epochs": 2, "lr": 0.05, "batch": {"batch_size": 32}},
        "seed": 1,
    }))
    (tmp_path / "data.json").write_text(json.dumps(
        {"kind": "blobs", "n": 300, "classes": 3, "dim": 4, "spread": 0.5, "seed": 5}))
    return tmp_path


def run(args):
    return cli_dispatch([str(a) for a in args])


class TestExitCodes:
    def test_fuse_single_input_is_usage_error(self, workdir, capsys):
        assert run(["train", "--spec", workdir / "train.json",
                    "--out", workdir / "a.ckpt"]) == 0
        code = run(["fuse", "--method", "nt", "--in", workdir / "a.ckpt",
                    "--out", workdir / "x.ckpt"])
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["eval", "--nope", "x"]) == 1

    def test_fuse_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        specs = [nw.linear(4, 6), nw.relu(), nw.linear(6, 3)]
        paths = [tmp_path / f"m{i}.ckpt" for i in range(2)]
        for i, path in enumerate(paths):
            save_checkpoint(nw.init_network(specs, RngStream(i, "init")), path)
        blob = bytearray(paths[1].read_bytes())
        blob[20] = 0xFF  # inside the JSON header: no longer UTF-8
        paths[1].write_bytes(bytes(blob))
        code = run(["fuse", "--method", "nt", "--in", *paths, "--out", tmp_path / "f.ckpt"])
        assert code == 2
        assert "checkpoint header" in capsys.readouterr().err

    def test_runtime_error_is_exit_2(self, workdir, capsys):
        bad = workdir / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        assert run(["eval", "--in", bad, "--data", workdir / "data.json"]) == 2

    def test_prune_needs_exactly_one_policy(self, workdir):
        assert run(["train", "--spec", workdir / "train.json",
                    "--out", workdir / "a.ckpt"]) == 0
        assert run(["prune", "--in", workdir / "a.ckpt", "--out", workdir / "p.ckpt"]) == 1
        assert run(["prune", "--in", workdir / "a.ckpt", "--sparsity", "0.5",
                    "--keep-counts", "8", "--out", workdir / "p.ckpt"]) == 1


class TestPlumbing:
    def test_avg_of_identical_checkpoints_keeps_accuracy(self, workdir, capsys):
        assert run(["train", "--spec", workdir / "train.json",
                    "--out", workdir / "a.ckpt"]) == 0
        assert run(["eval", "--in", workdir / "a.ckpt",
                    "--data", workdir / "data.json"]) == 0
        member = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert run(["fuse", "--method", "avg", "--in", workdir / "a.ckpt",
                    workdir / "a.ckpt", "--out", workdir / "avg.ckpt"]) == 0
        assert run(["eval", "--in", workdir / "avg.ckpt",
                    "--data", workdir / "data.json"]) == 0
        fused = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert fused["accuracy"] == member["accuracy"]

    def test_nt_fuse_and_prune_roundtrip(self, workdir, capsys):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        spec2 = json.loads((workdir / "train.json").read_text())
        spec2["seed"] = 2
        (workdir / "train2.json").write_text(json.dumps(spec2))
        run(["train", "--spec", workdir / "train2.json", "--out", workdir / "b.ckpt"])
        assert run(["fuse", "--method", "nt", "--in", workdir / "a.ckpt",
                    workdir / "b.ckpt", "--out", workdir / "nt.ckpt"]) == 0
        net, _ = load_checkpoint(workdir / "nt.ckpt")
        member, _ = load_checkpoint(workdir / "a.ckpt")
        assert net.arch_id == member.arch_id
        assert run(["prune", "--in", workdir / "a.ckpt", "--sparsity", "0.5",
                    "--out", workdir / "small.ckpt"]) == 0
        small, _ = load_checkpoint(workdir / "small.ckpt")
        assert small.specs[1].dims == (4, 8)

    def test_distill_subcommand(self, workdir, capsys):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        assert run(["distill", "--student", workdir / "a.ckpt",
                    "--teachers", workdir / "a.ckpt", workdir / "a.ckpt",
                    "--data", workdir / "data.json", "--temperature", "2",
                    "--soft-weight", "1", "--epochs", "1",
                    "--out", workdir / "kd.ckpt"]) == 0
        assert (workdir / "kd.ckpt").exists()

    def test_inline_json_data_descriptor(self, workdir, capsys):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        desc = (workdir / "data.json").read_text()
        assert run(["eval", "--in", workdir / "a.ckpt", "--data", desc]) == 0


class TestExperimentCommand:
    def exp_doc(self):
        return {
            "name": "cli-exp", "experiment": "pipeline",
            "dataset": {"kind": "blobs", "n": 300, "classes": 3, "dim": 4,
                        "spread": 0.5, "seed": 5},
            "arch": {"type": "mlp", "in_features": 4, "hidden": [16], "classes": 3},
            "k": 2, "seeds": [1, 2],
            "train": {"epochs": 2, "lr": 0.05, "batch": {"batch_size": 32}},
            "plan": {"method": "nt",
                     "finetune": {"epochs": 2, "lr": 0.05, "batch": {"batch_size": 32}}},
        }

    def test_outputs_and_determinism(self, workdir, capsys):
        (workdir / "exp.json").write_text(json.dumps(self.exp_doc()))
        assert run(["experiment", "--spec", workdir / "exp.json",
                    "--out", workdir / "r1"]) == 0
        assert run(["experiment", "--spec", workdir / "exp.json",
                    "--out", workdir / "r2"]) == 0
        for name in ("report.csv", "report.json"):
            assert (workdir / "r1" / name).read_bytes() == \
                (workdir / "r2" / name).read_bytes()

    def test_report_rerender_formats(self, workdir, capsys):
        (workdir / "exp.json").write_text(json.dumps(self.exp_doc()))
        run(["experiment", "--spec", workdir / "exp.json", "--out", workdir / "r"])
        assert run(["report", "--in", workdir / "r", "--format", "svg"]) == 0
        svg = (workdir / "r" / "report.svg").read_text()
        assert svg.count("<polyline") == 1
        assert run(["report", "--in", workdir / "r", "--format", "csv"]) == 0
        from ntfusion.reporting import read_csv

        rows = read_csv(workdir / "r" / "report.csv")
        assert any(m == "immediate_acc" for (_, _, _, _, m, _) in rows)


def small_spec():
    return {
        "name": "bad-spec", "experiment": "pipeline",
        "dataset": {"kind": "blobs", "n": 60, "classes": 3, "dim": 4,
                    "spread": 0.5, "seed": 5},
        "arch": {"type": "mlp", "in_features": 4, "hidden": [8], "classes": 3},
        "k": 2, "seeds": [1], "train": {"epochs": 1}, "finetune_epochs": 0,
    }


def conv_spec():
    doc = small_spec()
    doc["dataset"] = {"kind": "shapes", "n": 40, "classes": 4, "image": 8, "seed": 2}
    doc["arch"] = {"type": "convnet", "image_hw": [8, 8], "in_channels": 1,
                   "conv_channels": [2], "classes": 4}
    return doc


REQUIRED = [("name",), ("dataset",), ("arch",), ("dataset", "n"), ("dataset", "classes"),
            ("dataset", "dim"), ("dataset", "spread"), ("dataset", "seed"),
            ("arch", "in_features"), ("arch", "hidden"), ("arch", "classes")]
CONV_REQUIRED = [("arch", "image_hw"), ("arch", "in_channels"), ("arch", "conv_channels"),
                 ("arch", "classes"), ("dataset", "n"), ("dataset", "seed")]
WRONG_TYPES = [(("name",), 5), (("dataset",), "blobs"), (("arch",), ["mlp"]),
               (("dataset", "n"), "60"), (("dataset", "spread"), True),
               (("arch", "hidden"), 8), (("arch", "hidden"), ["8"]), (("arch", "classes"), 2.5),
               (("k",), "2"), (("seeds",), 1), (("train",), []), (("train", "epochs"), "1"),
               (("train", "batch"), 32), (("plan",), 3), (("plan", "sparsity"), "half"),
               (("finetune_epochs",), 1.5)]


def edited(doc, path, value=None, drop=False):
    target = doc
    for key in path[:-1]:
        target = target.setdefault(key, {})
    if drop:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


class TestBadSpec:
    def run_spec(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code = run(["experiment", "--spec", spec, "--out", tmp_path / "out"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("make", [small_spec, conv_spec])
    def test_valid_specs_run(self, tmp_path, capsys, make):
        assert self.run_spec(tmp_path, capsys, make()) == (0, "")

    @pytest.mark.parametrize("path", REQUIRED, ids="/".join)
    def test_missing_key_exits_2(self, tmp_path, capsys, path):
        code, err = self.run_spec(tmp_path, capsys, edited(small_spec(), path, drop=True))
        assert code == 2 and err.startswith("error:") and repr(path[-1]) in err

    @pytest.mark.parametrize("path", CONV_REQUIRED, ids="/".join)
    def test_missing_conv_key_exits_2(self, tmp_path, capsys, path):
        code, err = self.run_spec(tmp_path, capsys, edited(conv_spec(), path, drop=True))
        assert code == 2 and err.startswith("error:") and repr(path[-1]) in err

    @pytest.mark.parametrize("path,value", WRONG_TYPES,
                             ids=[f"{'/'.join(p)}={v!r}" for p, v in WRONG_TYPES])
    def test_wrong_type_exits_2(self, tmp_path, capsys, path, value):
        code, err = self.run_spec(tmp_path, capsys, edited(small_spec(), path, value))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("doc", [
        {"dataset": {"kind": "blobs"}, "arch": {"type": "mlp"}},
        "[1, 2]",
        "{not json",
    ])
    def test_malformed_documents_exit_2(self, tmp_path, capsys, doc):
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("error:")

    def test_train_spec_without_dataset_exits_2(self, workdir, capsys):
        doc = json.loads((workdir / "train.json").read_text())
        del doc["dataset"]
        (workdir / "train.json").write_text(json.dumps(doc))
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_csv_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c,d,label\n0.5,1.5,2.5,3.5,0\n0.5,1.5,oops,3.5,1\n")
        doc = small_spec()
        doc["dataset"] = {"kind": "csv", "path": str(data)}
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith(f"error: {data}:3:")
