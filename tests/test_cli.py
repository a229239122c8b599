"""CLI dispatch tests: exit codes, subcommand plumbing, output determinism."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ntfusion import checkpoint, cli, experiments, reporting
from ntfusion import network as nw
from ntfusion.checkpoint import load_checkpoint, save_checkpoint
from ntfusion.cli import cli_dispatch
from ntfusion.experiments import build_arch
from ntfusion.fusion import FusionPlan, align_average, concat_fuse, fuse
from ntfusion.tensor import RngStream
from ntfusion.training import History, KdConfig
from oracles import assert_same_network
from test_data import write_idx_pair
from test_fusion import conv57_specs, make_members


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

    def test_report_is_an_unknown_subcommand(self, tmp_path, capsys):
        """`ntfuse experiment` writes every report file; no command re-renders them."""
        assert run(["report", "--in", tmp_path, "--format", "svg"]) == 1
        assert capsys.readouterr().err.startswith("usage: ntfuse")

    @pytest.mark.parametrize("method", sorted(cli._METHODS))
    def test_fuse_corrupt_checkpoint_exits_2(self, tmp_path, capsys, method):
        """The corrupt file is the last input, read last by every method."""
        specs = [nw.linear(4, 6), nw.relu(), nw.linear(6, 3)]
        paths = [tmp_path / f"m{i}.ckpt" for i in range(2 if method == "align" else 3)]
        for i, path in enumerate(paths):
            save_checkpoint(nw.init_network(specs, RngStream(i, "init")), path)
        blob = bytearray(paths[-1].read_bytes())
        blob[20] = 0xFF  # inside the JSON header: no longer UTF-8
        paths[-1].write_bytes(bytes(blob))
        code = run(["fuse", "--method", method, "--in", *paths, "--out", tmp_path / "f.ckpt"])
        assert code == 2
        assert "checkpoint header" in capsys.readouterr().err
        assert not (tmp_path / "f.ckpt").exists()

    def test_fuse_mismatched_architectures_exit_2_before_any_payload(self, tmp_path, capsys,
                                                                     monkeypatch):
        """The architectures are checked from the headers: no member is loaded."""
        paths = [tmp_path / f"m{i}.ckpt" for i in range(3)]
        for i, (path, hidden) in enumerate(zip(paths, (6, 6, 7))):
            specs = [nw.linear(4, hidden), nw.relu(), nw.linear(hidden, 3)]
            save_checkpoint(nw.init_network(specs, RngStream(i, "init")), path)
        loads = []
        for module in (checkpoint, cli):
            monkeypatch.setattr(module, "load_checkpoint",
                                lambda path: loads.append(path) or load_checkpoint(path))
        code = run(["fuse", "--method", "avg", "--in", *paths, "--out", tmp_path / "f.ckpt"])
        assert code == 2
        assert "disagree on architecture" in capsys.readouterr().err
        assert loads == [] and not (tmp_path / "f.ckpt").exists()

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

    @pytest.mark.parametrize("counts", ["4,x", "", "4,,8", "1.5"])
    def test_prune_non_integer_keep_counts_is_usage_error(self, workdir, capsys, counts):
        code = run(["prune", "--in", workdir / "a.ckpt", "--keep-counts", counts,
                    "--out", workdir / "p.ckpt"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage:") and "--keep-counts" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["avg", "align", "nt-iter", "nt-rec"])
    def test_fuse_sparsity_without_nt_exits_2(self, tmp_path, capsys, method):
        specs = [nw.linear(4, 6), nw.relu(), nw.linear(6, 3)]
        paths = [tmp_path / f"m{i}.ckpt" for i in range(2)]
        for i, path in enumerate(paths):
            save_checkpoint(nw.init_network(specs, RngStream(i, "init")), path)
        code = run(["fuse", "--method", method, "--sparsity", "0.5", "--in", *paths,
                    "--out", tmp_path / "f.ckpt"])
        assert code == 2
        assert "sparsity" in capsys.readouterr().err
        assert not (tmp_path / "f.ckpt").exists()

    def test_shared_parser_matches_fresh_parsers(self, workdir, capsys):
        """The parser is built once per process; usage errors between valid
        commands give the same codes and output as a new parser per call."""
        ckpt = workdir / "a.ckpt"
        commands = [
            ["eval", "--nope", "x"],
            ["train", "--spec", workdir / "train.json", "--out", ckpt],
            ["fuse", "--method", "bogus", "--in", ckpt, ckpt, "--out", workdir / "f.ckpt"],
            ["prune", "--in", ckpt, "--sparsity", "0.5", "--out", workdir / "p.ckpt"],
            [],
            ["eval", "--in", ckpt, "--data", workdir / "data.json"],
            ["prune", "--in", ckpt, "--out", workdir / "p.ckpt"],
        ]

        def outcomes(fresh):
            results = []
            for args in commands:
                if fresh:
                    cli._parser.cache_clear()
                code = run(args)
                results.append((code, *capsys.readouterr()))
            return results

        shared = outcomes(fresh=False)
        assert [r[0] for r in shared] == [1, 0, 1, 0, 1, 0, 1]
        assert shared == outcomes(fresh=True)


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

    def test_align_fuses_more_than_two_checkpoints(self, tmp_path, capsys):
        bundle = make_members(conv57_specs(), 3, 18, randomize_bn=True)
        paths = [tmp_path / f"m{j}.ckpt" for j in range(3)]
        for member, path in zip(bundle.members, paths):
            save_checkpoint(member, path)
        assert run(["fuse", "--method", "align", "--in", *paths,
                    "--out", tmp_path / "align.ckpt"]) == 0
        assert_same_network(load_checkpoint(tmp_path / "align.ckpt")[0],
                            align_average(*bundle.members))

    @pytest.mark.parametrize("method", ["nt-iter", "nt-rec", "avg"])
    def test_fuse_from_disk_equals_fuse_in_memory(self, tmp_path, capsys, method):
        """Members loaded only as a method reads them fuse to the bits of
        members held in memory (`nt` and `align`: the tests beside this one)."""
        bundle = make_members(conv57_specs(), 3, 19, randomize_bn=True)
        paths = [tmp_path / f"m{j}.ckpt" for j in range(3)]
        for member, path in zip(bundle.members, paths):
            save_checkpoint(member, path)
        assert run(["fuse", "--method", method, "--in", *paths, "--out", tmp_path / "f.ckpt"]) == 0
        assert_same_network(load_checkpoint(tmp_path / "f.ckpt")[0],
                            fuse(bundle, FusionPlan(method=cli._METHODS[method])))

    def test_pruning_a_saved_concatenation_is_nt(self, tmp_path, capsys):
        """A concatenation saved with its origins and pruned to one member's
        widths is what `fuse --method nt` writes from the members."""
        bundle = make_members(conv57_specs(), 3, 17, randomize_bn=True)
        paths = [tmp_path / f"m{j}.ckpt" for j in range(3)]
        for member, path in zip(bundle.members, paths):
            save_checkpoint(member, path)
        save_checkpoint(concat_fuse(bundle), tmp_path / "wide.ckpt")
        assert run(["prune", "--in", tmp_path / "wide.ckpt", "--keep-counts", "5,7,9",
                    "--out", tmp_path / "pruned.ckpt"]) == 0
        assert run(["fuse", "--method", "nt", "--in", *paths,
                    "--out", tmp_path / "nt.ckpt"]) == 0
        pruned, _ = load_checkpoint(tmp_path / "pruned.ckpt")
        assert pruned.origins is not None
        assert_same_network(pruned, load_checkpoint(tmp_path / "nt.ckpt")[0])

    def test_distill_subcommand(self, workdir, capsys):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        assert run(["distill", "--student", workdir / "a.ckpt",
                    "--teachers", workdir / "a.ckpt", workdir / "a.ckpt",
                    "--data", workdir / "data.json", "--temperature", "2",
                    "--soft-weight", "1", "--epochs", "1",
                    "--out", workdir / "kd.ckpt"]) == 0
        assert (workdir / "kd.ckpt").exists()

    @pytest.mark.parametrize("flag", ["--lr", "--temperature"])
    def test_distill_non_finite_setting_exits_2_before_distilling(self, workdir, capsys,
                                                                  monkeypatch, flag):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        monkeypatch.setattr(cli, "ensemble_logits", lambda *a: pytest.fail("teachers ran"))
        assert run(["distill", "--student", workdir / "a.ckpt",
                    "--teachers", workdir / "a.ckpt", workdir / "a.ckpt",
                    "--data", workdir / "data.json", flag, "nan",
                    "--out", workdir / "kd.ckpt"]) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not (workdir / "kd.ckpt").exists()

    def test_distill_trains_at_the_default_batch(self, workdir, capsys, monkeypatch):
        """`ntfuse distill` has no batch flag, so it trains at TrainConfig's
        default batch, the one a spec's train block defaults to."""
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        seen = []
        monkeypatch.setattr(cli, "distill", lambda student, t, tr, te, cfg, kd:
                            seen.append(cfg) or (student, History()))
        assert run(["distill", "--student", workdir / "a.ckpt",
                    "--teachers", workdir / "a.ckpt", workdir / "a.ckpt",
                    "--data", workdir / "data.json", "--out", workdir / "kd.ckpt"]) == 0
        assert [cfg.batch.batch_size for cfg in seen] == [64]

    def test_data_key_its_kind_never_reads_exits_2(self, workdir, capsys):
        arch = json.loads((workdir / "train.json").read_text())["arch"]
        save_checkpoint(nw.init_network(build_arch(arch), RngStream(0, "init")),
                        workdir / "a.ckpt")
        desc = dict(json.loads((workdir / "data.json").read_text()), image=8)
        assert run(["eval", "--in", workdir / "a.ckpt", "--data", json.dumps(desc)]) == 2
        err = capsys.readouterr().err
        assert "'image'" in err and "'blobs'" in err

    def test_inline_json_data_descriptor(self, workdir, capsys):
        run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"])
        desc = (workdir / "data.json").read_text()
        assert run(["eval", "--in", workdir / "a.ckpt", "--data", desc]) == 0


class TestFuseMemory:
    """Peak bytes `tracemalloc` sees in one `ntfuse fuse` or `ntfuse distill`
    of k random-init MLPs, against bounds in units of one member's file size
    M (its parameters plus a small header). Each method loads a member when
    it reads it and frees it after, so only joint NT grows with k."""

    ARCH = {"type": "mlp", "in_features": 256, "hidden": [256] * 3, "classes": 10}
    BOUNDS = {
        # the running sum, the member being added and the next one loading
        "avg": lambda k: 4,
        # the running result, the member being folded in, the next one loading, the step's output
        "nt-iter": lambda k: 4,
        # one partial result per tree level, plus one pairwise step's inputs and output
        "nt-rec": lambda k: math.ceil(math.log2(k)) + 3,
        # all k members (the joint ranking reads every member), the output and one layer's take
        "nt": lambda k: k + 2,
    }

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("members")
        paths = [out / f"m{j}.ckpt" for j in range(8)]
        for j, path in enumerate(paths):
            net = nw.init_network(build_arch(self.ARCH), RngStream(j, "test/fuse-mem"))
            save_checkpoint(net, path)
        return paths

    def peak(self, argv) -> int:
        assert run(argv) == 0  # one untraced run first: only the steady state is measured
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("method", sorted(BOUNDS))
    def test_peak(self, paths, tmp_path, capsys, method, k):
        argv = ["fuse", "--method", method, "--in", *paths[:k], "--out", tmp_path / "f.ckpt"]
        assert self.peak(argv) <= self.BOUNDS[method](k) * paths[0].stat().st_size

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_distill_peak_is_flat_in_the_teacher_count(self, paths, tmp_path, capsys, k):
        """`ntfuse distill` runs one teacher at a time over the 64 rows. Its
        peak is the student, its training clone, velocity and gradients,
        bounded by 5M at any k."""
        data = {"kind": "blobs", "n": 64, "classes": 10, "dim": 256, "spread": 1.0, "seed": 1}
        argv = ["distill", "--student", paths[0], "--teachers", *paths[:k],
                "--data", json.dumps(data), "--epochs", "1", "--out", tmp_path / "s.ckpt"]
        assert self.peak(argv) <= 5 * paths[0].stat().st_size


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
        for name in ("report.csv", "report.json", "report.svg"):
            assert (workdir / "r1" / name).read_bytes() == \
                (workdir / "r2" / name).read_bytes()
        assert ",immediate_acc," in (workdir / "r1" / "report.csv").read_text()
        assert (workdir / "r1" / "report.svg").read_text().count("<polyline") == 1

    def test_no_finetune_series_writes_no_svg(self, workdir, capsys):
        doc = dict(small_spec(), experiment="multimodel", ks=[2, 3])
        (workdir / "exp.json").write_text(json.dumps(doc))
        assert run(["experiment", "--spec", workdir / "exp.json", "--out", workdir / "r"]) == 0
        assert sorted(p.name for p in (workdir / "r").iterdir()) == \
            ["report.csv", "report.json", "timings.json"]

    def test_rerun_without_finetune_series_removes_the_svg(self, workdir, capsys):
        """A run with no fine-tune series leaves no earlier run's chart behind."""
        doc = dict(small_spec(), experiment="multimodel", ks=[2, 3])
        for epochs in (1, 0):
            (workdir / "exp.json").write_text(json.dumps(dict(doc, finetune_epochs=epochs)))
            assert run(["experiment", "--spec", workdir / "exp.json", "--out", workdir / "r"]) == 0
            assert (workdir / "r" / "report.svg").exists() == (epochs == 1)


def small_spec():
    return {
        "name": "bad-spec", "experiment": "pipeline",
        "dataset": {"kind": "blobs", "n": 60, "classes": 3, "dim": 4,
                    "spread": 0.5, "seed": 5},
        "arch": {"type": "mlp", "in_features": 4, "hidden": [8], "classes": 3},
        "seeds": [1], "train": {"epochs": 1}, "finetune_epochs": 0,
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
BAD_VALUES = [(("experiment",), "bogus"), (("experiment",), 5), (("dataset", "dim"), -2),
              (("arch", "classes"), 2)]


BAD_KIND_KEYS = [("compare", "kd", 5), ("compare", "kd", {"temperature": "hot"}),
                 ("compare", "kd", {"soft_weight": [1]}), ("multimodel", "ks", 3),
                 ("multimodel", "ks", ["2"]), ("multimodel", "ks", [])]
SWEEP_AXES = ["width", "depth", "transplant_fraction", "sparsity"]
# A repeated value would fill one report cell twice, and an ensemble size
# (`k` or `ks`) below 2 has nothing to fuse or would slice the wrong members:
# both are refused before training.
REFUSED_BEFORE_TRAINING = [
    {"seeds": [1, 1]},
    {"k": 1}, {"k": 0}, {"k": -2},
    {"experiment": "compare", "methods": ["avg", "avg"]},
    {"experiment": "multimodel", "methods": ["nt", "nt_iterative", "nt"]},
    {"experiment": "multimodel", "ks": [2, 3, 2]},
    {"experiment": "multimodel", "ks": [3, -1]},
    {"experiment": "multimodel", "ks": [1]},
    *({"experiment": "sweep", "axis": axis, "values": values}
      for axis, values in [("width", [4, 4]), ("depth", [1, 2, 1]),
                           ("transplant_fraction", [0, 0.0]),
                           ("transplant_fraction", [0.5, 0.5000001]),  # both labelled p=0.5
                           ("sparsity", [0.5, 0.5])]),
    # Arm names that name no fusion plan, and lists that name no report.
    {"experiment": "compare", "methods": ["nt", "bogus"]},
    {"experiment": "multimodel", "methods": ["avg", "bogus"]},
    {"experiment": "compare", "methods": ["avg/prune_merge_ft"]},
    {"experiment": "compare", "methods": ["nt/bogus"]},
    {"experiment": "compare", "methods": []},
    {"experiment": "multimodel", "methods": []},
    *({"experiment": "sweep", "axis": axis, "values": []}
      for axis in ("width", "depth", "transplant_fraction", "sparsity")),
    # A width or depth sweep resizes the hidden widths, so it needs some.
    *({"experiment": "sweep", "axis": axis, "values": [1, 2],
       "arch": {"type": "mlp", "in_features": 4, "hidden": [], "classes": 3}}
      for axis in ("width", "depth")),
    {"experiment": "sweep", "axis": "width", "values": [4],
     "dataset": {"kind": "shapes", "n": 40, "classes": 4, "image": 8, "seed": 2},
     "arch": {"type": "convnet", "image_hw": [8, 8], "in_channels": 1, "conv_channels": [2],
              "classes": 4}},
    # An MLP without hidden widths does not build, swept or not.
    *({"experiment": "sweep", "axis": axis, "values": [1],
       "arch": {"type": "mlp", "in_features": 4, "hidden": None, "classes": 3}}
      for axis in ("width", "depth")),
    # Plan keys the experiment kind never reads: it picks its own fusion.
    {"experiment": "multimodel", "plan": {"pipeline": "merge_ft_prune_ft"}},
    {"experiment": "compare", "plan": {"method": "avg"}},
    {"experiment": "failure", "plan": {"sparsity": 0.5}},
    {"experiment": "sweep", "axis": "transplant_fraction", "values": [0.5],
     "plan": {"method": "nt"}},
    {"experiment": "sweep", "axis": "sparsity", "values": [0.5], "plan": {"sparsity": 0.3}},
    {"experiment": "sweep", "axis": "sparsity", "values": [0.5], "plan": {"method": "nt"}},
    # A top-level `k` where the kind sets its own member count.
    {"experiment": "multimodel", "k": 7, "ks": [2]},
    {"experiment": "failure", "k": 2},
    {"experiment": "sweep", "axis": "transplant_fraction", "values": [0.5], "k": 2},
    # Seeds every run overwrites with its own stream's seed.
    {"train": {"epochs": 1, "seed": 3}},
    {"train": {"epochs": 1, "batch": {"shuffle_seed": 3}}},
    {"plan": {"finetune": {"epochs": 1, "seed": 3}}},
    {"plan": {"finetune": {"epochs": 1, "batch": {"batch_size": 8, "shuffle_seed": 3}}}},
    # A schedule needs its period and factor; an empty one is not "no schedule".
    {"train": {"epochs": 1, "schedule": {}}},
    # A period below 1 divides by zero or raises the rate; a factor <= 0 zeroes or flips it.
    {"train": {"epochs": 1, "schedule": {"period": 0, "factor": 0.5}}},
    {"train": {"epochs": 1, "schedule": {"period": -1, "factor": 0.5}}},
    {"train": {"epochs": 1, "schedule": {"period": 1, "factor": 0.0}}},
    {"plan": {"finetune": {"epochs": 1, "schedule": {"period": 1, "factor": -0.5}}}},
    # JSON has no NaN or Infinity, but Python's json parses both.
    {"train": {"epochs": 1, "lr": float("nan")}},
    {"train": {"epochs": 1, "lr": float("inf")}},
    {"train": {"epochs": 1, "lr": 10**400}},  # an integer no float holds
    {"plan": {"finetune": {"epochs": 1, "schedule": {"period": 1, "factor": float("nan")}}}},
    {"experiment": "compare", "kd": {"temperature": float("inf")}},
    {"experiment": "sweep", "axis": "transplant_fraction", "values": [0.5, float("nan")]},
    # A dataset key its kind never reads: glyphs are sized by `image`, not the arch's key.
    {"dataset": {"kind": "shapes", "n": 40, "classes": 4, "image_hw": [8, 8], "seed": 2}},
]


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

    @pytest.mark.parametrize("path,value", BAD_VALUES,
                             ids=[f"{'/'.join(p)}={v!r}" for p, v in BAD_VALUES])
    def test_bad_value_exits_2(self, tmp_path, capsys, path, value):
        code, err = self.run_spec(tmp_path, capsys, edited(small_spec(), path, value))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("plan", [
        {"method": "avg", "sparsity": 0.5},
        {"method": "nt_iterative", "sparsity": 0.5},
        {"method": "nt", "pipeline": "prune_merge_ft", "sparsity": 0.5},
        {"method": "avg", "pipeline": "prune_merge_ft"},
        {"method": "align", "pipeline": "merge_ft_prune_ft"},
    ], ids=str)
    def test_plan_setting_the_method_never_reads_exits_2(self, tmp_path, capsys, plan):
        code, err = self.run_spec(tmp_path, capsys, dict(small_spec(), plan=plan))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("doc", [
        {"dataset": {"kind": "blobs"}, "arch": {"type": "mlp"}},
        "[1, 2]",
        "{not json",
    ])
    def test_malformed_documents_exit_2(self, tmp_path, capsys, doc):
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("kind,key,value", BAD_KIND_KEYS,
                             ids=[f"{k}-{key}={v!r}" for k, key, v in BAD_KIND_KEYS])
    def test_bad_experiment_kind_key_exits_2(self, tmp_path, capsys, kind, key, value):
        doc = dict(small_spec(), experiment=kind)
        doc[key] = value
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("keys", REFUSED_BEFORE_TRAINING, ids=str)
    def test_refused_before_training(self, tmp_path, capsys, monkeypatch, keys):
        def no_training(*args, **kwargs):
            raise AssertionError("a member trained")

        monkeypatch.setattr(experiments, "train_members", no_training)
        code, err = self.run_spec(tmp_path, capsys, dict(small_spec(), **keys))
        assert code == 2 and err.startswith("error:")

    def test_unread_key_is_named_before_the_spec_is_parsed(self, tmp_path, capsys):
        """A multimodel spec never reads `k`; that is the error, not that
        `k` 1 is too few members."""
        doc = dict(small_spec(), experiment="multimodel", k=1, ks=[2])
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and "never reads spec keys ['k']" in err

    @pytest.mark.parametrize("kind,driver,lists", [
        ("multimodel", "ablation_multimodel", {"ks": [3], "methods": ["nt"]}),
        ("compare", "compare_methods", {"methods": ["avg"]}),
    ])
    def test_driver_defaults_apply_to_absent_list_keys(self, monkeypatch, kind, driver, lists):
        """`run_spec` passes `ks` and `methods` only when the spec sets them,
        so the driver's signature holds the one default."""
        calls = []
        monkeypatch.setattr(experiments, driver, lambda spec, **kw: calls.append(kw) or [])
        for given in ({}, dict.fromkeys(lists), lists):
            experiments.run_spec(dict(small_spec(), experiment=kind, **given))
        given = [{key: v for key, v in kw.items() if key != "kd"} for kw in calls]
        assert given == [{}, {}, {key: tuple(v) for key, v in lists.items()}]

    def test_distill_flag_defaults_are_kd_config_defaults(self):
        args = cli._parser().parse_args(["distill", "--student", "s", "--teachers", "t",
                                         "--data", "d", "--out", "o"])
        assert KdConfig(args.temperature, args.soft_weight) == KdConfig()

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_bad_sweep_values_exit_2(self, tmp_path, capsys, axis):
        doc = dict(small_spec(), experiment="sweep", axis=axis, values=["x"])
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith("error:")

    def test_train_spec_without_dataset_exits_2(self, workdir, capsys):
        doc = json.loads((workdir / "train.json").read_text())
        del doc["dataset"]
        (workdir / "train.json").write_text(json.dumps(doc))
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_train_block_seed_exits_2(self, workdir, capsys):
        """`ntfuse train` reads the top-level seed; one in `train` is refused."""
        doc = json.loads((workdir / "train.json").read_text())
        doc["train"]["seed"] = 3
        (workdir / "train.json").write_text(json.dumps(doc))
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (workdir / "a.ckpt").exists()

    def empty_idx(self, tmp_path):
        """A dataset descriptor whose IDX files hold 0 images of 4x4."""
        images, labels = write_idx_pair(tmp_path, np.zeros((0, 4, 4), np.uint8), [])
        return {"kind": "idx", "num_classes": 3, "train_images": str(images),
                "train_labels": str(labels), "test_images": str(images),
                "test_labels": str(labels)}

    def test_empty_idx_exits_2(self, workdir, capsys):
        doc = json.loads((workdir / "train.json").read_text())
        doc["dataset"] = self.empty_idx(workdir)
        doc["arch"]["in_features"] = 16
        (workdir / "train.json").write_text(json.dumps(doc))
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        save_checkpoint(nw.init_network(build_arch(doc["arch"]), RngStream(0, "init")),
                        workdir / "a.ckpt")
        assert run(["eval", "--in", workdir / "a.ckpt", "--data", json.dumps(doc["dataset"])]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_on_an_empty_split_exits_2(self, workdir, capsys):
        """One blob row: the test split takes it and the train split is empty."""
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 0
        capsys.readouterr()
        data = {"kind": "blobs", "n": 1, "classes": 1, "dim": 4, "spread": 0.5, "seed": 5}
        assert run(["eval", "--in", workdir / "a.ckpt", "--data", json.dumps(data),
                    "--split", "train"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_train_on_an_empty_split_exits_2(self, workdir, capsys):
        """One blob row: the test split takes it, and no epoch has a batch."""
        doc = json.loads((workdir / "train.json").read_text())
        doc["dataset"] = {"kind": "blobs", "n": 1, "classes": 1, "dim": 4, "spread": 0.5,
                          "seed": 5}
        (workdir / "train.json").write_text(json.dumps(doc))
        assert run(["train", "--spec", workdir / "train.json", "--out", workdir / "a.ckpt"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (workdir / "a.ckpt").exists()

    def idx_spec(self, tmp_path, **limits):
        """An MLP pipeline on hand-built IDX files: 20 train rows, 8 test rows."""
        rng = np.random.default_rng(0)
        dataset = {"kind": "idx", "num_classes": 3, **limits}
        for split, n in (("train", 20), ("test", 8)):
            (tmp_path / split).mkdir()
            images, labels = write_idx_pair(tmp_path / split, rng.integers(0, 256, (n, 4, 4)),
                                            np.arange(n) % 3)
            dataset[f"{split}_images"], dataset[f"{split}_labels"] = str(images), str(labels)
        return dict(small_spec(), dataset=dataset,
                    arch={"type": "mlp", "in_features": 16, "hidden": [8], "classes": 3})

    @pytest.mark.parametrize("limits", [{}, {"limit_train": 0, "limit_test": 0},
                                        {"limit_train": 20, "limit_test": 8},
                                        {"limit_train": 1, "limit_test": 1}], ids=str)
    def test_idx_limits_in_range_run(self, tmp_path, capsys, limits):
        assert self.run_spec(tmp_path, capsys, self.idx_spec(tmp_path, **limits)) == (0, "")

    @pytest.mark.parametrize("key,value", [("limit_train", 21), ("limit_train", 50),
                                           ("limit_train", -3), ("limit_test", 9),
                                           ("limit_test", -1)])
    def test_idx_limit_out_of_range_exits_2(self, tmp_path, capsys, key, value):
        code, err = self.run_spec(tmp_path, capsys, self.idx_spec(tmp_path, **{key: value}))
        assert code == 2 and err.startswith(f"error: spec key {key!r}")

    def test_malformed_csv_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c,d,label\n0.5,1.5,2.5,3.5,0\n0.5,1.5,oops,3.5,1\n")
        doc = small_spec()
        doc["dataset"] = {"kind": "csv", "path": str(data)}
        code, err = self.run_spec(tmp_path, capsys, doc)
        assert code == 2 and err.startswith(f"error: {data}:3:")


TIMED_KINDS = [
    {"experiment": "pipeline"},
    {"experiment": "multimodel", "ks": [2, 3], "methods": ["nt", "avg"]},
    {"experiment": "sweep", "axis": "width", "values": [4, 8]},
    {"experiment": "failure"},
    {"experiment": "compare", "methods": ["nt", "avg"],
     "kd": {"temperature": 2.0, "soft_weight": 0.5}},
]


@pytest.mark.parametrize("keys", TIMED_KINDS, ids=lambda keys: keys["experiment"])
def test_timings_hold_one_wall_time_per_cell_and_seed(tmp_path, keys):
    """timings.json has exactly the report's cells, each with one positive
    wall time per seed, in seed order."""
    doc = dict(small_spec(), seeds=[3, 1], finetune_epochs=1, **keys)
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert run(["experiment", "--spec", tmp_path / "spec.json", "--out", tmp_path]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    cells = {f"{r['experiment']}/{r['method']}" for r in rows}
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) == cells
    for entries in timings.values():
        assert [e["seed"] for e in entries] == [3, 1]
        assert all(e["wall_seconds"] > 0 for e in entries)


@pytest.mark.parametrize("keys", TIMED_KINDS, ids=lambda keys: keys["experiment"])
def test_svg_is_the_chart_of_the_run_s_reports(tmp_path, keys):
    """report.svg is `write_svg` of the reports the run held, one curve per
    cell with a fine-tune series in report.json."""
    doc = dict(small_spec(), seeds=[3, 1], finetune_epochs=1, **keys)
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert run(["experiment", "--spec", tmp_path / "spec.json", "--out", tmp_path / "r"]) == 0
    reporting.write_svg(experiments.run_spec(doc), tmp_path / "expected.svg")
    svg = (tmp_path / "r" / "report.svg").read_text()
    assert svg == (tmp_path / "expected.svg").read_text()
    rows = json.loads((tmp_path / "r" / "report.json").read_text())["rows"]
    curves = {(r["experiment"], r["method"]) for r in rows if r["metric"] == "finetuned_acc"}
    assert svg.count("<polyline") == len(curves) > 0


# Small JSON values only: a spec key set to a large number could ask for a
# dataset or a network too big to build, which is not what this fuzz is after.
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2.0, 2.0)
               | st.sampled_from([float("nan"), float("inf"), -float("inf")])
               | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)
# Spec keys a mutation may set, with values worth trying besides random JSON.
SPEC_KEYS = {
    ("experiment",): ["pipeline", "multimodel", "sweep", "failure", "compare"],
    ("axis",): SWEEP_AXES,
    ("values",): [[1, 2], [0.0, 0.5]],
    ("kd",): [{"temperature": 2.0, "soft_weight": 0.5}],
    ("ks",): [[2, 3]],
    ("methods",): [["nt", "avg", "align", "nt_iterative", "nt_recursive"]],
    ("k",): [1, 3],
    ("seeds",): [[1, 2]],
    ("finetune_epochs",): [1],
    ("dataset", "kind"): ["blobs", "shapes"],
    ("dataset", "n"): [6],
    ("dataset", "classes"): [1, 2],
    ("dataset", "dim"): [2],
    ("dataset", "test_fraction"): [0.5],
    ("arch", "type"): ["mlp", "convnet", "layers"],
    ("arch", "in_features"): [2],
    ("arch", "hidden"): [[], [4, 4]],
    ("arch", "classes"): [2],
    ("train", "epochs"): [0, 2],
    ("train", "lr"): [0.5],
    ("train", "momentum"): [0.0],
    ("train", "batch"): [{"batch_size": 7, "drop_last": True}],
    ("train", "schedule"): [{"period": p, "factor": 0.5} for p in (1, 0, -1)],
    ("plan", "method"): ["nt", "avg", "align", "nt_iterative", "nt_recursive"],
    ("plan", "sparsity"): [0.5],
    ("plan", "pipeline"): ["merge_prune_ft", "merge_ft_prune_ft", "prune_merge_ft"],
    ("plan", "finetune"): [{"epochs": 1, "lr": 0.1}],
}


@st.composite
def mutated_specs(draw):
    doc = draw(st.sampled_from([small_spec, conv_spec]))()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(SPEC_KEYS)))
        if draw(st.booleans()):
            value = draw(st.sampled_from(SPEC_KEYS[path]))
        else:
            value = draw(JSON_VALUES)
        target = doc
        for key in path[:-1]:
            if not isinstance(target.get(key), dict):
                target[key] = {}
            target = target[key]
        if value is None:
            target.pop(path[-1], None)
        else:
            target[path[-1]] = value
    return doc


class TestSpecFuzz:
    """Any spec object runs (exit 0) or is refused (exit 2), never a traceback."""

    def run_spec(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code = run(["experiment", "--spec", spec, "--out", tmp_path / "out"])
        out, err = capsys.readouterr()
        assert code in (0, 2), err
        assert "Traceback" not in out + err
        assert code == 0 or err.startswith("error:")

    @given(doc=st.dictionaries(st.sampled_from(sorted({p[0] for p in SPEC_KEYS} | {"name"}))
                               | st.text(max_size=3), JSON_VALUES, max_size=6))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_objects(self, tmp_path, capsys, doc):
        self.run_spec(tmp_path, capsys, doc)

    @given(doc=mutated_specs())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_valid_specs(self, tmp_path, capsys, doc):
        self.run_spec(tmp_path, capsys, doc)
