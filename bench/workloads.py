"""The three benchmark workloads, built only from ntfusion's public functions.

Each workload is a closed loop with one client: the next call goes out only
after the previous one returned. Inputs derive from the workload seed alone.

- `convnet-pipeline`: `experiments.run_pipeline` on `synth_shapes`; the conv,
  batchnorm and maxpool kernels do almost all of the work.
- `fuse-cli`: `ntfuse fuse` through `cli.cli_dispatch` on seeded random-init
  checkpoints; fusion, pruning and checkpoint I/O do the work.
- `mlp-distill`: `experiments.compare_methods` with distillation arms on
  `synth_blobs`; dense kernels, `losses.kd` and teacher forwards do the work.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ntfusion import checkpoint, cli, experiments, fusion, network, pruning, training
from ntfusion.data import BatchPlan, synth_blobs, train_test_split
from ntfusion.fusion import EnsembleBundle, FusionPlan
from ntfusion.tensor import RngStream

from speed import Speed, Timed

# Fusion methods by family; the three `fuse_*_s` metrics are kept apart so a
# win on one path cannot hide a regression on another.
FAMILIES = {
    "fuse_joint_s": ("nt",),
    "fuse_pairwise_s": ("nt-iter", "nt-rec"),
    "fuse_baseline_s": ("avg", "align"),
}
CLI_TO_PLAN = {"nt": "nt", "nt-iter": "nt_iterative", "nt-rec": "nt_recursive",
               "avg": "avg", "align": "align"}
# In the training workloads one fusion takes 1–25 ms, too short to time
# alone; a timed sample repeats a family's fusions for about this long.
SAMPLE_S = 0.02


@dataclass
class PassResult:
    """What one timed pass of a workload produced."""

    wall: Timed
    ops: int
    failed: int
    steps: dict[str, list[Timed]] = field(default_factory=dict)  # timed parts of the pass
    parts: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.wall.seconds


class Meter:
    """Cheap wrappers kept on during untraced passes: the time and SGD
    samples of each `train` and `distill` call, a host-speed probe after the
    test-set evaluation that ends each of their epochs, and the member
    bundles `train_members` returns (the output checks need them)."""

    def __init__(self, speed: Speed) -> None:
        self.speed = speed
        self.reset()

    def reset(self) -> None:
        self.train_steps: list[Timed] = []
        self.samples = 0
        self.bundles: list[EnsembleBundle] = []

    def install(self, patches) -> None:
        for attr in ("train", "distill"):
            patches.set(experiments, attr, self._timed(getattr(experiments, attr)))
        patches.set(experiments, "train_members", self._capture(experiments.train_members))
        patches.set(training, "evaluate", self._probed(training.evaluate))

    def _timed(self, fn):
        sig = inspect.signature(fn)

        def timed(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            clock = self.speed.start()
            out = fn(*args, **kwargs)
            self.train_steps.append(clock.stop())
            self.samples += bound["cfg"].epochs * _epoch_samples(bound["train_ds"], bound["cfg"])
            return out

        return timed

    def _probed(self, fn):
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.speed.probe()
            return out

        return probed

    def _capture(self, fn):
        def capture(specs, train_ds, test_ds, *args, **kwargs):
            bundle, accs = fn(specs, train_ds, test_ds, *args, **kwargs)
            self.bundles.append(bundle)
            return bundle, accs

        return capture


def _epoch_samples(ds, cfg) -> int:
    n, bs = len(ds), cfg.batch.batch_size
    return n // bs * bs if cfg.batch.drop_last else n


def _time_fusions(bundle: EnsembleBundle, budget_s: float, speed: Speed) -> dict[str, list[Timed]]:
    """Time per family to fuse `bundle` once: at least 3 samples and as many
    as fit in `budget_s`, each the mean of as many repeats as take about
    SAMPLE_S (counted on an untimed first round). The families take turns,
    with host-speed probes between them, so that each one's samples span the
    whole budget."""
    def fuse_all(methods):
        for m in methods:
            fusion.fuse(bundle, FusionPlan(method=CLI_TO_PLAN[m]))

    repeats = {}
    for fam, methods in FAMILIES.items():
        t0 = time.perf_counter()
        fuse_all(methods)
        repeats[fam] = max(1, math.ceil(SAMPLE_S / (time.perf_counter() - t0)))
    samples: dict[str, list[Timed]] = {fam: [] for fam in FAMILIES}
    end = time.perf_counter() + budget_s
    while len(samples["fuse_joint_s"]) < 3 or time.perf_counter() < end:
        for fam, methods in FAMILIES.items():
            clock = speed.start()
            for _ in range(repeats[fam]):
                fuse_all(methods)
            step = clock.stop()
            samples[fam].append(Timed(step.start, step.end, step.seconds / repeats[fam]))
            speed.maybe_probe()
    return samples


def _concat_check(bundle: EnsembleBundle, test_ds) -> bool:
    """In eval mode the concatenated model computes the mean member logits."""
    x = test_ds.features
    wide = network.forward(fusion.concat_fuse(bundle), x, "eval")
    mean = training.average_logits(bundle.members, x)
    scale = max(1.0, float(np.abs(mean).max()))
    return bool(np.abs(wide - mean).max() <= 1e-5 * scale)


class TrainingWorkload:
    """Shared shape of the two training workloads: one experiment call per
    pass, and after each timed pass a fusion timing on the members it
    trained, so that the samples cover the whole run rather than one moment
    of it. Nothing is written to `workdir`."""

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.spec = self.build_spec(seed, size)
        self.fusion_budget_s = 1.5 if size == "full" else 0.03
        self.speed = Speed()
        self.meter = Meter(self.speed)
        self.final_accs: list[float] = []
        self.bundles: list[EnsembleBundle] = []
        self.fusion_samples: dict[str, list[Timed]] = {fam: [] for fam in FAMILIES}

    def build_spec(self, seed: int, size: str) -> experiments.ExperimentSpec:
        raise NotImplementedError

    def call(self) -> list:
        raise NotImplementedError

    def inputs(self):
        """The generated (train, test) split."""
        return experiments.build_dataset(self.spec.dataset)

    def setup(self) -> None:
        self.train_ds, self.test_ds = self.inputs()

    def run_pass(self) -> PassResult:
        self.meter.reset()
        clock = self.speed.start()
        reports = self.call()
        wall = clock.stop()
        self.final_accs = [r.records[-1].series["finetuned_acc"][-1] for r in reports]
        self.bundles = list(self.meter.bundles)
        return PassResult(wall, 1, 0, {"train": list(self.meter.train_steps)},
                          {"samples": float(self.meter.samples),
                           "final_acc": float(np.mean(self.final_accs))})

    def after_pass(self) -> None:
        timed = _time_fusions(self.bundles[-1], self.fusion_budget_s, self.speed)
        for fam, values in timed.items():
            self.fusion_samples[fam] += values

    def extra_samples(self, results: list[PassResult]) -> dict[str, list[float]]:
        """Samples of the metrics the timed passes do not give directly,
        timings in reference seconds."""
        out = {fam: [self.speed.scaled(t) for t in v] for fam, v in self.fusion_samples.items()}
        out["final_acc"] = [r.parts["final_acc"] for r in results]
        out["train_samples_per_s"] = [
            r.parts["samples"] / sum(self.speed.scaled(t) for t in r.steps["train"])
            for r in results]
        return out

    def checks(self) -> list[tuple[str, bool]]:
        out = [("members captured", len(self.bundles) == len(self.spec.seeds))]
        out += [(f"concat logits = mean member logits (seed {bundle.member_seeds})",
                 _concat_check(bundle, self.test_ds)) for bundle in self.bundles]
        out.append(("final_acc finite", len(self.final_accs) == self.cells and
                    all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in self.final_accs)))
        return out


def _train_config(epochs: int) -> training.TrainConfig:
    return training.TrainConfig(epochs=epochs, lr=0.05, batch=BatchPlan(batch_size=64))


class ConvnetPipeline(TrainingWorkload):
    name = "convnet-pipeline"
    cells = 1

    def build_spec(self, seed, size):
        n, image, channels, hidden, epochs = (
            (2000, 16, [16, 32], 64, 3) if size == "full" else (200, 12, [4, 8], 16, 1))
        return experiments.ExperimentSpec(
            name=self.name,
            dataset={"kind": "shapes", "n": n, "classes": 10, "image": image,
                     "noise": 0.1, "seed": seed},
            arch={"type": "convnet", "image_hw": [image, image], "in_channels": 1,
                  "conv_channels": channels, "batchnorm": True, "hidden": [hidden],
                  "classes": 10},
            k=2, seeds=(seed,), train=_train_config(epochs),
            plan=FusionPlan(method="nt", pipeline="merge_prune_ft",
                            finetune=_train_config(epochs)))

    def call(self):
        return [experiments.run_pipeline(self.spec)]


class MlpDistill(TrainingWorkload):
    name = "mlp-distill"
    methods = ("nt", "avg", "align")
    cells = 2 * len(methods)
    kd = training.KdConfig(2.0, 0.5)

    def build_spec(self, seed, size):
        n, width, epochs = (6000, 256, 6) if size == "full" else (400, 32, 1)
        return experiments.ExperimentSpec(
            name=self.name,
            dataset={"kind": "blobs", "n": n, "classes": 10, "dim": 32, "spread": 1.5,
                     "seed": seed},
            arch={"type": "mlp", "in_features": 32, "hidden": [width] * 3, "classes": 10},
            k=2, seeds=(seed,), train=_train_config(epochs),
            plan=FusionPlan(method="nt", finetune=_train_config(epochs)))

    def call(self):
        return experiments.compare_methods(self.spec, methods=self.methods, kd=self.kd)


class FuseCli:
    """Setup writes k seeded random-init checkpoints per model; a pass runs
    every `ntfuse fuse` command on both sets. Outside the timed passes, every
    few seconds, the fused `nt` MLP gets the short recovery fine-tune NT
    relies on, on an easy seeded task, for `final_acc` and
    `train_samples_per_s`."""

    name = "fuse-cli"
    k = 8
    recovery_every_s = 4.0

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.speed = Speed()
        self.recoveries: list[tuple[int, Timed]] = []  # (SGD samples, time)
        self.recovery_accs: list[float] = []
        self.last_recovery = -math.inf
        if size == "full":
            self.models = {
                "mlp": {"type": "mlp", "in_features": 784, "hidden": [512] * 3, "classes": 10},
                "cnn": {"type": "convnet", "image_hw": [28, 28], "in_channels": 1,
                        "conv_channels": [32, 64], "hidden": [128], "classes": 10},
            }
            self.recovery = {"n": 2000, "epochs": 3}
        else:
            self.models = {
                "mlp": {"type": "mlp", "in_features": 144, "hidden": [32] * 3, "classes": 10},
                "cnn": {"type": "convnet", "image_hw": [12, 12], "in_channels": 1,
                        "conv_channels": [4, 8], "hidden": [16], "classes": 10},
            }
            self.recovery = {"n": 200, "epochs": 1}
        self.commands = [
            (fam, model, method)
            for model in self.models
            for fam, methods in FAMILIES.items()
            for method in methods
        ]

    def inputs(self):
        """Member networks per model and the recovery (train, test) split."""
        members = {
            model: [network.init_network(experiments.build_arch(arch),
                                         RngStream(self.seed * 1000 + j, f"fuse-cli/{model}"))
                    for j in range(self.k)]
            for model, arch in self.models.items()
        }
        ds = synth_blobs(self.recovery["n"], 10, self.models["mlp"]["in_features"], 2.0, self.seed)
        return members, train_test_split(ds, 0.25, self.seed)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        members, (self.train_ds, self.test_ds) = self.inputs()
        self.paths = {}
        for model, nets in members.items():
            self.paths[model] = [self.workdir / f"{model}-{j}.ntck" for j in range(self.k)]
            for j, (net, path) in enumerate(zip(nets, self.paths[model])):
                checkpoint.save_checkpoint(net, path, {"seed": self.seed * 1000 + j})

    def after_pass(self) -> None:
        if (("mlp", "nt") in self.failed_commands
                or time.perf_counter() - self.last_recovery < self.recovery_every_s):
            return
        fused, _ = checkpoint.load_checkpoint(self._out("mlp", "nt"))
        cfg = _train_config(self.recovery["epochs"]).reseeded(self.seed)
        self.speed.maybe_probe()
        clock = self.speed.start()
        _, history = training.train(fused, self.train_ds, self.test_ds, cfg)
        self.recoveries.append((cfg.epochs * _epoch_samples(self.train_ds, cfg), clock.stop()))
        self.speed.probe()
        self.last_recovery = time.perf_counter()
        self.recovery_accs.append(history.records[-1].test_accuracy)

    def _out(self, model: str, method: str) -> Path:
        return self.workdir / f"{model}-fused-{method}.ntck"

    def run_pass(self) -> PassResult:
        """Every command once, a host-speed probe after each (outside the
        command's time and the pass's)."""
        steps: dict[str, list[Timed]] = {fam: [] for fam in FAMILIES}
        self.failed_commands = set()
        clock = self.speed.start()
        for fam, model, method in self.commands:
            inputs = self.paths[model][: 2 if method == "align" else self.k]
            argv = ["fuse", "--method", method, "--in", *map(str, inputs),
                    "--out", str(self._out(model, method))]
            command = self.speed.start()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.cli_dispatch(argv)
            steps[fam].append(command.stop())
            self.speed.probe()
            if rc != 0:
                self.failed_commands.add((model, method))
        return PassResult(clock.stop(), len(self.commands), len(self.failed_commands), steps)

    def extra_samples(self, results: list[PassResult]) -> dict[str, list[float]]:
        """Samples of the metrics the timed passes do not give directly,
        timings in reference seconds."""
        out = {fam: [sum(self.speed.scaled(t) for t in r.steps[fam]) for r in results]
               for fam in FAMILIES}
        out["train_samples_per_s"] = [n / self.speed.scaled(t) for n, t in self.recoveries]
        out["final_acc"] = self.recovery_accs
        return out

    def checks(self) -> list[tuple[str, bool]]:
        out = []
        for model, paths in self.paths.items():
            bundle = EnsembleBundle([checkpoint.load_checkpoint(p)[0] for p in paths])
            fused = {}
            for method in CLI_TO_PLAN:
                fused[method], _ = checkpoint.load_checkpoint(self._out(model, method))
                out.append((f"{model} {method} output has the members' arch_id",
                            fused[method].arch_id == bundle.arch_id))
            oracle = pruning.prune_to_architecture(fusion.concat_fuse(bundle), bundle.members[0])
            out.append((f"{model} nt output is bit-identical to the oracle",
                        _same_params(fused["nt"], oracle)))
            out.append((f"{model} avg output equals vanilla_average",
                        _same_params(fused["avg"], fusion.vanilla_average(bundle))))
        return out


def _same_params(a, b) -> bool:
    return a.specs == b.specs and all(
        pa.keys() == pb.keys() and all(np.array_equal(pa[k], pb[k]) for k in pa)
        for pa, pb in zip(a.params, b.params))


WORKLOADS = {w.name: w for w in (ConvnetPipeline, FuseCli, MlpDistill)}
