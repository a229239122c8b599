"""Declarative fusion experiments: order-of-operations pipelines, multi-model
and sweep ablations, the self-fusion failure case, baseline comparisons, and
fusion cost measurement.

Every experiment is reproducible from (spec, seeds): datasets, inits, batch
orders, and fine-tuning are all driven by counter-based streams. Seeds may run
on worker threads (capped by the NT_THREADS env var, default 1); records are
assembled in seed order either way.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import network as nw
from .data import (
    BatchPlan,
    Dataset,
    load_csv,
    load_idx,
    synth_blobs,
    synth_shapes,
    train_test_split,
)
from .errors import BadSpec, InvalidArg
from .fusion import (
    EnsembleBundle,
    FusionPlan,
    align_average,
    concat_fuse,
    fuse,
    nt_fuse,
    transplant_fraction,
    vanilla_average,
)
from .network import LayerSpec, Network, init_network
from .pruning import KeepPolicy, magnitude_prune, prune_concat, prune_to_architecture
from .reporting import RunReport, SeedRecord
from .tensor import RngStream
from .training import KdConfig, StepDecay, TrainConfig, average_logits, distill, evaluate, train


_REQUIRED = object()
_JSON_KINDS = {int: (int,), float: (int, float), str: (str,), bool: (bool,),
               dict: (dict,), list: (list,)}


def _get(doc: dict, key: str, kind: type, default=_REQUIRED):
    """doc[key] as a JSON value of `kind` (a float may be written as an
    integer); an absent or null key gives `default` or, if required, BadSpec."""
    value = doc.get(key)
    if value is None:
        if default is _REQUIRED:
            raise BadSpec(f"spec key {key!r} is missing")
        return default
    if not isinstance(value, _JSON_KINDS[kind]) or (isinstance(value, bool) and kind is not bool):
        raise BadSpec(f"spec key {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _ints(doc: dict, key: str, default=_REQUIRED) -> list[int]:
    values = _get(doc, key, list, default)
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise BadSpec(f"spec key {key!r} must be a list of integers, got {values!r}")
    return values


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise BadSpec(f"{what} must be a JSON object, got {doc!r}")
    return doc


def build_dataset(desc: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from a JSON-able descriptor."""
    desc = _object(desc, "dataset descriptor")
    kind = desc.get("kind")
    if kind == "blobs":
        seed = _get(desc, "seed", int)
        ds = synth_blobs(_get(desc, "n", int), _get(desc, "classes", int), _get(desc, "dim", int),
                         _get(desc, "spread", float), seed)
        return train_test_split(ds, _get(desc, "test_fraction", float, 0.25), seed)
    if kind == "shapes":
        seed = _get(desc, "seed", int)
        ds = synth_shapes(_get(desc, "n", int), _get(desc, "classes", int),
                          _get(desc, "image", int, 12), _get(desc, "noise", float, 0.1), seed)
        return train_test_split(ds, _get(desc, "test_fraction", float, 0.25), seed)
    if kind == "idx":
        num_classes = _get(desc, "num_classes", int, None)
        train_ds = load_idx(_get(desc, "train_images", str), _get(desc, "train_labels", str),
                            num_classes, "train")
        test_ds = load_idx(_get(desc, "test_images", str), _get(desc, "test_labels", str),
                           num_classes, "test")
        if _get(desc, "limit_train", int, 0):
            train_ds = train_ds.subset(np.arange(desc["limit_train"]))
        if _get(desc, "limit_test", int, 0):
            test_ds = test_ds.subset(np.arange(desc["limit_test"]))
        return train_ds, test_ds
    if kind == "csv":
        ds = load_csv(_get(desc, "path", str), _get(desc, "num_classes", int, None))
        return train_test_split(ds, _get(desc, "test_fraction", float, 0.25),
                                _get(desc, "seed", int, 0))
    raise InvalidArg(f"unknown dataset kind {kind!r}")


def build_arch(template: dict) -> list[LayerSpec]:
    """Expand an architecture template into a layer spec list."""
    template = _object(template, "arch template")
    t = template.get("type")
    if t == "mlp":
        dims = [_get(template, "in_features", int), *_ints(template, "hidden")]
        specs: list[LayerSpec] = [nw.flatten()]  # accept image or flat features
        for a, b in zip(dims[:-1], dims[1:]):
            specs += [nw.linear(a, b), nw.relu()]
        specs.append(nw.linear(dims[-1], _get(template, "classes", int)))
        return specs
    if t == "convnet":
        hw = _ints(template, "image_hw")
        if len(hw) != 2:
            raise BadSpec(f"spec key 'image_hw' must hold two integers, got {hw!r}")
        h, w = hw
        cin = _get(template, "in_channels", int)
        kernel = _get(template, "kernel", int, 3)
        padding = _get(template, "padding", int, 1)
        use_bn = _get(template, "batchnorm", bool, True)
        specs = []
        for cout in _ints(template, "conv_channels"):
            specs.append(nw.conv(cin, cout, kernel, stride=1, padding=padding))
            if use_bn:
                specs.append(nw.batchnorm(cout))
            specs.append(nw.relu())
            specs.append(nw.maxpool(2))
            h = ((h + 2 * padding - kernel) + 1) // 2
            w = ((w + 2 * padding - kernel) + 1) // 2
            cin = cout
        specs.append(nw.flatten())
        feat = cin * h * w
        for hidden in _ints(template, "hidden", []):
            specs += [nw.linear(feat, hidden), nw.relu()]
            feat = hidden
        specs.append(nw.linear(feat, _get(template, "classes", int)))
        return specs
    if t == "layers":
        try:
            return [LayerSpec.from_dict(d) for d in _get(template, "layers", list)]
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSpec(f"bad layer list ({exc!r})") from exc
    raise InvalidArg(f"unknown arch template {t!r}")


@dataclass
class ExperimentSpec:
    """One experiment cell: data, architecture, ensemble size, and plan."""

    name: str
    dataset: dict
    arch: dict
    k: int = 2
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=20, lr=0.05))
    plan: FusionPlan = field(default_factory=FusionPlan)
    outputs: str | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise InvalidArg("need at least one seed")
        if self.plan.finetune is None:
            self.plan = replace(self.plan, finetune=replace(self.train, epochs=30))

    @staticmethod
    def from_json(doc) -> "ExperimentSpec":
        if isinstance(doc, (str, Path)):
            try:
                doc = json.loads(Path(doc).read_text(encoding="utf-8"))
            except ValueError as exc:
                raise BadSpec(f"spec is not JSON ({exc})") from exc
        doc = _object(doc, "experiment spec")
        train_cfg = _train_config(_get(doc, "train", dict, {}))
        plan_doc = _get(doc, "plan", dict, {})
        ft_doc = _get(plan_doc, "finetune", dict, None)
        finetune = _train_config(ft_doc) if ft_doc else replace(train_cfg, epochs=30)
        if "finetune_epochs" in doc:
            finetune = replace(finetune, epochs=_get(doc, "finetune_epochs", int))
        plan = FusionPlan(
            method=_get(plan_doc, "method", str, "nt"),
            sparsity=_get(plan_doc, "sparsity", float, None),
            pipeline=_get(plan_doc, "pipeline", str, "merge_prune_ft"),
            finetune=finetune,
        )
        return ExperimentSpec(
            name=_get(doc, "name", str),
            dataset=_get(doc, "dataset", dict),
            arch=_get(doc, "arch", dict),
            k=_get(doc, "k", int, 2),
            seeds=tuple(_ints(doc, "seeds", [1, 2, 3, 4, 5])),
            train=train_cfg,
            plan=plan,
            outputs=_get(doc, "outputs", str, None),
        )


def _train_config(doc: dict) -> TrainConfig:
    doc = _object(doc, "train config")
    batch_doc = _get(doc, "batch", dict, {})
    plan = BatchPlan(
        batch_size=_get(batch_doc, "batch_size", int, 64),
        shuffle_seed=_get(batch_doc, "shuffle_seed", int, 0),
        drop_last=_get(batch_doc, "drop_last", bool, False),
    )
    sched_doc = _get(doc, "schedule", dict, None)
    schedule = (StepDecay(_get(sched_doc, "period", int), _get(sched_doc, "factor", float))
                if sched_doc else None)
    return TrainConfig(
        epochs=_get(doc, "epochs", int, 20),
        lr=_get(doc, "lr", float, 0.05),
        momentum=_get(doc, "momentum", float, 0.9),
        schedule=schedule,
        batch=plan,
        seed=_get(doc, "seed", int, 0),
    )


def _map_seeds(fn, seeds):
    workers = int(os.environ.get("NT_THREADS", "1"))
    if workers <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


# Seed streams of one experiment seed: member j trains on stream j; each run
# after a fusion trains on a fixed stream above every member index.
FINETUNE_STREAM = 97
DISTILL_STREAM = 131
MID_FINETUNE_STREAM = 811


def stream_seed(seed: int, stream: int) -> int:
    return seed * 1000 + stream


def train_members(specs: list[LayerSpec], train_ds: Dataset, test_ds: Dataset,
                  k: int, seed: int, cfg: TrainConfig) -> tuple[EnsembleBundle, list[float]]:
    """Train k members from different inits; returns the bundle and test accs."""
    members, accs, seeds = [], [], []
    for j in range(k):
        ms = stream_seed(seed, j)
        net = init_network(specs, RngStream(ms, "init"))
        net, history = train(net, train_ds, test_ds, cfg.reseeded(ms))
        members.append(net)
        accs.append(history.records[-1].test_accuracy if history.records
                    else evaluate(net, test_ds)["accuracy"])
        seeds.append(ms)
    return EnsembleBundle(members, seeds), accs


def ensemble_accuracy(members, ds: Dataset, batch_size: int = 256) -> float:
    correct = 0
    for start in range(0, len(ds), batch_size):
        x = ds.features[start : start + batch_size]
        y = ds.labels[start : start + batch_size]
        logits = average_logits(members, x)
        correct += int((np.argmax(logits, axis=1) == y).sum())
    return correct / len(ds)


def _even_member_quotas(width: int, k: int) -> tuple[int, ...]:
    base, extra = divmod(width, k)
    return tuple(base + (1 if j < extra else 0) for j in range(k))


def _pipeline_fuse(bundle: EnsembleBundle, plan: FusionPlan, train_ds: Dataset,
                   test_ds: Dataset, seed: int):
    """Run the plan's pipeline; returns (fused net, merged_ft_acc series, peak bytes)."""
    reference = bundle.members[0]
    peak = sum(m.num_bytes() for m in bundle.members)
    merged_series: list[float] = []
    if plan.method in ("avg", "align", "nt_iterative", "nt_recursive"):
        fused = fuse(bundle, plan)
        peak += fused.num_bytes()
        return fused, merged_series, peak
    if plan.pipeline == "prune_merge_ft":
        member_widths = {c.units for c in nw.hidden_couplings(reference)}
        if len(member_widths) != 1:
            raise InvalidArg("prune_merge_ft needs uniform hidden widths")
        quotas = _even_member_quotas(member_widths.pop(), bundle.k)
        pruned = prune_concat(bundle.members, KeepPolicy.per_member(quotas))
    elif plan.pipeline == "merge_ft_prune_ft":
        big = concat_fuse(bundle)
        peak += big.num_bytes() + 4 * sum(c.units for c in nw.hidden_couplings(big))
        mid_epochs = plan.finetune.epochs // 2
        mid_cfg = replace(plan.finetune, epochs=mid_epochs).reseeded(
            stream_seed(seed, MID_FINETUNE_STREAM))
        big, mid_history = train(big, train_ds, test_ds, mid_cfg)
        merged_series = [r.test_accuracy for r in mid_history.records]
        pruned = (prune_to_architecture(big, reference) if plan.sparsity is None
                  else magnitude_prune(big, KeepPolicy.sparsity(plan.sparsity)))
    else:  # merge_prune_ft
        pruned = nt_fuse(bundle, plan.sparsity)
    peak += pruned.num_bytes()
    return pruned, merged_series, peak


def _ft_epochs(plan: FusionPlan) -> int:
    epochs = plan.finetune.epochs
    if plan.pipeline == "merge_ft_prune_ft" and plan.method == "nt":
        epochs = epochs - epochs // 2
    return epochs


def _cell(fused: Network, seed: int, metrics: dict[str, float], t0: float,
          train_ds: Dataset, test_ds: Dataset, ft_cfg: TrainConfig) -> SeedRecord:
    """One fused model's record: the context `metrics`, its immediate test
    accuracy and, when `ft_cfg` has epochs, the test accuracy series of
    fine-tuning it with `ft_cfg` on the seed's fine-tune stream. The wall
    clock runs from `t0`."""
    rec = SeedRecord(seed=seed)
    for name, value in metrics.items():
        rec.set_metric(name, value)
    rec.set_metric("immediate_acc", evaluate(fused, test_ds)["accuracy"])
    if ft_cfg.epochs > 0:
        _, history = train(fused, train_ds, test_ds,
                           ft_cfg.reseeded(stream_seed(seed, FINETUNE_STREAM)))
        rec.set_series("finetuned_acc", [r.test_accuracy for r in history.records])
    rec.wall_seconds = time.perf_counter() - t0
    return rec


def _collect(keys: list, make_report, per_seed) -> list[RunReport]:
    """One report per key (`make_report(key)`), filled from each seed's
    (key, record) pairs in seed order."""
    reports = {key: make_report(key) for key in keys}
    for pairs in per_seed:
        for key, rec in pairs:
            reports[key].records.append(rec)
    return [reports[key] for key in keys]


def run_pipeline(spec: ExperimentSpec) -> RunReport:
    """Train k members per seed, fuse per the plan, fine-tune, and report."""
    specs = build_arch(spec.arch)
    train_ds, test_ds = build_dataset(spec.dataset)

    def one_seed(seed: int) -> SeedRecord:
        t0 = time.perf_counter()
        bundle, member_accs = train_members(specs, train_ds, test_ds, spec.k, seed, spec.train)
        fused, merged_series, peak = _pipeline_fuse(bundle, spec.plan, train_ds, test_ds, seed)
        context = {"ensemble_acc": ensemble_accuracy(bundle.members, test_ds),
                   "best_member_acc": max(member_accs)}
        rec = _cell(fused, seed, context, t0, train_ds, test_ds,
                    replace(spec.plan.finetune, epochs=_ft_epochs(spec.plan)))
        if merged_series:
            rec.set_series("merged_ft_acc", merged_series)
        rec.peak_bytes_estimate = peak
        return rec

    method = spec.plan.method if spec.plan.method != "nt" else f"nt/{spec.plan.pipeline}"
    return RunReport(spec.name, method, _map_seeds(one_seed, spec.seeds))


def ablation_multimodel(spec: ExperimentSpec, ks=(2, 4, 8),
                        methods=("nt", "nt_iterative", "nt_recursive")) -> list[RunReport]:
    """Joint vs iterative vs recursive fusion over growing ensemble sizes."""
    specs = build_arch(spec.arch)
    train_ds, test_ds = build_dataset(spec.dataset)
    k_max = max(ks)

    def one_seed(seed: int):
        bundle_all, member_accs = train_members(specs, train_ds, test_ds, k_max, seed, spec.train)
        out = []
        for k in ks:
            members = bundle_all.members[:k]
            bundle = EnsembleBundle(members, bundle_all.member_seeds[:k])
            context = {"ensemble_acc": ensemble_accuracy(members, test_ds),
                       "best_member_acc": max(member_accs[:k])}
            for m in methods:
                t0 = time.perf_counter()
                fused = fuse(bundle, FusionPlan(method=m, finetune=spec.plan.finetune))
                out.append(((k, m), _cell(fused, seed, context, t0, train_ds, test_ds,
                                          spec.plan.finetune)))
        return out

    return _collect([(k, m) for k in ks for m in methods],
                    lambda key: RunReport(f"{spec.name}-k{key[0]}", key[1]),
                    _map_seeds(one_seed, spec.seeds))


def ablation_sweep(axis: str, values, spec: ExperimentSpec) -> list[RunReport]:
    """One report per swept value; axis is width, depth, transplant_fraction,
    or sparsity."""
    axis = axis.lower()
    if axis == "width":
        hidden = spec.arch.get("hidden", [64])
        return [
            run_pipeline(replace(spec, name=f"{spec.name}-width{v}",
                                 arch=dict(spec.arch, hidden=[int(v)] * len(hidden))))
            for v in values
        ]
    if axis == "depth":
        width = spec.arch.get("hidden", [64])[0]
        return [
            run_pipeline(replace(spec, name=f"{spec.name}-depth{v}",
                                 arch=dict(spec.arch, hidden=[width] * int(v))))
            for v in values
        ]
    if axis == "transplant_fraction":
        return _transplant_sweep(values, spec)
    if axis == "sparsity":
        reports = []
        recovered = 1.0 - 1.0 / spec.k
        for v in values:
            rep = run_pipeline(replace(
                spec, name=f"{spec.name}-s{v}",
                plan=replace(spec.plan, method="nt", sparsity=float(v))))
            marker = 1.0 if abs(float(v) - recovered) < 1e-9 else 0.0
            for rec in rep.records:
                rec.set_metric("member_size_recovered", marker)
            reports.append(rep)
        return reports
    raise InvalidArg(f"unknown sweep axis {axis!r}")


def _transplant_sweep(values, spec: ExperimentSpec) -> list[RunReport]:
    specs = build_arch(spec.arch)
    train_ds, test_ds = build_dataset(spec.dataset)

    def one_seed(seed: int):
        bundle, member_accs = train_members(specs, train_ds, test_ds, 2, seed, spec.train)
        recipient, donor = bundle.members
        context = {"recipient_acc": member_accs[0], "donor_acc": member_accs[1]}
        out = []
        for p in values:
            p = float(p)
            t0 = time.perf_counter()
            mixed = transplant_fraction(recipient, donor, p)
            out.append((p, _cell(mixed, seed, context, t0, train_ds, test_ds,
                                 spec.plan.finetune)))
        return out

    return _collect([float(p) for p in values], lambda p: RunReport(spec.name, f"p={p:g}"),
                    _map_seeds(one_seed, spec.seeds))


def failure_case(spec: ExperimentSpec) -> RunReport:
    """Fuse a trained model with a copy of itself: accuracy must drop
    immediately and recover with a few epochs of fine-tuning."""
    specs = build_arch(spec.arch)
    train_ds, test_ds = build_dataset(spec.dataset)

    def one_seed(seed: int) -> SeedRecord:
        t0 = time.perf_counter()
        bundle, accs = train_members(specs, train_ds, test_ds, 1, seed, spec.train)
        model = bundle.members[0]
        self_bundle = EnsembleBundle([model, model.clone()], [seed, seed])
        fused = nt_fuse(self_bundle)
        context = {"member_acc": accs[0],
                   "avg_self_acc": evaluate(vanilla_average(self_bundle), test_ds)["accuracy"]}
        return _cell(fused, seed, context, t0, train_ds, test_ds, spec.plan.finetune)

    return RunReport(spec.name, "nt_self_fusion", _map_seeds(one_seed, spec.seeds))


def compare_methods(spec: ExperimentSpec, methods=("nt", "avg", "align"),
                    kd: KdConfig | None = None) -> list[RunReport]:
    """NT against vanilla averaging and assignment-based align-and-average
    (k=2), with an optional distillation arm per method."""
    if spec.k != 2 and "align" in methods:
        raise InvalidArg("align baseline is limited to k=2")
    specs = build_arch(spec.arch)
    train_ds, test_ds = build_dataset(spec.dataset)
    labels = list(methods) + ([f"{m}+distill" for m in methods] if kd else [])

    def one_seed(seed: int):
        bundle, member_accs = train_members(specs, train_ds, test_ds, spec.k, seed, spec.train)
        context = {"ensemble_acc": ensemble_accuracy(bundle.members, test_ds),
                   "best_member_acc": max(member_accs)}
        out = []
        for m in methods:
            t0 = time.perf_counter()
            fused = fuse(bundle, FusionPlan(method=m, finetune=spec.plan.finetune))
            rec = _cell(fused, seed, context, t0, train_ds, test_ds, spec.plan.finetune)
            out.append((m, rec))
            if kd is not None:  # same context and immediate accuracy, distilled instead
                t0 = time.perf_counter()
                kd_cfg = spec.plan.finetune.reseeded(stream_seed(seed, DISTILL_STREAM))
                _, history = distill(fused, bundle, train_ds, test_ds, kd_cfg, kd)
                krec = SeedRecord(seed=seed, metrics=dict(rec.metrics))
                krec.set_series("finetuned_acc", [r.test_accuracy for r in history.records])
                krec.wall_seconds = time.perf_counter() - t0
                out.append((f"{m}+distill", krec))
        return out

    return _collect(labels, lambda m: RunReport(spec.name, m), _map_seeds(one_seed, spec.seeds))


def _one_hidden_net(width: int, in_dim: int, classes: int, seed: int) -> Network:
    specs = [nw.linear(in_dim, width), nw.relu(), nw.linear(width, classes)]
    return init_network(specs, RngStream(seed, "cost-net"))


def measure_fusion_cost(widths, k: int = 2, in_dim: int = 512, classes: int = 10,
                        repeats: int = 3, methods=("avg", "nt", "align"),
                        align_width_cap: int = 1024, seed: int = 7) -> list[dict]:
    """Median fusion wall time and a peak-live-tensor-bytes estimate per
    (method, width) on one-hidden-layer ensembles.

    The estimate counts input models, outputs and the large tensors a
    method builds on the way (alignment's cost matrix and permuted copy; NT
    gathers its output straight from the members); model bytes are reported
    separately. Alignment is skipped above `align_width_cap` where the cost
    matrix dominates (mirroring how transport-based fusion runs out of
    memory at scale).
    """
    rows = []
    for width in widths:
        members = [_one_hidden_net(width, in_dim, classes, seed + j) for j in range(k)]
        bundle = EnsembleBundle(members, list(range(k)))
        model_bytes = sum(m.num_bytes() for m in members)
        for method in methods:
            if method == "align" and (width > align_width_cap or k != 2):
                continue
            times = []
            peak = 0
            for _ in range(repeats):
                t0 = time.perf_counter()
                if method == "avg":
                    fused = vanilla_average(bundle)
                    peak = model_bytes + fused.num_bytes()
                elif method == "nt":
                    fused = nt_fuse(bundle)
                    peak = model_bytes + fused.num_bytes()
                else:
                    fused = align_average(members[0], members[1])
                    cost_bytes = max(c.units ** 2 * 8 for c in nw.hidden_couplings(members[0]))
                    aligned_copy = members[1].num_bytes()
                    peak = model_bytes + cost_bytes + aligned_copy + fused.num_bytes()
                times.append(time.perf_counter() - t0)
            rows.append({
                "method": method,
                "width": int(width),
                "k": k,
                "seconds": float(np.median(times)),
                "peak_bytes": int(peak),
                "model_bytes": int(model_bytes),
            })
    return rows
