"""Declarative fusion experiments: order-of-operations pipelines, multi-model
and sweep ablations, the self-fusion failure case and baseline comparisons,
each runnable from one JSON spec document through `run_spec`.

Every experiment is reproducible from (spec, seeds): datasets, inits, batch
orders, and fine-tuning are all driven by counter-based streams. Every kind
runs through one driver, `_drive`, which runs the seeds serially, in seed
order, and times each record. Every model fused by a plan (in pipelines,
compare, multimodel and the sparsity sweep) is an arm of `_fuse_arms`, named
`method[/pipeline]`; each driver builds every plan before any member trains.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import network as nw
from .data import (
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
    concat_fuse,
    fuse,
    transplant_fraction,
    vanilla_average,
)
from .network import LayerSpec, Network, init_network
from .pruning import KeepPolicy, magnitude_prune
from .reporting import RunReport, SeedRecord
from .tensor import RngStream
from .training import (KdConfig, StepDecay, TrainConfig, distill, ensemble_logits, evaluate,
                       train)


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
    if not _is_kind(value, kind):
        raise BadSpec(f"spec key {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return float(value) if kind is float else value


def _given(doc: dict, **kinds) -> dict:
    """The keys `kinds` names that `doc` sets (not null), each read as its kind,
    a kind [t] as a tuple of `t`s: passed over defaults, they replace only those."""
    return {key: tuple(_list(doc, key, *kind)) if isinstance(kind, list) else _get(doc, key, kind)
            for key, kind in kinds.items() if doc.get(key) is not None}


def _is_kind(value, kind: type) -> bool:
    """JSON has no NaN or Infinity, which Python's `json` parses: a float is
    finite, and an integer given for one converts to a finite float."""
    return (isinstance(value, _JSON_KINDS[kind]) and (kind is bool or not isinstance(value, bool))
            and (kind is not float or abs(value) <= sys.float_info.max))


def _items(values: list, kind: type, what: str) -> list:
    """`values` unchanged once every item is a JSON value of `kind`."""
    if not all(_is_kind(v, kind) for v in values):
        raise BadSpec(f"{what} must be a list of JSON {kind.__name__}s, got {values!r}")
    return values


def _list(doc: dict, key: str, item_kind: type, default=_REQUIRED) -> list:
    return _items(_get(doc, key, list, default), item_kind, f"spec key {key!r}")


def _distinct(values, what: str) -> None:
    """Refuse an empty list, which would train members for no report, and
    repeated values: each one names a report cell, and a repeat would fill
    its cell twice."""
    if not values:
        raise InvalidArg(f"{what} must name at least one value")
    if len(set(values)) != len(values):
        raise InvalidArg(f"{what} must not repeat a value, got {list(values)!r}")


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise BadSpec(f"{what} must be a JSON object, got {doc!r}")
    return doc


# The keys each dataset kind reads besides "kind"; any other key is refused, not ignored.
_DATASET_KEYS = {
    "idx": {"train_images", "train_labels", "test_images", "test_labels", "num_classes",
            "limit_train", "limit_test"},
    "blobs": {"n", "classes", "dim", "spread", "seed", "test_fraction"},
    "shapes": {"n", "classes", "image", "noise", "seed", "test_fraction"},
    "csv": {"path", "num_classes", "seed", "test_fraction"},
}


def build_dataset(desc: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) from a JSON-able descriptor."""
    desc = _object(desc, "dataset descriptor")
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _DATASET_KEYS:
        raise InvalidArg(f"unknown dataset kind {kind!r}")
    unread = sorted(set(desc) - _DATASET_KEYS[kind] - {"kind"})
    if unread:
        raise BadSpec(f"dataset kind {kind!r} never reads spec key {unread[0]!r}")
    if kind == "idx":
        num_classes = _get(desc, "num_classes", int, None)
        train_ds = load_idx(_get(desc, "train_images", str), _get(desc, "train_labels", str),
                            num_classes)
        test_ds = load_idx(_get(desc, "test_images", str), _get(desc, "test_labels", str),
                           num_classes)
        return (_first_rows(train_ds, _get(desc, "limit_train", int, 0), "limit_train"),
                _first_rows(test_ds, _get(desc, "limit_test", int, 0), "limit_test"))
    if kind == "blobs":
        seed = _get(desc, "seed", int)
        ds = synth_blobs(_get(desc, "n", int), _get(desc, "classes", int), _get(desc, "dim", int),
                         _get(desc, "spread", float), seed)
    elif kind == "shapes":
        seed = _get(desc, "seed", int)
        ds = synth_shapes(_get(desc, "n", int), _get(desc, "classes", int), seed=seed,
                          **_given(desc, image=int, noise=float))
    else:  # csv
        ds = load_csv(_get(desc, "path", str), _get(desc, "num_classes", int, None))
        seed = _get(desc, "seed", int, 0)
    return train_test_split(ds, _get(desc, "test_fraction", float, 0.25), seed)


def _first_rows(ds: Dataset, limit: int, key: str) -> Dataset:
    """The first `limit` rows of `ds`; 0 keeps them all."""
    if not 0 <= limit <= len(ds):
        raise BadSpec(f"spec key {key!r} must be 0 (no limit) or 1..{len(ds)}, got {limit}")
    return ds.subset(np.arange(limit)) if limit else ds


def build_arch(template: dict) -> list[LayerSpec]:
    """Expand an architecture template into a layer spec list."""
    template = _object(template, "arch template")
    t = template.get("type")
    if t == "mlp":
        dims = [_get(template, "in_features", int), *_list(template, "hidden", int)]
        specs: list[LayerSpec] = [nw.flatten()]  # accept image or flat features
        for a, b in zip(dims[:-1], dims[1:]):
            specs += [nw.linear(a, b), nw.relu()]
        specs.append(nw.linear(dims[-1], _get(template, "classes", int)))
        return specs
    if t == "convnet":
        hw = _list(template, "image_hw", int)
        if len(hw) != 2:
            raise BadSpec(f"spec key 'image_hw' must hold two integers, got {hw!r}")
        h, w = hw
        cin = _get(template, "in_channels", int)
        kernel = _get(template, "kernel", int, 3)
        padding = _get(template, "padding", int, 1)
        use_bn = _get(template, "batchnorm", bool, True)
        specs = []
        for cout in _list(template, "conv_channels", int):
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
        for hidden in _list(template, "hidden", int, []):
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


# The train block's defaults; the default fine-tune is the train block for 30 epochs.
_TRAIN = TrainConfig(epochs=20, lr=0.05)


@dataclass
class ExperimentSpec:
    """One experiment cell: data, architecture, ensemble size, and plan; a
    plan without a fine-tune gets the default one, `train` for 30 epochs."""

    name: str
    dataset: dict
    arch: dict
    k: int = 2
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    train: TrainConfig = _TRAIN
    plan: FusionPlan = field(default_factory=FusionPlan)

    def __post_init__(self) -> None:
        _distinct(self.seeds, "seeds")
        if self.k < 2:
            raise InvalidArg(f"fusion needs k >= 2 members, got k={self.k}")
        if self.plan.finetune is None:
            self.plan = replace(self.plan, finetune=replace(self.train, epochs=30))

    @staticmethod
    def from_json(doc: dict) -> "ExperimentSpec":
        """The spec a parsed JSON document describes: each key it sets replaces
        one default, the train block's `_TRAIN` and `plan.finetune`'s the
        default fine-tune, and an absent or null key, or an empty block,
        keeps it. An empty `seeds` list is refused."""
        doc = _object(doc, "experiment spec")
        plan_doc = _get(doc, "plan", dict, {})
        name = _get(doc, "name", str)
        if "\r" in name:  # the report csv writes it bare, and a csv reader ends the row there
            raise BadSpec(f"spec key 'name' must not hold a carriage return, got {name!r}")
        spec = ExperimentSpec(
            name=name,
            dataset=_get(doc, "dataset", dict),
            arch=_get(doc, "arch", dict),
            train=_train_config(_get(doc, "train", dict, {}), _TRAIN),
            plan=FusionPlan(**_given(plan_doc, method=str, sparsity=float, pipeline=str)),
            **_given(doc, k=int, seeds=[int]),
        )
        finetune = _train_config(_get(plan_doc, "finetune", dict, {}), spec.plan.finetune)
        spec.plan = replace(spec.plan, finetune=replace(
            finetune, epochs=_get(doc, "finetune_epochs", int, finetune.epochs)))
        return spec


def _train_config(doc: dict, base: TrainConfig) -> TrainConfig:
    """`base` with the keys a train block sets replaced; the rest keep
    `base`'s settings, and a schedule needs both `period` and `factor`."""
    doc = _object(doc, "train config")
    batch_doc = _get(doc, "batch", dict, {})
    if "seed" in doc or "shuffle_seed" in batch_doc:  # each run seeds its own batch order
        raise BadSpec("spec keys 'seed' and 'batch.shuffle_seed' of a train block are never read")
    given = _given(doc, epochs=int, lr=float, momentum=float, schedule=dict)
    if "schedule" in given:
        sched = given["schedule"]
        given["schedule"] = StepDecay(_get(sched, "period", int), _get(sched, "factor", float))
    batch = replace(base.batch, **_given(batch_doc, batch_size=int, drop_last=bool))
    return replace(base, batch=batch, **given)


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


def ensemble_accuracy(members, ds: Dataset) -> float:
    """Accuracy of the argmax of `ensemble_logits` (first index wins ties)."""
    predicted = np.argmax(ensemble_logits(members, ds), axis=1)
    return int((predicted == ds.labels).sum()) / len(ds)


def _pipeline_fuse(bundle: EnsembleBundle, plan: FusionPlan, train_ds: Dataset,
                   test_ds: Dataset, seed: int):
    """Run the plan's pipeline; returns (fused net, merged_ft_acc series). The
    series holds one accuracy per epoch of the wide model's mid fine-tune,
    which only `merge_ft_prune_ft` runs; `fuse` does every other pipeline."""
    if plan.pipeline != "merge_ft_prune_ft":
        return fuse(bundle, plan), []
    big = concat_fuse(bundle)
    mid_cfg = replace(plan.finetune, epochs=plan.finetune.epochs // 2).reseeded(
        stream_seed(seed, MID_FINETUNE_STREAM))
    big, mid_history = train(big, train_ds, test_ds, mid_cfg)
    return (magnitude_prune(big, KeepPolicy.sparsity(plan.sparsity)),
            [r.test_accuracy for r in mid_history.records])


def _cell(fused: Network, seed: int, metrics: dict[str, float], data: tuple[Dataset, Dataset],
          ft_cfg: TrainConfig, kd: KdConfig | None = None, teacher_logits=None) -> SeedRecord:
    """One fused model's record: the context `metrics`, its immediate test
    accuracy and, when `ft_cfg` has epochs, the test accuracy series of
    fine-tuning it with `ft_cfg`: on the seed's fine-tune stream, or, given
    `kd`, distilled from `teacher_logits` (one row per training row) on the
    seed's distillation stream."""
    train_ds, test_ds = data
    rec = SeedRecord(seed=seed)
    for name, value in metrics.items():
        rec.set_metric(name, value)
    rec.set_metric("immediate_acc", evaluate(fused, test_ds)["accuracy"])
    if ft_cfg.epochs > 0:
        cfg = ft_cfg.reseeded(stream_seed(seed, FINETUNE_STREAM if kd is None else DISTILL_STREAM))
        _, history = (train(fused, train_ds, test_ds, cfg) if kd is None
                      else distill(fused, teacher_logits, train_ds, test_ds, cfg, kd))
        rec.set_series("finetuned_acc", [r.test_accuracy for r in history.records])
    return rec


def _drive(spec: ExperimentSpec, k: int, keys: list[tuple[str, str]], cells) -> list[RunReport]:
    """The driver of every experiment kind: one report per (experiment,
    method) key, filled seed by seed in seed order. Per seed it trains k
    members and files each (key, record) that `cells(bundle, member_accs,
    (train, test), seed)` yields. A record's wall time is its seed's member
    training plus the work since the previous record (or since the members)."""
    specs = build_arch(spec.arch)
    data = build_dataset(spec.dataset)
    reports = {key: RunReport(*key) for key in keys}
    for seed in spec.seeds:
        start = time.perf_counter()
        bundle, member_accs = train_members(specs, *data, k, seed, spec.train)
        lap = time.perf_counter()
        members_s = lap - start
        for key, rec in cells(bundle, member_accs, data, seed):
            start, lap = lap, time.perf_counter()
            rec.wall_seconds = members_s + lap - start
            reports[key].records.append(rec)
    return [reports[key] for key in keys]


def _arm_plans(names, finetune: TrainConfig) -> list[FusionPlan]:
    """The plan each arm name `method[/pipeline]` names, with `finetune`; an
    empty list, a repeat or a name that names no plan is refused."""
    _distinct(names, "fusion methods")
    return [FusionPlan(**dict(zip(("method", "pipeline"), name.split("/", 1))),
                       finetune=finetune) for name in names]


def _fuse_arms(spec: ExperimentSpec, arms, kd: KdConfig | None = None) -> list[RunReport]:
    """One report per arm (report key, k, plan) and, given `kd`, then one per
    arm's `+distill` twin. Per seed, an arm fuses the first k members through
    `_pipeline_fuse`, records their `ensemble_acc` and `best_member_acc`
    (once per k), and fine-tunes for the epochs the pipeline left; a plan
    that sets a sparsity also records `member_size_recovered`. The twin
    distills the same fused model from the k members' logits instead."""
    keys = [key for key, _, _ in arms]
    keys += [(e, f"{m}+distill") for e, m in keys] if kd is not None else []

    def cells(bundle_all, member_accs, data, seed):
        context, teachers = {}, {}  # each per k
        for (experiment, method), k, plan in arms:
            bundle = EnsembleBundle(bundle_all.members[:k], bundle_all.member_seeds[:k])
            if k not in context:
                context[k] = {"ensemble_acc": ensemble_accuracy(bundle.members, data[1]),
                              "best_member_acc": max(member_accs[:k])}
            fused, merged_series = _pipeline_fuse(bundle, plan, *data, seed)
            metrics = dict(context[k], **({} if plan.sparsity is None else {
                "member_size_recovered": float(fused.arch_id == bundle.arch_id)}))
            ft = replace(plan.finetune, epochs=plan.finetune.epochs - len(merged_series))
            if kd is not None and ft.epochs > 0 and k not in teachers:
                teachers[k] = ensemble_logits(bundle.members, data[0])
            for label, arm_kd in [(method, None)] + ([(f"{method}+distill", kd)] if kd else []):
                rec = _cell(fused, seed, metrics, data, ft, arm_kd, teachers.get(k))
                if merged_series:
                    rec.set_series("merged_ft_acc", merged_series)
                yield (experiment, label), rec

    return _drive(spec, max(k for _, k, _ in arms), keys, cells)


def run_pipeline(spec: ExperimentSpec) -> RunReport:
    """Train k members per seed, fuse per the plan, fine-tune, and report."""
    method = spec.plan.method
    key = (spec.name, method if method != "nt" else f"nt/{spec.plan.pipeline}")
    return _fuse_arms(spec, [(key, spec.k, spec.plan)])[0]


def ablation_multimodel(spec: ExperimentSpec, ks=(2, 4, 8),
                        methods=("nt", "nt_iterative", "nt_recursive")) -> list[RunReport]:
    """Each arm (`compare_methods`' names) at each ensemble size k, on the first
    k members of one set per seed; by default joint vs iterative vs recursive."""
    _distinct(ks, "ensemble sizes")
    if min(ks) < 2:
        raise InvalidArg(f"need ensemble sizes of at least 2, got {list(ks)!r}")
    plans = _arm_plans(methods, spec.plan.finetune)
    return _fuse_arms(spec, [((f"{spec.name}-k{k}", m), k, plan)
                             for k in ks for m, plan in zip(methods, plans)])


def ablation_sweep(axis: str, values, spec: ExperimentSpec) -> list[RunReport]:
    """One report per swept value; axis is width, depth, transplant_fraction,
    or sparsity."""
    axis = axis.lower()
    _items(values, int if axis in ("width", "depth") else float, f"{axis} sweep values")
    _distinct(values, f"{axis} sweep values")
    if axis in ("width", "depth"):
        hidden = _list(spec.arch, "hidden", int, [])  # a convnet's default; an MLP must set it
        if not hidden:
            raise BadSpec(f"a {axis} sweep resizes the 'hidden' widths, and the arch has none")
        return [run_pipeline(replace(spec, name=f"{spec.name}-{axis}{v}", arch=dict(
            spec.arch, hidden=[v] * len(hidden) if axis == "width" else [hidden[0]] * v)))
            for v in values]
    if axis == "transplant_fraction":
        return _transplant_sweep(values, spec)
    if axis == "sparsity":  # every value fuses the same members
        plans = [replace(spec.plan, method="nt", sparsity=float(v)) for v in values]
        return _fuse_arms(spec, [((f"{spec.name}-s{v}", f"nt/{plan.pipeline}"), spec.k, plan)
                                 for v, plan in zip(values, plans)])
    raise InvalidArg(f"unknown sweep axis {axis!r}")


def _transplant_sweep(values, spec: ExperimentSpec) -> list[RunReport]:
    labels = [f"p={float(p):g}" for p in values]  # distinct values can share a label
    _distinct(labels, "transplant_fraction sweep labels")

    def cells(bundle, member_accs, data, seed):
        recipient, donor = bundle.members
        context = {"recipient_acc": member_accs[0], "donor_acc": member_accs[1]}
        for p, label in zip(values, labels):
            mixed = transplant_fraction(recipient, donor, float(p))
            yield (spec.name, label), _cell(mixed, seed, context, data, spec.plan.finetune)

    return _drive(spec, 2, [(spec.name, label) for label in labels], cells)


def failure_case(spec: ExperimentSpec) -> RunReport:
    """Fuse a trained model with a copy of itself: accuracy must drop
    immediately and recover with a few epochs of fine-tuning."""
    key = (spec.name, "nt_self_fusion")

    def cells(bundle, member_accs, data, seed):
        model = bundle.members[0]
        self_bundle = EnsembleBundle([model, model.clone()], [seed, seed])
        context = {"member_acc": member_accs[0],
                   "avg_self_acc": evaluate(vanilla_average(self_bundle), data[1])["accuracy"]}
        yield key, _cell(fuse(self_bundle, FusionPlan()), seed, context, data,
                         spec.plan.finetune)

    return _drive(spec, 1, [key], cells)[0]


def compare_methods(spec: ExperimentSpec, methods=("nt", "avg", "align"),
                    kd: KdConfig | None = None) -> list[RunReport]:
    """NT against vanilla averaging and assignment-based align-and-average
    by default. Each method is an arm name `method[/pipeline]` (say `avg` or
    `nt/merge_ft_prune_ft`) fused as `run_pipeline` fuses that plan, with a
    `+distill` twin given `kd`; every name is checked before any training."""
    plans = _arm_plans(methods, spec.plan.finetune)
    return _fuse_arms(spec, [((spec.name, m), spec.k, plan) for m, plan in zip(methods, plans)],
                      kd)


# Spec keys a driver never reads, because it picks its own fusion methods and
# member count or sets the keys itself: a spec that sets one is refused.
_OWN_FUSION = ("plan.method", "plan.pipeline", "plan.sparsity")
_UNREAD_KEYS = {"multimodel": ("k", *_OWN_FUSION), "compare": _OWN_FUSION,
                "failure": ("k", *_OWN_FUSION), "transplant_fraction sweep": ("k", *_OWN_FUSION),
                "sparsity sweep": ("plan.method", "plan.sparsity")}


def run_spec(doc: dict) -> list[RunReport]:
    """The reports of the experiment a parsed JSON spec document describes.

    `experiment` picks the driver (default "pipeline"; also "multimodel",
    "sweep", "failure" and "compare"), and the driver reads its own keys:
    `ks` and `methods` (multimodel), `axis` and `values` (sweep), `methods`
    and `kd` (compare, whose distill arms run when it is set); `methods`
    holds arm names `method[/pipeline]`. Each key set replaces one default,
    and an absent or null key, or an empty block, keeps it: the driver's for
    `ks` and `methods`, `KdConfig`'s for `kd`'s keys. An empty list, an arm
    name that names no plan and a key the driver never reads (`_UNREAD_KEYS`,
    checked before any key is parsed) are refused before any member trains.
    """
    doc = _object(doc, "experiment spec")
    kind = _get(doc, "experiment", str, "pipeline")
    what = f"{_get(doc, 'axis', str, '').lower()} sweep" if kind == "sweep" else kind
    given = set(doc) | {f"plan.{key}" for key in _get(doc, "plan", dict, {})}
    unread = [key for key in _UNREAD_KEYS.get(what, ()) if key in given]
    if unread:
        raise BadSpec(f"a {what} experiment never reads spec keys {unread}")
    spec = ExperimentSpec.from_json(doc)
    if kind == "pipeline":
        return [run_pipeline(spec)]
    if kind == "failure":
        return [failure_case(spec)]
    if kind == "multimodel":
        return ablation_multimodel(spec, **_given(doc, ks=[int], methods=[str]))
    if kind == "sweep":
        return ablation_sweep(_get(doc, "axis", str), _get(doc, "values", list), spec)
    if kind == "compare":
        kd_doc = _get(doc, "kd", dict, None)
        kd = (None if kd_doc is None
              else KdConfig(**_given(kd_doc, temperature=float, soft_weight=float)))
        return compare_methods(spec, kd=kd, **_given(doc, methods=[str]))
    raise BadSpec(f"unknown experiment kind {kind!r}")
