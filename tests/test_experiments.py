"""Experiment orchestration tests at tiny desk scale (trend checks live in
test_acceptance; these cover wiring, determinism, and structural examples)."""

from dataclasses import replace

import numpy as np
import pytest

from ntfusion import experiments
from ntfusion.data import BatchPlan
from ntfusion.errors import BadSpec
from ntfusion.experiments import (
    ExperimentSpec,
    ablation_multimodel,
    ablation_sweep,
    build_arch,
    build_dataset,
    compare_methods,
    failure_case,
    run_pipeline,
    run_spec,
)
from ntfusion.fusion import FusionPlan
from ntfusion.network import LayerKind
from ntfusion.reporting import report_rows
from ntfusion.training import KdConfig, StepDecay, TrainConfig


def tiny_spec(name="tiny", **kw):
    spec = ExperimentSpec(
        name=name,
        dataset={"kind": "blobs", "n": 300, "classes": 3, "dim": 4, "spread": 0.5, "seed": 5},
        arch={"type": "mlp", "in_features": 4, "hidden": [16, 16], "classes": 3},
        k=2,
        seeds=(1, 2),
        train=TrainConfig(epochs=2, lr=0.05, batch=BatchPlan(32)),
        plan=FusionPlan(method="nt", pipeline="merge_prune_ft",
                        finetune=TrainConfig(epochs=3, lr=0.05, batch=BatchPlan(32))),
    )
    return replace(spec, **kw) if kw else spec


class TestBuilders:
    def test_mlp_template(self):
        specs = build_arch({"type": "mlp", "in_features": 8, "hidden": [16, 16], "classes": 4})
        assert specs[0].kind is LayerKind.FLATTEN
        assert specs[-1].dims == (16, 4)

    def test_convnet_template_shapes(self):
        specs = build_arch({"type": "convnet", "in_channels": 1, "image_hw": [12, 12],
                            "conv_channels": [4, 8], "kernel": 3, "padding": 1,
                            "hidden": [32], "classes": 5})
        from ntfusion.network import init_network, forward
        from ntfusion.tensor import RngStream

        net = init_network(specs, RngStream(0, "t"))
        out = forward(net, RngStream(1).normal((2, 1, 12, 12)))
        assert out.shape == (2, 5)

    def test_blobs_and_shapes_descriptors(self):
        tr, te = build_dataset({"kind": "blobs", "n": 100, "classes": 2, "dim": 3,
                                "spread": 0.5, "seed": 1, "test_fraction": 0.3})
        assert len(tr) == 70 and len(te) == 30
        tr, te = build_dataset({"kind": "shapes", "n": 60, "classes": 4, "image": 10,
                                "noise": 0.1, "seed": 2})
        assert tr.features.shape[1:] == (1, 10, 10)

    def test_replace_reruns_post_init(self):
        spec = tiny_spec()
        renamed = replace(spec, name="other", plan=FusionPlan(method="avg"))
        assert renamed.name == "other" and renamed.dataset is spec.dataset
        assert renamed.plan.finetune == replace(spec.train, epochs=30)

    def test_spec_from_json_roundtrip(self, tmp_path):
        import json

        doc = {
            "name": "j", "k": 2, "seeds": [3, 4],
            "dataset": {"kind": "blobs", "n": 100, "classes": 2, "dim": 3,
                        "spread": 0.5, "seed": 1},
            "arch": {"type": "mlp", "in_features": 3, "hidden": [8], "classes": 2},
            "train": {"epochs": 1, "lr": 0.1, "batch": {"batch_size": 16}},
            "plan": {"method": "nt", "pipeline": "merge_prune_ft",
                     "finetune": {"epochs": 2, "lr": 0.05}},
        }
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(doc))
        spec = ExperimentSpec.from_json(json.loads(p.read_text()))
        assert spec.seeds == (3, 4)
        assert spec.plan.finetune.epochs == 2
        assert spec.train.lr == 0.1

    def test_from_json_defaults_match_python_defaults(self):
        keys = {"name": "d", "dataset": {"kind": "blobs"}, "arch": {"type": "mlp"}}
        assert ExperimentSpec.from_json(keys) == ExperimentSpec(**keys)


def spec_doc(**keys):
    """A one-seed pipeline spec document on a small MLP, with `keys` set."""
    return {"name": "doc", "seeds": [1],
            "dataset": {"kind": "blobs", "n": 60, "classes": 3, "dim": 4, "spread": 0.5,
                        "seed": 5},
            "arch": {"type": "mlp", "in_features": 4, "hidden": [8], "classes": 3}, **keys}


def without_empty(doc: dict) -> dict:
    """`doc` with every null or (once emptied) empty object removed."""
    out = {key: without_empty(v) if isinstance(v, dict) else v for key, v in doc.items()}
    return {key: v for key, v in out.items() if v is not None and v != {}}


# A train block that sets every key away from its default.
FULL_TRAIN = {"epochs": 1, "lr": 0.1, "momentum": 0.5, "schedule": {"period": 2, "factor": 0.5},
              "batch": {"batch_size": 16, "drop_last": True}}


class TestSpecReader:
    """Every key a spec sets replaces one default; an absent, null or empty
    key or block keeps it."""

    def test_partial_finetune_block_inherits_the_train_block(self):
        spec = ExperimentSpec.from_json(spec_doc(train=FULL_TRAIN,
                                                 plan={"finetune": {"lr": 0.01}}))
        assert spec.train == TrainConfig(epochs=1, lr=0.1, momentum=0.5,
                                         schedule=StepDecay(2, 0.5),
                                         batch=BatchPlan(16, drop_last=True))
        assert spec.plan.finetune == replace(spec.train, epochs=30, lr=0.01)

    @pytest.mark.parametrize("keys", [
        {"finetune_epochs": None}, {"plan": {"finetune": {}}}, {"k": None, "seeds": None},
        {"plan": {"finetune": None, "method": None, "sparsity": None, "pipeline": None}},
        {"train": {}}, {"train": dict(FULL_TRAIN, lr=None, schedule=None, batch={})},
    ], ids=str)
    def test_null_and_empty_keys_read_as_absent(self, keys):
        doc = spec_doc(**{"train": FULL_TRAIN, **keys})
        assert ExperimentSpec.from_json(doc) == ExperimentSpec.from_json(without_empty(doc))

    @pytest.mark.parametrize("block", ["train", "finetune"])
    def test_empty_schedule_names_its_period(self, block):
        doc = (spec_doc(train={"schedule": {}}) if block == "train"
               else spec_doc(plan={"finetune": {"schedule": {}}}))
        with pytest.raises(BadSpec, match="'period'"):
            ExperimentSpec.from_json(doc)

    def test_empty_kd_block_distills_with_kd_config_defaults(self, monkeypatch):
        seen, real = [], experiments.distill
        monkeypatch.setattr(experiments, "distill", lambda *a: seen.append(a[-1]) or real(*a))
        reports = run_spec(spec_doc(experiment="compare", methods=["avg"], kd={},
                                    train={"epochs": 1}, finetune_epochs=1))
        assert [r.method for r in reports] == ["avg", "avg+distill"]
        assert seen == [KdConfig()]


class TestRunPipeline:
    def test_zero_finetune_has_immediate_only(self):
        spec = tiny_spec(plan=FusionPlan(
            method="nt", finetune=TrainConfig(epochs=0, lr=0.05, batch=BatchPlan(32))))
        rep = run_pipeline(spec)
        for rec in rep.records:
            assert "immediate_acc" in rec.metrics
            assert "finetuned_acc" not in rec.series

    def test_pipelines_share_members_but_differ_in_kept_units(self):
        # Same seeds: local (per-member) vs joint top-N keep sets may differ,
        # but both keep-sets are drawn from the same concatenated rows.
        from ntfusion.experiments import train_members, _pipeline_fuse
        from ntfusion.fusion import concat_fuse
        from dataclasses import replace

        spec = tiny_spec()
        train_ds, test_ds = build_dataset(spec.dataset)
        specs = build_arch(spec.arch)
        bundle, _ = train_members(specs, train_ds, test_ds, 2, 1, spec.train)
        big_rows = concat_fuse(bundle).params[1]["weight"]
        joint, _ = _pipeline_fuse(bundle, spec.plan, train_ds, test_ds, 1)
        local, _ = _pipeline_fuse(bundle, replace(spec.plan, pipeline="prune_merge_ft"),
                                  train_ds, test_ds, 1)
        for net in (joint, local):
            for row in net.params[1]["weight"]:
                assert any(np.array_equal(row, r) for r in big_rows)
        assert joint.arch_id == local.arch_id

    @pytest.mark.parametrize("k", [2, 3])
    def test_prune_merge_ft_keeps_each_member_s_even_share_of_a_convnet(self, k):
        """Hidden widths 4, 8 and 16 differ; each layer keeps one member's
        width, split evenly, the first width % k members one unit more."""
        from ntfusion.experiments import _pipeline_fuse
        from ntfusion.fusion import EnsembleBundle
        from ntfusion.network import hidden_couplings, init_network
        from ntfusion.tensor import RngStream

        spec = tiny_spec(
            k=k, seeds=(1,), train=TrainConfig(epochs=1, lr=0.05, batch=BatchPlan(32)),
            dataset={"kind": "shapes", "n": 80, "classes": 3, "image": 12, "seed": 4},
            arch={"type": "convnet", "image_hw": [12, 12], "in_channels": 1,
                  "conv_channels": [4, 8], "hidden": [16], "classes": 3},
            plan=FusionPlan(pipeline="prune_merge_ft",
                            finetune=TrainConfig(epochs=1, lr=0.05, batch=BatchPlan(32))))
        specs = build_arch(spec.arch)
        bundle = EnsembleBundle([init_network(specs, RngStream(j, "conv")) for j in range(k)])
        fused, _ = _pipeline_fuse(bundle, spec.plan, *build_dataset(spec.dataset), 1)
        assert fused.arch_id == bundle.arch_id
        for c in hidden_couplings(bundle.members[0]):
            share = [c.units // k + (j < c.units % k) for j in range(k)]
            assert np.bincount(fused.origins[c.layer], minlength=k).tolist() == share
        rec = run_pipeline(spec).records[0]
        assert len(rec.series["finetuned_acc"]) == 1

    def test_merge_ft_prune_ft_records_merged_series(self):
        spec = tiny_spec(plan=FusionPlan(
            method="nt", pipeline="merge_ft_prune_ft",
            finetune=TrainConfig(epochs=4, lr=0.05, batch=BatchPlan(32))))
        rep = run_pipeline(spec)
        for rec in rep.records:
            assert len(rec.series["merged_ft_acc"]) == 2
            assert len(rec.series["finetuned_acc"]) == 2

    def test_reruns_identical(self):
        spec = tiny_spec()
        a = run_pipeline(spec)
        b = run_pipeline(spec)
        assert report_rows([a]) == report_rows([b])


class TestAblations:
    def test_multimodel_k2_methods_coincide(self):
        reports = ablation_multimodel(tiny_spec(), ks=(2,),
                                      methods=("nt", "nt_iterative", "nt_recursive"))
        by_method = {r.method: r for r in reports}
        base = by_method["nt"]
        for m in ("nt_iterative", "nt_recursive"):
            other = by_method[m]
            for ra, rb in zip(base.records, other.records):
                assert ra.metrics == rb.metrics
                assert ra.series == rb.series

    def test_width_sweep_produces_one_report_per_value(self):
        reports = ablation_sweep("width", [8, 16], tiny_spec())
        assert [r.experiment for r in reports] == ["tiny-width8", "tiny-width16"]

    def test_depth_sweep(self):
        reports = ablation_sweep("depth", [1, 2], tiny_spec())
        assert len(reports) == 2

    def test_transplant_p0_equals_recipient_exactly(self):
        reports = ablation_sweep("transplant_fraction", [0.0, 0.5], tiny_spec())
        p0 = next(r for r in reports if r.method == "p=0")
        for rec in p0.records:
            assert rec.metrics["immediate_acc"] == rec.metrics["recipient_acc"]

    def test_sparsity_sweep_marks_recovered_size(self):
        reports = ablation_sweep("sparsity", [0.25, 0.5], tiny_spec())
        marks = {r.experiment: r.records[0].metrics["member_size_recovered"]
                 for r in reports}
        assert marks["tiny-s0.25"] == 0.0 and marks["tiny-s0.5"] == 1.0

    @pytest.mark.parametrize("pipeline", ["merge_prune_ft", "merge_ft_prune_ft"])
    def test_sparsity_sweep_trains_members_once_per_seed(self, monkeypatch, pipeline):
        """Every value fuses the same members, and its records are those of a
        pipeline run at that sparsity."""
        from ntfusion import experiments

        spec = tiny_spec(plan=FusionPlan(method="nt", pipeline=pipeline,
                                         finetune=TrainConfig(epochs=2, lr=0.05,
                                                              batch=BatchPlan(32))))
        trained = experiments.train_members
        seeds = []

        def counted(*args):
            seeds.append(args[4])
            return trained(*args)

        monkeypatch.setattr(experiments, "train_members", counted)
        reports = ablation_sweep("sparsity", [0.25, 0.5, 0.6], spec)
        assert seeds == [1, 2]
        monkeypatch.undo()
        for v, report in zip([0.25, 0.5, 0.6], reports):
            alone = run_pipeline(replace(spec, name=f"tiny-s{v}",
                                         plan=replace(spec.plan, sparsity=v)))
            assert (report.experiment, report.method) == (alone.experiment, alone.method)
            for rec, want in zip(report.records, alone.records, strict=True):
                assert rec.metrics["member_size_recovered"] == (1.0 if v == 0.5 else 0.0)
                assert (rec.metrics, rec.series) == (want.metrics, want.series)


class TestFailureCase:
    def test_untrained_self_fusion_changes_outputs(self):
        # Output-difference oracle on a random (untrained) net.
        from ntfusion.experiments import train_members
        from ntfusion.fusion import EnsembleBundle, nt_fuse
        from ntfusion.network import forward, init_network
        from ntfusion.tensor import RngStream

        specs = build_arch(tiny_spec().arch)
        net = init_network(specs, RngStream(3, "m"))
        fused = nt_fuse(EnsembleBundle([net, net.clone()], [0, 0]))
        x = RngStream(4).normal((20, 4))
        assert not np.allclose(forward(fused, x), forward(net, x), atol=1e-4)

    def test_vanilla_self_average_has_zero_drop(self):
        rep = failure_case(tiny_spec())
        for rec in rep.records:
            assert rec.metrics["avg_self_acc"] == rec.metrics["member_acc"]

    def test_report_has_immediate_and_recovery_series(self):
        rep = failure_case(tiny_spec())
        for rec in rep.records:
            assert "immediate_acc" in rec.metrics
            assert len(rec.series["finetuned_acc"]) == 3


class TestCompareMethods:
    def test_three_methods_and_distill_arm(self):
        reports = compare_methods(tiny_spec(), kd=KdConfig(temperature=2.0, soft_weight=1.0))
        methods = [r.method for r in reports]
        assert methods == ["nt", "avg", "align", "nt+distill", "avg+distill", "align+distill"]
        for r in reports:
            for rec in r.records:
                assert len(rec.series["finetuned_acc"]) == 3

    @pytest.mark.parametrize("kd,ft_epochs,passes", [(KdConfig(2.0, 0.5), 1, 1),
                                                      (KdConfig(2.0, 0.5), 0, 0), (None, 1, 0)])
    def test_teachers_run_over_the_training_set_once_per_seed(self, monkeypatch, kd,
                                                              ft_epochs, passes):
        from ntfusion import network

        spec = tiny_spec(plan=FusionPlan(
            method="nt", finetune=TrainConfig(epochs=ft_epochs, lr=0.05, batch=BatchPlan(32))))
        train_rows = len(build_dataset(spec.dataset)[0])  # 225, one chunk; the test set has 75
        forwards = []  # rows of each eval-mode forward; training steps run none
        forward = network.forward

        def counted(net, x, *args):
            forwards.append(len(x))
            return forward(net, x, *args)

        monkeypatch.setattr(network, "forward", counted)
        compare_methods(spec, kd=kd)
        assert forwards.count(train_rows) == passes * spec.k * len(spec.seeds)

    def test_pipeline_arm_records_equal_run_pipeline_s(self):
        """A compare arm fuses through the pipeline path: the same members,
        the same mid fine-tune and the same records as `run_pipeline`."""
        spec = tiny_spec(plan=FusionPlan(
            method="nt", finetune=TrainConfig(epochs=4, lr=0.05, batch=BatchPlan(32))))
        arm, = compare_methods(spec, methods=("nt/merge_ft_prune_ft",))
        alone = run_pipeline(replace(spec, plan=replace(spec.plan, pipeline="merge_ft_prune_ft")))
        assert (arm.experiment, arm.method) == (alone.experiment, alone.method)
        for rec, want in zip(arm.records, alone.records, strict=True):
            assert len(rec.series["merged_ft_acc"]) == 2
            assert (rec.metrics, rec.series) == (want.metrics, want.series)

    def test_pipeline_arm_with_kd_files_plain_arms_then_distill_arms(self):
        spec = tiny_spec(seeds=(1,))
        reports = compare_methods(spec, methods=("nt/prune_merge_ft", "avg"), kd=KdConfig())
        assert [r.method for r in reports] == [
            "nt/prune_merge_ft", "avg", "nt/prune_merge_ft+distill", "avg+distill"]
        plain, distilled = reports[0].records[0], reports[2].records[0]
        alone = run_pipeline(replace(spec, plan=replace(spec.plan, pipeline="prune_merge_ft")))
        assert (plain.metrics, plain.series) == (alone.records[0].metrics,
                                                 alone.records[0].series)
        assert distilled.metrics == plain.metrics  # the same fused model, distilled instead
        assert distilled.series != plain.series

    @pytest.mark.parametrize("methods", [("nt", "avg/prune_merge_ft"), ("nt", "bogus"), ()])
    def test_bad_arm_list_is_refused_before_any_member_trains(self, monkeypatch, methods):
        from ntfusion.errors import InvalidArg

        monkeypatch.setattr(experiments, "train_members", lambda *a: pytest.fail("trained"))
        with pytest.raises(InvalidArg):
            compare_methods(tiny_spec(), methods=methods)
        with pytest.raises(InvalidArg):
            ablation_multimodel(tiny_spec(), ks=(2,), methods=methods)

    def test_align_runs_at_k3(self):
        reports = compare_methods(tiny_spec(k=3), methods=("align",))
        assert [r.method for r in reports] == ["align"]
        assert len(reports[0].records) == 2

    def test_multimodel_spec_runs_align_at_every_k(self):
        reports = run_spec(spec_doc(experiment="multimodel", methods=["nt", "align"], ks=[2, 3],
                                    train={"epochs": 1}, finetune_epochs=1))
        assert [(r.experiment, r.method) for r in reports] == [
            ("doc-k2", "nt"), ("doc-k2", "align"), ("doc-k3", "nt"), ("doc-k3", "align")]


def stream_spec(**kw):
    """Overlapping blobs, so test accuracy moves with the batch order."""
    return tiny_spec(name="streams", seeds=(2,),
                     dataset={"kind": "blobs", "n": 300, "classes": 3, "dim": 4,
                              "spread": 2.0, "seed": 5}, **kw)


def accs(history):
    return [float(np.float32(r.test_accuracy)) for r in history.records]


class TestSeedStreams:
    """Each run after a fusion trains on a fixed stream of the experiment
    seed: fine-tune seed*1000+97, distillation +131, and the wide model's
    mid fine-tune +811. The recorded series must match those runs rebuilt
    by hand, and not the run on a neighbouring stream."""

    def members(self, spec, k):
        from ntfusion.experiments import train_members

        train_ds, test_ds = build_dataset(spec.dataset)
        bundle, _ = train_members(build_arch(spec.arch), train_ds, test_ds, k,
                                  spec.seeds[0], spec.train)
        return bundle, train_ds, test_ds

    def finetuned(self, net, cfg, offset, data, trainer=None, **kw):
        from ntfusion.training import train

        train_ds, test_ds = data
        cfg = cfg.reseeded(2 * 1000 + offset)
        if trainer is None:
            return accs(train(net, train_ds, test_ds, cfg)[1])
        return accs(trainer(net, kw["teacher_logits"], train_ds, test_ds, cfg, kw["kd"])[1])

    def check(self, series, net, cfg, offset, data, **kw):
        assert series == self.finetuned(net, cfg, offset, data, **kw)
        assert series != self.finetuned(net, cfg, offset + 1, data, **kw)

    def test_pipeline_finetune(self):
        from ntfusion.fusion import nt_fuse

        spec = stream_spec()
        bundle, *data = self.members(spec, 2)
        rec = run_pipeline(spec).records[0]
        self.check(rec.series["finetuned_acc"], nt_fuse(bundle), spec.plan.finetune, 97, data)

    def test_pipeline_mid_finetune_and_finetune(self):
        from ntfusion.fusion import concat_fuse
        from ntfusion.pruning import prune_to_architecture
        from ntfusion.training import train

        ft = TrainConfig(epochs=4, lr=0.05, batch=BatchPlan(32))
        spec = stream_spec(plan=FusionPlan(method="nt", pipeline="merge_ft_prune_ft",
                                           finetune=ft))
        bundle, *data = self.members(spec, 2)
        rec = run_pipeline(spec).records[0]
        big = concat_fuse(bundle)
        mid = replace(ft, epochs=2)
        self.check(rec.series["merged_ft_acc"], big, mid, 811, data)
        big, _ = train(big, *data, mid.reseeded(2 * 1000 + 811))
        pruned = prune_to_architecture(big, bundle.members[0])
        self.check(rec.series["finetuned_acc"], pruned, replace(ft, epochs=2), 97, data)

    def test_multimodel_finetune(self):
        from ntfusion.fusion import fuse_iterative

        spec = stream_spec()
        bundle, *data = self.members(spec, 2)
        rep, = ablation_multimodel(spec, ks=(2,), methods=("nt_iterative",))
        self.check(rep.records[0].series["finetuned_acc"], fuse_iterative(bundle),
                   spec.plan.finetune, 97, data)

    def test_transplant_finetune(self):
        from ntfusion.fusion import transplant_fraction

        spec = stream_spec()
        bundle, *data = self.members(spec, 2)
        rep, = ablation_sweep("transplant_fraction", [0.5], spec)
        self.check(rep.records[0].series["finetuned_acc"],
                   transplant_fraction(*bundle.members, 0.5), spec.plan.finetune, 97, data)

    def test_failure_finetune(self):
        from ntfusion.fusion import EnsembleBundle, nt_fuse

        spec = stream_spec()
        bundle, *data = self.members(spec, 1)
        model = bundle.members[0]
        fused = nt_fuse(EnsembleBundle([model, model.clone()]))
        rec = failure_case(spec).records[0]
        self.check(rec.series["finetuned_acc"], fused, spec.plan.finetune, 97, data)

    def test_compare_finetune_and_distill(self):
        from ntfusion.fusion import vanilla_average
        from ntfusion.training import distill, ensemble_logits

        spec = stream_spec()
        kd = KdConfig(temperature=2.0, soft_weight=0.5)
        bundle, *data = self.members(spec, 2)
        plain, distilled = compare_methods(spec, methods=("avg",), kd=kd)
        avg = vanilla_average(bundle)
        self.check(plain.records[0].series["finetuned_acc"], avg, spec.plan.finetune, 97, data)
        self.check(distilled.records[0].series["finetuned_acc"], avg, spec.plan.finetune, 131,
                   data, trainer=distill, teacher_logits=ensemble_logits(bundle.members, data[0]),
                   kd=kd)
        assert distilled.records[0].metrics == plain.records[0].metrics
