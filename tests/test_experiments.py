"""Experiment orchestration tests at tiny desk scale (trend checks live in
test_acceptance; these cover wiring, determinism, and structural examples)."""

import os
from dataclasses import replace

import numpy as np
import pytest

from ntfusion.data import BatchPlan
from ntfusion.experiments import (
    ExperimentSpec,
    ablation_multimodel,
    ablation_sweep,
    build_arch,
    build_dataset,
    compare_methods,
    failure_case,
    measure_fusion_cost,
    run_pipeline,
)
from ntfusion.fusion import FusionPlan
from ntfusion.network import LayerKind
from ntfusion.reporting import report_rows
from ntfusion.training import KdConfig, TrainConfig


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
        spec = ExperimentSpec.from_json(p)
        assert spec.seeds == (3, 4)
        assert spec.plan.finetune.epochs == 2
        assert spec.train.lr == 0.1


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
        joint, _, _ = _pipeline_fuse(bundle, spec.plan, train_ds, test_ds, 1)
        local, _, _ = _pipeline_fuse(bundle, replace(spec.plan, pipeline="prune_merge_ft"),
                                     train_ds, test_ds, 1)
        for net in (joint, local):
            for row in net.params[1]["weight"]:
                assert any(np.array_equal(row, r) for r in big_rows)
        assert joint.arch_id == local.arch_id

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

    def test_nt_threads_does_not_change_results(self):
        spec = tiny_spec()
        serial = report_rows([run_pipeline(spec)])
        os.environ["NT_THREADS"] = "2"
        try:
            threaded = report_rows([run_pipeline(spec)])
        finally:
            del os.environ["NT_THREADS"]
        assert serial == threaded


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

    def test_align_requires_k2(self):
        from ntfusion.errors import InvalidArg

        with pytest.raises(InvalidArg):
            compare_methods(tiny_spec(k=3))


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
        return accs(trainer(net, kw["teachers"], train_ds, test_ds, cfg, kw["kd"])[1])

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
        from ntfusion.training import distill

        spec = stream_spec()
        kd = KdConfig(temperature=2.0, soft_weight=0.5)
        bundle, *data = self.members(spec, 2)
        plain, distilled = compare_methods(spec, methods=("avg",), kd=kd)
        avg = vanilla_average(bundle)
        self.check(plain.records[0].series["finetuned_acc"], avg, spec.plan.finetune, 97, data)
        self.check(distilled.records[0].series["finetuned_acc"], avg, spec.plan.finetune, 131,
                   data, trainer=distill, teachers=bundle, kd=kd)
        assert distilled.records[0].metrics == plain.records[0].metrics


class TestFusionCost:
    def test_orderings_and_scaling(self):
        rows = measure_fusion_cost([64, 128], k=2, in_dim=32, classes=4, repeats=3,
                                   seed=11)
        t = {(r["method"], r["width"]): r["seconds"] for r in rows}
        for width in (64, 128):
            assert t[("avg", width)] < t[("nt", width)]
            assert t[("nt", width)] < t[("align", width)]

    def test_peak_bytes_within_three_models(self):
        rows = measure_fusion_cost([256], k=2, in_dim=64, classes=4, repeats=1, seed=12)
        nt = next(r for r in rows if r["method"] == "nt")
        assert nt["peak_bytes"] <= 3 * nt["model_bytes"]

    def test_align_skipped_above_cap(self):
        rows = measure_fusion_cost([64, 2048], k=2, in_dim=16, classes=4, repeats=1,
                                   align_width_cap=1024, seed=13)
        assert not any(r["method"] == "align" and r["width"] == 2048 for r in rows)
