"""Training loop, losses, and distillation plumbing tests."""

import numpy as np
import pytest

from ntfusion import network as nw, training
from ntfusion.data import BatchPlan, synth_blobs, synth_shapes, train_test_split
from ntfusion.errors import InvalidArg, NonFiniteLoss, ShapeMismatch
from ntfusion.experiments import _TRAIN, ensemble_accuracy
from ntfusion.losses import cross_entropy, kd as kd_loss_and_grad
from ntfusion.network import Network, init_network
from ntfusion.tensor import RngStream
from ntfusion.training import (
    KdConfig,
    StepDecay,
    TrainConfig,
    distill,
    ensemble_logits,
    evaluate,
    train,
)

import oracles
from oracles import assert_same_network, check_gradients, distill as distill_oracle, rel_error


def kd_loss(student_logits, teacher_logits, labels, kd):
    return kd_loss_and_grad(student_logits, teacher_logits, labels,
                            kd.temperature, kd.soft_weight)[0]


def blob_task(seed=21, n=200, classes=3, dim=2, spread=0.1):
    ds = synth_blobs(n, classes, dim, spread, seed=seed)
    return train_test_split(ds, 0.5, seed=seed)


def mlp(dims, seed=0):
    specs = []
    for a, b in zip(dims[:-2], dims[1:-1]):
        specs += [nw.linear(a, b), nw.relu()]
    specs.append(nw.linear(dims[-2], dims[-1]))
    return init_network(specs, RngStream(seed, "init"))


def conv_bn(seed):
    specs = [nw.conv(1, 3, 3, stride=1, padding=1), nw.batchnorm(3), nw.relu(), nw.maxpool(2),
             nw.flatten(), nw.linear(3 * 4 * 4, 4)]
    return init_network(specs, RngStream(seed, "init"))


class TestTrain:
    def test_zero_epochs_identity(self):
        train_ds, test_ds = blob_task()
        net = mlp([2, 8, 3], seed=1)
        out, history = train(net, train_ds, test_ds, TrainConfig(epochs=0, lr=0.1))
        assert history.records == []
        for a, b in zip(out.params, net.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_single_step_matches_hand_update(self):
        train_ds, test_ds = blob_task(n=4)
        net = mlp([2, 3], seed=2)
        cfg = TrainConfig(epochs=1, lr=0.05, momentum=0.9,
                          batch=BatchPlan(batch_size=4, shuffle_seed=0))
        batch = list(__import__("ntfusion.data", fromlist=["batches"]).batches(
            train_ds, cfg.batch, 0))[0]
        _, grads = nw.backward(net.clone(), batch[0], lambda z: cross_entropy(z, batch[1]))
        trained, _ = train(net, train_ds, test_ds, cfg)
        for li in range(len(net.params)):
            for key in grads[li]:
                want = net.params[li][key] - np.float32(cfg.lr) * grads[li][key]
                np.testing.assert_array_equal(trained.params[li][key], want)

    def test_momentum_two_step_closed_form(self):
        train_ds, test_ds = blob_task(n=4)
        net = mlp([2, 3], seed=3)
        cfg = TrainConfig(epochs=2, lr=0.05, momentum=0.9,
                          batch=BatchPlan(batch_size=4, shuffle_seed=0))
        from ntfusion.data import batches

        # Hand-roll both epochs: v <- m*v - lr*g ; w <- w + v.
        hand = net.clone()
        velocity = [{k: np.zeros_like(v) for k, v in p.items()} for p in hand.params]
        for epoch in range(2):
            bx, by = list(batches(train_ds, cfg.batch, epoch))[0]
            _, grads = nw.backward(hand, bx, lambda z: cross_entropy(z, by))
            for p, v, g in zip(hand.params, velocity, grads):
                for key in g:
                    v[key] = np.float32(cfg.momentum) * v[key] - np.float32(cfg.lr) * g[key]
                    p[key] = p[key] + v[key]
        trained, _ = train(net, train_ds, test_ds, cfg)
        for li in range(len(net.params)):
            for key in trained.params[li]:
                assert rel_error(trained.params[li][key], hand.params[li][key]) <= 1e-6

    def test_learns_separable_blobs(self):
        train_ds, test_ds = blob_task(seed=31, n=200, classes=3, dim=2, spread=0.1)
        # Nearest-centroid oracle: the task itself is ~perfectly solvable.
        cents = np.stack([train_ds.features[train_ds.labels == c].mean(axis=0)
                          for c in range(3)])
        d = ((test_ds.features[:, None] - cents[None]) ** 2).sum(axis=2)
        assert (np.argmin(d, axis=1) == test_ds.labels).mean() >= 0.99
        net = mlp([2, 16, 3], seed=4)
        cfg = TrainConfig(epochs=20, lr=0.1, batch=BatchPlan(batch_size=16, shuffle_seed=1))
        _, history = train(net, train_ds, test_ds, cfg)
        assert history.records[-1].test_accuracy >= 0.95

    def test_bit_identical_reruns(self):
        train_ds, test_ds = blob_task(seed=41)
        cfg = TrainConfig(epochs=3, lr=0.05, batch=BatchPlan(batch_size=16, shuffle_seed=7))
        a, _ = train(mlp([2, 8, 3], seed=5), train_ds, test_ds, cfg)
        b, _ = train(mlp([2, 8, 3], seed=5), train_ds, test_ds, cfg)
        for pa, pb in zip(a.params, b.params):
            for key in pa:
                np.testing.assert_array_equal(pa[key], pb[key])

    def test_step_decay_schedule(self):
        cfg = TrainConfig(epochs=5, lr=0.8, schedule=StepDecay(period=2, factor=0.5))
        assert [cfg.lr_at(e) for e in range(5)] == [0.8, 0.8, 0.4, 0.4, 0.2]

    @pytest.mark.parametrize("period,factor", [(0, 0.5), (-1, 0.5), (1, 0.0), (2, -0.5),
                                               (1, float("nan")), (1, float("inf"))])
    def test_step_decay_refuses_bad_period_and_factor(self, period, factor):
        """A period below 1 divides by zero or raises the rate; a factor at
        or below zero zeroes or flips it, and a non-finite one poisons it."""
        with pytest.raises(InvalidArg, match="schedule"):
            StepDecay(period, factor)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_and_temperature_refused(self, value):
        """Refused at once, not later as a misleading `NonFiniteLoss`."""
        with pytest.raises(InvalidArg, match="lr"):
            TrainConfig(epochs=1, lr=value)
        with pytest.raises(InvalidArg, match="temperature"):
            KdConfig(temperature=value)

    def test_default_batch_is_the_spec_default(self):
        assert TrainConfig(epochs=1, lr=0.1).batch == BatchPlan(batch_size=64)
        assert _TRAIN.batch == TrainConfig(epochs=1, lr=0.1).batch

    @pytest.mark.parametrize("n,plan", [(0, BatchPlan(batch_size=4)),
                                        (3, BatchPlan(batch_size=4, drop_last=True))])
    def test_no_batch_refused(self, n, plan):
        """A training set that yields no batch would run epochs of nothing."""
        train_ds, test_ds = blob_task()
        net = mlp([2, 8, 3], seed=1)
        cfg = TrainConfig(epochs=1, lr=0.1, batch=plan)
        small = train_ds.subset(np.arange(n))
        with pytest.raises(InvalidArg, match="no batch"):
            train(net, small, test_ds, cfg)
        with pytest.raises(InvalidArg, match="no batch"):
            distill(net, np.zeros((n, 3), np.float32), small, test_ds, cfg, KdConfig(2.0, 1.0))

    def test_divergence_raises_nonfinite(self):
        train_ds, test_ds = blob_task(seed=51)
        net = mlp([2, 8, 3], seed=6)
        cfg = TrainConfig(epochs=5, lr=1e8, batch=BatchPlan(batch_size=16))
        with pytest.raises(NonFiniteLoss):
            train(net, train_ds, test_ds, cfg)


class TestEvaluate:
    def test_constant_logits_tie_break(self):
        net = Network([nw.linear(2, 2)],
                      [{"weight": np.zeros((2, 2), np.float32),
                        "bias": np.zeros(2, np.float32)}])
        ds = synth_blobs(10, 2, 2, 1.0, seed=61)
        want = (ds.labels == 0).mean()  # argmax of equal logits picks class 0
        assert evaluate(net, ds)["accuracy"] == pytest.approx(want)

    def test_perfect_predictor(self):
        ds = synth_blobs(30, 3, 3, 0.01, seed=62)
        cents = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        # Linear layer scoring -|x - c|^2 expanded: 2 c.x - |c|^2
        w = (2 * cents).astype(np.float32)
        b = (-(cents ** 2).sum(axis=1)).astype(np.float32)
        net = Network([nw.linear(3, 3)], [{"weight": w, "bias": b}])
        assert evaluate(net, ds)["accuracy"] == 1.0

    def test_matches_scalar_loop_oracle(self, monkeypatch):
        ds = synth_blobs(23, 3, 4, 1.0, seed=63)
        net = mlp([4, 6, 3], seed=7)
        monkeypatch.setattr(training, "_EVAL_ROWS", 5)  # five chunks, the last partial
        got = evaluate(net, ds)
        correct = 0
        loss_sum = 0.0
        for i in range(len(ds)):
            logits = nw.forward(net, ds.features[i : i + 1], "eval")
            if int(np.argmax(logits[0])) == ds.labels[i]:
                correct += 1
            loss_sum += cross_entropy(logits, ds.labels[i : i + 1])[0]
        assert got["accuracy"] == pytest.approx(correct / len(ds))
        assert got["mean_loss"] == pytest.approx(loss_sum / len(ds), rel=1e-6)

    def test_empty_dataset_refused(self):
        net = mlp([2, 3])
        empty = synth_blobs(10, 3, 2, 1.0, seed=64).subset(np.arange(0))
        with pytest.raises(InvalidArg, match="empty"):
            evaluate(net, empty)
        with pytest.raises(InvalidArg, match="empty"):
            ensemble_accuracy([net, net], empty)


class TestKdLoss:
    def setup_method(self):
        rng = RngStream(71, "kd")
        self.student = rng.normal((6, 4))
        self.teacher = rng.normal((6, 4))
        self.labels = np.array([0, 1, 2, 3, 0, 1])

    def test_self_distillation_is_zero(self):
        kd = KdConfig(temperature=2.0, soft_weight=1.0)
        assert kd_loss(self.student, self.student, self.labels, kd) == 0.0

    def test_soft_weight_zero_is_cross_entropy_bitwise(self):
        kd = KdConfig(temperature=2.0, soft_weight=0.0)
        want = cross_entropy(self.student, self.labels)[0]
        assert kd_loss(self.student, self.teacher, self.labels, kd) == want

    def test_gradient_finite_differences_t2(self):
        net = mlp([3, 6, 4], seed=8)
        x = RngStream(72).normal((5, 3))
        y = np.array([0, 1, 2, 3, 0])
        teacher_logits = RngStream(73).normal((5, 4))
        kd = KdConfig(temperature=2.0, soft_weight=1.0)
        check_gradients(net, x, y, loss="kd", teacher_logits=teacher_logits, kd_cfg=kd)

    def test_mixed_weights_gradient(self):
        net = mlp([3, 6, 4], seed=9)
        x = RngStream(74).normal((5, 3))
        y = np.array([0, 1, 2, 3, 0])
        teacher_logits = RngStream(75).normal((5, 4))
        kd = KdConfig(temperature=3.0, soft_weight=0.3)
        check_gradients(net, x, y, loss="kd", teacher_logits=teacher_logits, kd_cfg=kd)


class TestLossesMatchOracles:
    """One log_softmax per operand gives the bits of the formulas that took
    a second one (oracles.cross_entropy and oracles.kd)."""

    @pytest.mark.parametrize("batch,classes", [(1, 2), (6, 4), (64, 10), (256, 16)])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
    def test_cross_entropy_and_kd_bitwise(self, batch, classes, scale):
        rng = np.random.default_rng(batch * classes)
        student = (scale * rng.standard_normal((batch, classes))).astype(np.float32)
        teacher = (scale * rng.standard_normal((batch, classes))).astype(np.float32)
        labels = rng.integers(0, classes, size=batch)
        got, want = cross_entropy(student, labels), oracles.cross_entropy(student, labels)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        for t, soft in [(1.0, 1.0), (2.0, 0.5), (4.0, 0.3), (3.0, 0.0)]:
            args = (student, teacher, labels, t, soft)
            got, want = kd_loss_and_grad(*args), oracles.kd(*args, 1.0 - soft)
            assert got[0] == want[0]
            assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()


class TestDistill:
    def test_zero_epochs_identity(self):
        train_ds, test_ds = blob_task(seed=81)
        student = mlp([2, 8, 3], seed=10)
        teachers = [mlp([2, 8, 3], seed=11), mlp([2, 8, 3], seed=12)]
        cfg = TrainConfig(epochs=0, lr=0.05)
        out, history = distill(student, ensemble_logits(teachers, train_ds), train_ds, test_ds,
                               cfg, KdConfig(2.0, 1.0))
        assert history.records == []
        for a, b in zip(out.params, student.params):
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])

    def test_teacher_equals_student_initial_loss_zero(self):
        train_ds, _ = blob_task(seed=82)
        student = mlp([2, 8, 3], seed=13)
        logits = nw.forward(student, train_ds.features[:8], "eval")
        assert kd_loss(logits, logits, train_ds.labels[:8], KdConfig(2.0, 1.0)) == 0.0

    def test_distillation_improves_student(self):
        train_ds, test_ds = blob_task(seed=83, n=300, spread=0.15)
        teacher_net, _ = train(mlp([2, 16, 3], seed=14), train_ds, test_ds,
                               TrainConfig(epochs=15, lr=0.1, batch=BatchPlan(16, 1)))
        student = mlp([2, 16, 3], seed=15)
        before = evaluate(student, test_ds)["accuracy"]
        out, _ = distill(student, ensemble_logits([teacher_net], train_ds), train_ds, test_ds,
                         TrainConfig(epochs=10, lr=0.1, batch=BatchPlan(16, 2)),
                         KdConfig(2.0, 1.0))
        after = evaluate(out, test_ds)["accuracy"]
        assert after > before

    def test_overflowing_teacher_raises_nonfinite_loss(self):
        train_ds, test_ds = blob_task(seed=84)
        huge = mlp([2, 8, 3], seed=16)
        for p in huge.params[::2]:  # the Linear layers
            p["weight"] *= np.float32(1e30)
        with pytest.raises(NonFiniteLoss, match="ensemble logits"):
            ensemble_logits([mlp([2, 8, 3], seed=18), huge], train_ds)

    def test_teachers_run_once_per_row_and_never_in_distill(self, monkeypatch):
        train_ds, test_ds = blob_task(seed=85, n=700)  # 350 training rows: two chunks
        forwards = []
        per_batch = training.average_logits

        def counted(members, x):
            forwards.append(len(x))
            return per_batch(members, x)

        monkeypatch.setattr(training, "average_logits", counted)
        teachers = [mlp([2, 8, 3], seed=19), mlp([2, 8, 3], seed=20)]
        t_logits = ensemble_logits(teachers, train_ds)
        assert forwards == [256, 94]
        distill(mlp([2, 8, 3], seed=21), t_logits, train_ds, test_ds,
                TrainConfig(epochs=3, lr=0.05, batch=BatchPlan(32)), KdConfig(2.0, 0.5))
        assert forwards == [256, 94]

    @pytest.mark.parametrize("rows", [0, 99, 101])
    def test_wrong_teacher_row_count_raises_shape_mismatch(self, rows):
        train_ds, test_ds = blob_task(seed=86)  # 100 training rows
        t_logits = RngStream(87).normal((rows, 3))
        with pytest.raises(ShapeMismatch, match=f"{rows} teacher rows, 100 training rows"):
            distill(mlp([2, 8, 3], seed=22), t_logits, train_ds, test_ds,
                    TrainConfig(epochs=1, lr=0.05), KdConfig(2.0, 0.5))


def mlp_distill_case(k):
    train_ds, test_ds = blob_task(seed=91, n=700, classes=3, dim=4, spread=0.5)
    return mlp([4, 8, 3], seed=30), [mlp([4, 16, 3], seed=40 + j) for j in range(k)], \
        train_ds, test_ds


def conv_distill_case(k):
    train_ds, test_ds = train_test_split(synth_shapes(600, 4, image=8, seed=92), 0.5, seed=92)
    warmup = TrainConfig(epochs=1, lr=0.05, batch=BatchPlan(64, shuffle_seed=5))
    # One train-mode epoch moves the running statistics the eval-mode BN uses.
    teachers = [train(conv_bn(50 + j), train_ds, test_ds, warmup)[0] for j in range(k)]
    return conv_bn(31), teachers, train_ds, test_ds


class TestDistillCache:
    """Cached teacher logits against the per-batch teacher forwards
    (`oracles.distill`), byte for byte, over 350 (MLP) or 300 (conv+BN)
    training rows: two teacher chunks (256 + 94 or 256 + 44 rows) and a
    partial last batch of 30 or 12 rows."""

    @pytest.mark.parametrize("drop_last", [False, True])
    @pytest.mark.parametrize("case", [mlp_distill_case, conv_distill_case],
                             ids=["mlp", "conv-bn"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_per_batch_teachers(self, k, case, drop_last):
        student, teachers, train_ds, test_ds = case(k)
        cfg = TrainConfig(epochs=3, lr=0.05,
                          batch=BatchPlan(32, shuffle_seed=4, drop_last=drop_last))
        kd = KdConfig(2.0, 0.5)
        got, got_hist = distill(student, ensemble_logits(teachers, train_ds), train_ds, test_ds,
                                cfg, kd)
        want, want_hist = distill_oracle(student, teachers, train_ds, test_ds, cfg, kd)
        assert_same_network(got, want)
        fields = lambda h: [(r.epoch, r.train_loss, r.test_loss, r.test_accuracy)
                            for r in h.records]
        assert len(got_hist.records) == 3
        assert fields(got_hist) == fields(want_hist)
