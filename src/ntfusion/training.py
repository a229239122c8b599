"""SGD-with-momentum training, evaluation, and knowledge distillation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import losses, network
from .data import BatchPlan, Dataset, _batch_rows, batches
from .errors import InvalidArg, NonFiniteLoss, NonFiniteTensor
from .network import Network
from .tensor import Array


@dataclass(frozen=True)
class StepDecay:
    """Multiply the learning rate by `factor` every `period` epochs."""

    period: int
    factor: float


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float
    momentum: float = 0.9
    schedule: Optional[StepDecay] = None
    batch: BatchPlan = BatchPlan(batch_size=256)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise InvalidArg("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidArg("momentum must be in [0, 1)")
        if self.epochs < 0:
            raise InvalidArg("epochs must be >= 0")

    def lr_at(self, epoch: int) -> float:
        if self.schedule is None:
            return self.lr
        return self.lr * self.schedule.factor ** (epoch // self.schedule.period)

    def reseeded(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed, batch=replace(self.batch, shuffle_seed=seed))


@dataclass(frozen=True)
class KdConfig:
    """Distillation knobs; hard_weight defaults to 1 - soft_weight."""

    temperature: float
    soft_weight: float
    hard_weight: float = -1.0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise InvalidArg("temperature must be positive")
        if not 0.0 <= self.soft_weight <= 1.0:
            raise InvalidArg("soft_weight must be in [0, 1]")
        if self.hard_weight < 0:
            object.__setattr__(self, "hard_weight", 1.0 - self.soft_weight)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    test_accuracy: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)


# Rows per eval-mode forward, in `evaluate` and in distillation's teacher pass.
_EVAL_ROWS = 256


def evaluate(net: Network, ds: Dataset, batch_size: int = _EVAL_ROWS) -> dict[str, float]:
    """Eval-mode accuracy (argmax, first index wins ties) and mean loss."""
    correct = 0
    loss_sum = 0.0
    n = len(ds)
    for start in range(0, n, batch_size):
        x = ds.features[start : start + batch_size]
        y = ds.labels[start : start + batch_size]
        logits = network.forward(net, x, "eval")
        correct += int((np.argmax(logits, axis=1) == y).sum())
        loss_sum += float(losses.cross_entropy_per_sample(logits, y).sum(dtype=np.float64))
    return {"accuracy": correct / n, "mean_loss": loss_sum / n}


def _sgd_state(net: Network):
    return [
        {k: np.zeros_like(p[k]) for k in ("weight", "bias") if k in p}
        for p in net.params
    ]


def _sgd_step(net: Network, velocity, grads, lr: float, momentum: float) -> None:
    # v <- momentum * v - lr * g ; w <- w + v
    lr32 = np.float32(lr)
    mom32 = np.float32(momentum)
    for p, v, g in zip(net.params, velocity, grads):
        for key in g:
            v[key] *= mom32
            v[key] -= lr32 * g[key]
            p[key] += v[key]


def _epoch_pass(net, train_ds, test_ds, cfg, epoch, velocity, batch_fn) -> EpochRecord:
    lr = cfg.lr_at(epoch)
    batch_losses = []
    rows = _batch_rows(len(train_ds), cfg.batch, epoch)
    for bi, ((bx, by), idx) in enumerate(zip(batches(train_ds, cfg.batch, epoch), rows)):
        try:
            value, grads = batch_fn(net, bx, by, idx)
        except NonFiniteTensor as exc:
            raise NonFiniteLoss(f"non-finite values at epoch {epoch}, batch {bi}") from exc
        if not np.isfinite(value):
            raise NonFiniteLoss(f"loss {value} at epoch {epoch}, batch {bi}")
        batch_losses.append(value)
        _sgd_step(net, velocity, grads, lr, cfg.momentum)
    metrics = evaluate(net, test_ds)
    return EpochRecord(
        epoch=epoch,
        train_loss=float(np.mean(batch_losses)) if batch_losses else float("nan"),
        test_loss=metrics["mean_loss"],
        test_accuracy=metrics["accuracy"],
    )


def train(net: Network, train_ds: Dataset, test_ds: Dataset,
          cfg: TrainConfig) -> tuple[Network, History]:
    """SGD with momentum on cross-entropy; the input network is not mutated.

    Velocity buffers start at zero; the update is v <- momentum*v - lr*g,
    w <- w + v. The test set is evaluated after every epoch in eval mode.
    """
    net = net.clone()
    velocity = _sgd_state(net)
    history = History()

    def step(n, bx, by, rows):
        return network.backward(n, bx, by, loss="cross_entropy")

    for epoch in range(cfg.epochs):
        history.records.append(_epoch_pass(net, train_ds, test_ds, cfg, epoch, velocity, step))
    return net, history


def average_logits(nets, x: Array) -> Array:
    """Uniform mean of eval-mode logits, accumulated in member order."""
    acc = network.forward(nets[0], x, "eval").copy()
    for m in nets[1:]:
        acc += network.forward(m, x, "eval")
    acc /= np.float32(len(nets))
    return acc


def _teacher_logits(members, ds: Dataset) -> Array:
    """`average_logits` of every row of `ds`, _EVAL_ROWS rows at a time."""
    try:
        chunks = [average_logits(members, ds.features[s : s + _EVAL_ROWS])
                  for s in range(0, len(ds), _EVAL_ROWS)]
    except NonFiniteTensor as exc:
        raise NonFiniteLoss(f"non-finite teacher logits ({exc})") from exc
    return np.concatenate(chunks) if chunks else np.empty((0, 0), np.float32)


def distill(student: Network, teachers, train_ds: Dataset, test_ds: Dataset,
            cfg: TrainConfig, kd: KdConfig) -> tuple[Network, History]:
    """Train the student against the uniform logit average of the teachers.

    Teacher/student architectures may differ; only the dataset shapes must
    agree. Teachers run in eval mode and are never mutated. They run once per
    call, before the first epoch (none when cfg.epochs is 0): their averaged
    logits over `train_ds`, 256 rows per forward. Each batch then reads
    its rows of that cache by index. On the tested build this is bit-identical
    to running the teachers on every batch; a teacher forward that overflows
    raises NonFiniteLoss.
    """
    members = list(teachers.members) if hasattr(teachers, "members") else list(teachers)
    student = student.clone()
    velocity = _sgd_state(student)
    history = History()
    t_logits = _teacher_logits(members, train_ds) if cfg.epochs else None

    def step(n, bx, by, rows):
        return network.backward(n, bx, by, loss="kd", teacher_logits=t_logits[rows], kd_cfg=kd)

    for epoch in range(cfg.epochs):
        history.records.append(_epoch_pass(student, train_ds, test_ds, cfg, epoch, velocity, step))
    return student, history
