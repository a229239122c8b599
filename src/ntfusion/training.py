"""SGD-with-momentum training, evaluation, and knowledge distillation.

`train` and `distill` share one epoch loop and differ only in the loss each
step hands to `network.backward`: cross-entropy, or KD against teacher logits
that the caller computes once, with `ensemble_logits`, for any number of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import losses, network
from .data import BatchPlan, Dataset, _batch_rows, batches
from .errors import InvalidArg, NonFiniteLoss, NonFiniteTensor, ShapeMismatch
from .network import Network
from .tensor import Array


@dataclass(frozen=True)
class StepDecay:
    """Multiply the learning rate by `factor` every `period` epochs."""

    period: int
    factor: float

    def __post_init__(self) -> None:
        if self.period < 1:
            raise InvalidArg("schedule period must be >= 1")
        if not 0 < self.factor < np.inf:  # NaN fails the test too
            raise InvalidArg("schedule factor must be positive and finite")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    lr: float
    momentum: float = 0.9
    schedule: Optional[StepDecay] = None
    batch: BatchPlan = BatchPlan(batch_size=64)

    def __post_init__(self) -> None:
        if not 0 < self.lr < np.inf:
            raise InvalidArg("lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidArg("momentum must be in [0, 1)")
        if self.epochs < 0:
            raise InvalidArg("epochs must be >= 0")

    def lr_at(self, epoch: int) -> float:
        if self.schedule is None:
            return self.lr
        return self.lr * self.schedule.factor ** (epoch // self.schedule.period)

    def reseeded(self, seed: int) -> "TrainConfig":
        return replace(self, batch=replace(self.batch, shuffle_seed=seed))


@dataclass(frozen=True)
class KdConfig:
    """Distillation knobs; the hard (label) term weighs 1 - soft_weight."""

    temperature: float = 2.0
    soft_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise InvalidArg("temperature must be positive and finite")
        if not 0.0 <= self.soft_weight <= 1.0:
            raise InvalidArg("soft_weight must be in [0, 1]")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    test_loss: float
    test_accuracy: float


@dataclass
class History:
    records: list[EpochRecord] = field(default_factory=list)


# Rows per eval-mode forward, in `evaluate` and in `ensemble_logits`.
_EVAL_ROWS = 256


def evaluate(net: Network, ds: Dataset) -> dict[str, float]:
    """Eval-mode accuracy (argmax, first index wins ties) and mean loss."""
    correct = 0
    loss_sum = 0.0
    n = len(ds)
    if n == 0:
        raise InvalidArg("cannot evaluate on an empty dataset")
    for start in range(0, n, _EVAL_ROWS):
        x = ds.features[start : start + _EVAL_ROWS]
        y = ds.labels[start : start + _EVAL_ROWS]
        logits = network.forward(net, x, "eval")
        correct += int((np.argmax(logits, axis=1) == y).sum())
        loss_sum += float(losses.cross_entropy_per_sample(logits, y).sum(dtype=np.float64))
    return {"accuracy": correct / n, "mean_loss": loss_sum / n}


def _fit(net: Network, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
         step) -> tuple[Network, History]:
    """The SGD loop of `train` and `distill`, on a clone of `net`:
    `step(net, bx, by, rows)` gives one batch's (loss, grads), and the loop
    scales those gradient buffers in place. A training set that gives no
    batch raises InvalidArg."""
    n, plan = len(train_ds), cfg.batch
    if n == 0 or (plan.drop_last and n < plan.batch_size):
        raise InvalidArg(f"a training set of {n} rows gives no batch of {plan.batch_size}")
    net = net.clone()
    velocity = [{k: np.zeros_like(p[k]) for k in ("weight", "bias") if k in p}
                for p in net.params]
    momentum = np.float32(cfg.momentum)
    history = History()
    for epoch in range(cfg.epochs):
        lr = np.float32(cfg.lr_at(epoch))
        batch_losses = []
        rows = _batch_rows(n, plan, epoch)
        for bi, ((bx, by), idx) in enumerate(zip(batches(train_ds, plan, epoch), rows)):
            try:
                value, grads = step(net, bx, by, idx)
            except NonFiniteTensor as exc:
                raise NonFiniteLoss(f"non-finite values at epoch {epoch}, batch {bi}") from exc
            if not np.isfinite(value):
                raise NonFiniteLoss(f"loss {value} at epoch {epoch}, batch {bi}")
            batch_losses.append(value)
            for p, v, g in zip(net.params, velocity, grads):
                for key in g:
                    g[key] *= lr
                    v[key] *= momentum
                    v[key] -= g[key]
                    p[key] += v[key]
        metrics = evaluate(net, test_ds)
        history.records.append(EpochRecord(
            epoch=epoch,
            train_loss=float(np.mean(batch_losses)),
            test_loss=metrics["mean_loss"],
            test_accuracy=metrics["accuracy"],
        ))
    return net, history


def train(net: Network, train_ds: Dataset, test_ds: Dataset,
          cfg: TrainConfig) -> tuple[Network, History]:
    """SGD with momentum on cross-entropy, v <- momentum*v - lr*g, w <- w + v
    from zero velocity; the input network is not mutated. The test set is
    evaluated after every epoch in eval mode."""
    return _fit(net, train_ds, test_ds, cfg,
                lambda n, bx, by, rows: network.backward(
                    n, bx, lambda z: losses.cross_entropy(z, by)))


def average_logits(nets, x: Array) -> Array:
    """Uniform mean of eval-mode logits, accumulated in member order."""
    acc = network.forward(nets[0], x, "eval").copy()
    for m in nets[1:]:
        acc += network.forward(m, x, "eval")
    acc /= np.float32(len(nets))
    return acc


def ensemble_logits(nets, ds: Dataset) -> Array:
    """`average_logits` of every row of `ds`, bit for bit, _EVAL_ROWS rows per
    forward, but member-outer: each net runs over every row before the next
    is read, so a `checkpoint.CheckpointSequence` holds at most two, the
    last one only while the next loads. An empty dataset raises InvalidArg,
    a forward that overflows NonFiniteLoss."""
    if len(ds) == 0:
        raise InvalidArg("cannot evaluate on an empty dataset")
    out = None
    try:
        for net in nets:
            for s in range(0, len(ds), _EVAL_ROWS):
                z = network.forward(net, ds.features[s : s + _EVAL_ROWS], "eval")
                if out is None:  # -0.0 + x is x bit for bit, so the first net's logits are kept
                    out = np.full((len(ds), z.shape[1]), -0.0, dtype=z.dtype)
                out[s : s + len(z)] += z
    except NonFiniteTensor as exc:
        raise NonFiniteLoss(f"non-finite ensemble logits ({exc})") from exc
    out /= np.float32(len(nets))
    return out


def distill(student: Network, teacher_logits: Array, train_ds: Dataset, test_ds: Dataset,
            cfg: TrainConfig, kd: KdConfig) -> tuple[Network, History]:
    """Train the student against fixed teacher logits, one row per row of
    `train_ds` (`ensemble_logits` of the teachers gives them); each batch
    reads its rows by index. The student is not mutated. On the tested build
    this is bit-identical to running the teachers on every batch."""
    if len(teacher_logits) != len(train_ds):
        raise ShapeMismatch(f"{len(teacher_logits)} teacher rows, {len(train_ds)} training rows")
    return _fit(student, train_ds, test_ds, cfg,
                lambda n, bx, by, rows: network.backward(n, bx, lambda z: losses.kd(
                    z, teacher_logits[rows], by, kd.temperature, kd.soft_weight)))
