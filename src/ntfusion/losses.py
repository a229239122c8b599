"""Cross-entropy and distillation losses with their logit gradients.

Loss values are reduced in float64 (logits stay float32 from the forward
pass); gradients are returned as float32 to match the parameter dtype.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .tensor import Array, as_f32


def log_softmax(logits: Array) -> Array:
    """Numerically stable log-softmax along the last axis, in float64."""
    x = np.asarray(logits, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_probs(logits: Array, labels) -> tuple[Array, Array, np.ndarray]:
    """(log_softmax(logits), per-sample cross-entropy, labels as int64)."""
    logits = as_f32(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeMismatch(f"logits {logits.shape} vs labels {labels.shape}")
    logp = log_softmax(logits)
    try:
        return logp, -logp[np.arange(len(labels)), labels], labels
    except IndexError as exc:
        raise ShapeMismatch(f"labels reach class {labels.max()}, logits have "
                            f"{logits.shape[1]} columns") from exc


def cross_entropy_per_sample(logits: Array, labels) -> Array:
    return _log_probs(logits, labels)[1]


def cross_entropy(logits: Array, labels) -> tuple[float, Array]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    logp, per, labels = _log_probs(logits, labels)
    loss = float(per.mean())
    grad = np.exp(logp)
    grad[np.arange(len(labels)), labels] -= 1.0
    grad /= len(labels)
    return loss, grad.astype(np.float32)


def kd(student_logits: Array, teacher_logits: Array, labels, temperature: float,
       soft_weight: float) -> tuple[float, Array]:
    """Distillation loss: soft KL term at temperature T plus hard cross-entropy.

    soft = T^2 * KL(softmax(teacher/T) || softmax(student/T)), batch mean;
    total = soft_weight * soft + (1 - soft_weight) * cross_entropy. The T^2
    factor keeps soft-target gradient magnitudes comparable across temperatures.
    """
    hard_weight = 1.0 - soft_weight
    student_logits = as_f32(student_logits)
    teacher_logits = as_f32(teacher_logits)
    if student_logits.shape != teacher_logits.shape:
        raise ShapeMismatch(
            f"student {student_logits.shape} vs teacher {teacher_logits.shape}")
    hard_loss, hard_grad = cross_entropy(student_logits, labels)
    if soft_weight == 0.0:
        return hard_loss, hard_grad * np.float32(hard_weight)
    t = float(temperature)
    batch = student_logits.shape[0]
    log_q = log_softmax(student_logits / np.float32(t))
    log_p = log_softmax(teacher_logits / np.float32(t))
    p = np.exp(log_p)
    kl_per = (p * (log_p - log_q)).sum(axis=-1)
    soft_loss = t ** 2 * float(kl_per.mean())
    soft_grad = (t / batch) * (np.exp(log_q) - p)
    loss = soft_weight * soft_loss + hard_weight * hard_loss
    grad = (soft_weight * soft_grad).astype(np.float32) + np.float32(hard_weight) * hard_grad
    return loss, grad
