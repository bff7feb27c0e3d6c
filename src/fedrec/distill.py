"""Soft-label knowledge distillation of a pretrained base model into a
smaller student (different embedding dim and/or MLP widths)."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .model import ParamSet, count_params, forward_batch, init_params, train_plain


class DistillError(ValueError):
    pass


@dataclass(frozen=True)
class DistillConfig:
    embed_dim: int
    mlp_hidden: Tuple[int, ...]
    epochs: int = 20
    lr: float = 0.1
    batch_size: int = 64
    alpha: float = 0.5  # weight of the soft-label term; 1.0 ignores true labels
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DistillError(f"alpha {self.alpha} outside [0, 1]")


@dataclass
class DistillHistory:
    train_loss: List[float]


def distill_targets(teacher_probs: np.ndarray, labels: Optional[np.ndarray], alpha: float) -> np.ndarray:
    """Blended target alpha * teacher + (1 - alpha) * y.

    The gradient of alpha*BCE(p, teacher) + (1-alpha)*BCE(p, y) w.r.t. the
    logit equals that of BCE against this blended target, so training reuses
    the ordinary backward pass. With alpha = 1 the labels are never read.
    """
    if alpha == 1.0:
        return teacher_probs
    if labels is None:
        raise DistillError("labels required when alpha < 1")
    return alpha * teacher_probs + (1.0 - alpha) * labels


def distill(
    teacher: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    labels: Optional[np.ndarray],
    config: DistillConfig,
) -> Tuple[ParamSet, DistillHistory]:
    """Train a fresh student base model against the teacher's predicted
    probabilities (optionally mixed with true labels). Returns the student
    ParamSet, ready to warm-start a federated run. The student trains as a
    cohort of one (`model.train_plain`)."""
    student_arch = replace(
        teacher.arch.base(), embed_dim=config.embed_dim, mlp_hidden=tuple(config.mlp_hidden)
    )
    student = init_params(student_arch, config.seed)
    if count_params(student) >= count_params(teacher):
        raise DistillError(
            f"student ({count_params(student)} params) not smaller than teacher ({count_params(teacher)})"
        )

    teacher_probs, _ = forward_batch(teacher, UA, VA)
    target = distill_targets(teacher_probs, labels, config.alpha)
    rng = np.random.default_rng([config.seed, 13])
    student, losses = train_plain(student, UA, VA, target, config.batch_size, config.lr, rng, config.epochs)
    return student, DistillHistory(losses)
