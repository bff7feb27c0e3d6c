"""Soft-label knowledge distillation of a pretrained base model into a
smaller student (different embedding dim and/or MLP widths)."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .config import check_bounds, setting
from .model import DivergenceError, ParamSet, count_params, forward_batch, init_params, train_plain


class DistillError(ValueError):
    pass


@dataclass(frozen=True)
class DistillConfig:
    # the student's embed_dim and mlp_hidden have no default
    embed_dim: Optional[int] = setting("distill.embed_dim", int, "[1, inf)")
    mlp_hidden: Optional[Tuple[int, ...]] = setting("distill.mlp_hidden", (int,), "[1, inf)")
    epochs: int = setting("distill.epochs", int, "[0, inf)", 20)
    lr: float = setting("distill.lr", float, "(0, inf)", 0.1)
    batch_size: int = setting("distill.batch", int, "[1, inf)", 64)
    alpha: float = setting("distill.alpha", float, "[0, 1]", 0.5)  # weight of the soft-label term
    teacher: Optional[str] = setting("distill.teacher", str, None, None)  # checkpoint; None pretrains a teacher
    seed: int = 0  # `fedrec distill` sets it from the config's `seed`

    def __post_init__(self):
        check_bounds(self)


@dataclass
class DistillHistory:
    train_loss: List[float]


def distill_targets(teacher_probs: np.ndarray, labels: np.ndarray, alpha: float) -> np.ndarray:
    """Blended target alpha * teacher + (1 - alpha) * y.

    The gradient of alpha*BCE(p, teacher) + (1-alpha)*BCE(p, y) w.r.t. the
    logit equals that of BCE against this blended target, so training reuses
    the ordinary backward pass. With alpha = 1 it is the teacher's
    probabilities bit for bit, since 0.0 * y is +0.0 for labels in {0, 1}.
    """
    return alpha * teacher_probs + (1.0 - alpha) * labels


def distill(
    teacher: ParamSet,
    UA: np.ndarray,
    VA: np.ndarray,
    labels: np.ndarray,
    config: DistillConfig,
) -> Tuple[ParamSet, DistillHistory]:
    """Train a fresh student base model against the teacher's predicted
    probabilities mixed with the true labels as `config.alpha` says. Returns
    the student ParamSet, ready to warm-start a federated run. The student
    trains as a cohort of one (`model.train_plain`); a divergence raises
    DivergenceError naming the epoch and `distill.lr`."""
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
    try:
        student, losses = train_plain(student, UA, VA, target, config.batch_size, config.lr, rng, config.epochs)
    except DivergenceError as exc:
        raise DivergenceError(exc.epoch, f"distill {exc}; config key 'distill.lr' is {config.lr:g}") from None
    return student, DistillHistory(losses)
