"""The three benchmark workloads and the library calls each one times.

Every call goes through a module attribute (``experiment.run_arm``, not a
name imported into this file), so the tracer's wrappers see it.

A workload has a set-up step (``prepare_dataset``, timed as ``setup_s``) and a
unit of timed work (``wall_s``). A unit returns its deterministic outputs,
which the runner compares between repetitions, and the wall time of each
stage it ran as a (start, end) pair of ``time.perf_counter`` readings.
"""
from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from fedrec import distill, experiment, federation, metrics, model
from fedrec.data import PRETRAIN
from fedrec.experiment import ExperimentConfig


def a4_config(seed: int) -> ExperimentConfig:
    """The acceptance suite's A4 configuration (``bench_cfg`` in
    tests/test_acceptance.py), written out so the benchmark does not import
    the test suite."""
    cfg = ExperimentConfig(
        seed=seed, mlp_hidden=(8,), group_attrs=("ua0",), pre_epochs=60,
        rounds=40, local_epochs=3, fed_lr=0.5, fed_batch=16, eval_every=40,
    )
    cfg.synth = dataclasses.replace(cfg.synth, pref_spread=1.5, interactions_per_user=60)
    return cfg


def central_wide_config(seed: int) -> ExperimentConfig:
    """Default (32, 8) MLP on the A4 generator scaled to 2,000 users."""
    cfg = ExperimentConfig(seed=seed, pre_epochs=20)
    cfg.synth = dataclasses.replace(
        cfg.synth, n_users=2000, pref_spread=1.5, interactions_per_user=60
    )
    return cfg


def fed_eval_ldp_config(seed: int) -> ExperimentConfig:
    """Default architecture (groups ua0+ua1), A4 data, 30% of clients per
    round, evaluation every round, Laplace upload noise at A7's 0.2."""
    cfg = ExperimentConfig(
        seed=seed, pre_epochs=20, rounds=40, client_fraction=0.3, local_epochs=3,
        fed_lr=0.5, fed_batch=16, eval_every=1, ldp_enabled=True, ldp_intensity=0.2,
    )
    cfg.synth = dataclasses.replace(cfg.synth, pref_spread=1.5, interactions_per_user=60)
    return cfg


CENTRAL_WIDE_STUDENT = dict(
    embed_dim=4, mlp_hidden=(8,), epochs=20, lr=0.3, batch_size=64, alpha=0.5
)


Window = Tuple[float, float]


def _timed(stages: Dict[str, Window], name: str, fn: Callable, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    stages[name] = (t0, time.perf_counter())
    return out


def _pretrain(cfg: ExperimentConfig, ds):
    return federation.pretrain(
        ds, experiment.build_arch(cfg, ds), cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch,
        cfg.seed, cfg.neg_ratio,
    )


def _arm_outputs(cfg: ExperimentConfig, res) -> dict:
    evaluated = [
        r for r in res.reports
        if (r.round + 1) % cfg.eval_every == 0 or r.round == cfg.rounds - 1
    ]
    return {
        "test_auc": res.test_auc,
        "val_auc": [r.val_auc for r in evaluated],
        "uploaded_per_client": [r.uploaded_per_client for r in res.reports],
        "round_seconds": [r.seconds for r in res.reports],
    }


def run_a4(cfg: ExperimentConfig, ds, _aux) -> dict:
    stages: Dict[str, Window] = {}
    pre, losses = _timed(stages, "pretrain", _pretrain, cfg, ds)
    fedpa = _timed(stages, "fedpa", experiment.run_arm, cfg, ds, "fedpa", pre)
    no_adapter = _timed(stages, "no_adapter", experiment.run_arm, cfg, ds, "no_adapter", pre)
    return {
        "stages": stages,
        "pretrain_loss": losses[-1],
        "fedpa": _arm_outputs(cfg, fedpa),
        "no_adapter": _arm_outputs(cfg, no_adapter),
    }


def run_fed_eval_ldp(cfg: ExperimentConfig, ds, _aux) -> dict:
    stages: Dict[str, Window] = {}
    pre, losses = _timed(stages, "pretrain", _pretrain, cfg, ds)
    fedpa = _timed(stages, "fedpa", experiment.run_arm, cfg, ds, "fedpa", pre)
    return {"stages": stages, "pretrain_loss": losses[-1], "fedpa": _arm_outputs(cfg, fedpa)}


def central_wide_holdout(ds):
    """Federated users' interactions as (UA, VA, y), the A6 hold-out set."""
    rows = [r for r in ds.interactions if r.split != PRETRAIN]
    UA = np.array([ds.users[r.user] for r in rows], dtype=np.int64)
    VA = np.array([ds.items[r.item] for r in rows], dtype=np.int64)
    y = np.array([r.label for r in rows], dtype=float)
    return UA, VA, y


def _score(ps, holdout) -> float:
    UA, VA, y = holdout
    probs, _ = model.forward_batch(ps, UA, VA)
    return metrics.auc(probs, y)


def run_central_wide(cfg: ExperimentConfig, ds, holdout) -> dict:
    stages: Dict[str, Window] = {}
    teacher, losses = _timed(stages, "pretrain", _pretrain, cfg, ds)
    UA, VA, y = _timed(
        stages, "pretrain_examples", federation.pretrain_examples, ds, cfg.seed, cfg.neg_ratio
    )
    dc = distill.DistillConfig(seed=cfg.seed, **CENTRAL_WIDE_STUDENT)
    student, hist = _timed(stages, "distill", distill.distill, teacher, UA, VA, y, dc)
    t0 = time.perf_counter()
    teacher_auc = _score(teacher, holdout)
    student_auc = _score(student, holdout)
    stages["eval"] = (t0, time.perf_counter())
    return {
        "stages": stages,
        "pretrain_loss": losses[-1],
        "distill_loss": hist.train_loss[-1],
        "teacher_auc": teacher_auc,
        "student_auc": student_auc,
        "student_params": model.count_params(student),
    }


def _steps(rows: int, batch: int, epochs: int) -> int:
    return epochs * math.ceil(rows / batch)


def _fed_closed_form(cfg: ExperimentConfig) -> dict:
    """Counts implied by the config alone: every federated user keeps all its
    synthetic interactions, so each has ceil(0.6 n) train rows."""
    s = cfg.synth
    fed_users = s.n_users - round(cfg.pretrain_fraction * s.n_users)
    train_rows = math.ceil(0.6 * s.interactions_per_user)
    calls = cfg.rounds * math.ceil(cfg.client_fraction * fed_users)
    pre_rows = round(cfg.pretrain_fraction * s.n_users) * s.interactions_per_user
    return {
        "client_local_train_calls_per_arm": calls,
        "local_sgd_steps_per_arm": calls * _steps(train_rows, cfg.fed_batch, cfg.local_epochs),
        "pretrain_steps": _steps(pre_rows, cfg.pre_batch, cfg.pre_epochs),
    }


def _central_closed_form(cfg: ExperimentConfig) -> dict:
    s = cfg.synth
    pre_rows = round(cfg.pretrain_fraction * s.n_users) * s.interactions_per_user
    return {
        "pretrain_steps": _steps(pre_rows, cfg.pre_batch, cfg.pre_epochs),
        "distill_steps": _steps(
            pre_rows, CENTRAL_WIDE_STUDENT["batch_size"], CENTRAL_WIDE_STUDENT["epochs"]
        ),
    }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]
    unit: Callable[[ExperimentConfig, object, object], dict]
    closed_form: Callable[[ExperimentConfig], dict]
    # benchmark-side inputs derived from the dataset outside the timed region
    aux: Callable[[object], object] = lambda ds: None
    # federated arms a unit runs, in order; none for the centralized path
    arms: Tuple[str, ...] = ("fedpa",)
    # uploaded scalars per client that the config fixes (A8's closed form)
    upload_scalars: int = 0

    @property
    def federated(self) -> bool:
        return bool(self.arms)

    def round_seconds(self, cfg: ExperimentConfig, out: dict, clock) -> List[float]:
        """Seconds per 'round' of one unit on `clock` (speedclock.SpeedClock
        or WallClock). Federated workloads: the fedpa arm's rounds, placed
        back to back before the arm's end (its test evaluation, tens of ms,
        shifts them slightly). central_wide has no rounds; its round is one
        centralized training epoch, each stage's time over its epochs."""
        if self.federated:
            return clock.rounds(out["stages"]["fedpa"][1], out["fedpa"]["round_seconds"])
        return [
            clock.span(*out["stages"]["pretrain"]) / cfg.pre_epochs,
            clock.span(*out["stages"]["distill"]) / CENTRAL_WIDE_STUDENT["epochs"],
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("a4", a4_config, run_a4, _fed_closed_form, arms=("fedpa", "no_adapter")),
        Workload(
            "central_wide", central_wide_config, run_central_wide, _central_closed_form,
            aux=central_wide_holdout, arms=(),
        ),
        Workload(
            "fed_eval_ldp", fed_eval_ldp_config, run_fed_eval_ldp, _fed_closed_form,
            upload_scalars=1162,
        ),
    )
}
