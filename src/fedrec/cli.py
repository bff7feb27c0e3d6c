"""Experiment runner CLI: synth, pretrain, distill, federate, ablate, eval.

Every command is driven by a flat key-value config file and a seed; given the
same (config, seed) the output bytes are identical up to wall-clock fields.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

from .config import ConfigError, cfg_float, cfg_int, cfg_int_list, cfg_str, cfg_str_list, load_config
from .data import DataError, write_dataset_csvs
from .distill import DistillConfig, distill
from .experiment import (
    ExperimentConfig,
    arm_settings,
    build_arch,
    build_raw_dataset,
    prepare_dataset,
    run_arm,
)
from .federation import FederationError, pretrain, pretrain_examples
from .metrics import UndefinedMetricError, auc, precision
from .model import ShapeError, forward_batch, load_params, save_params


def _load(args) -> tuple:
    raw = load_config(args.config)
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return raw, cfg


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def cmd_synth(args) -> int:
    _, cfg = _load(args)
    ds = build_raw_dataset(cfg)
    paths = [os.path.join(cfg.out_dir, f) for f in ("users.csv", "items.csv", "interactions.csv")]
    write_dataset_csvs(ds, *paths)
    _say(args, f"wrote {len(ds.users)} users, {len(ds.items)} items, "
               f"{len(ds.interactions)} interactions to {cfg.out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    _, cfg = _load(args)
    ds, _ = prepare_dataset(cfg)
    arch = build_arch(cfg, ds)
    ps, losses = pretrain(ds, arch, cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch, cfg.seed, cfg.neg_ratio)
    ckpt = os.path.join(cfg.out_dir, "pretrained.npz")
    save_params(ps, ckpt)
    with open(os.path.join(cfg.out_dir, "pretrain_loss.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss"])
        for e, loss in enumerate(losses):
            w.writerow([e, f"{loss:.10f}"])
    _say(args, f"pretrained {cfg.pre_epochs} epochs -> {ckpt}")
    return 0


def cmd_distill(args) -> int:
    raw, cfg = _load(args)
    teacher_path = cfg_str(raw, "distill.teacher")
    ds, _ = prepare_dataset(cfg)
    if teacher_path:
        teacher = load_params(teacher_path)
    else:
        teacher, _ = pretrain(
            ds, build_arch(cfg, ds), cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch, cfg.seed, cfg.neg_ratio
        )
    dc = DistillConfig(
        embed_dim=cfg_int(raw, "distill.embed_dim", required=True),
        mlp_hidden=tuple(cfg_int_list(raw, "distill.mlp_hidden", required=True)),
        epochs=cfg_int(raw, "distill.epochs", 20),
        lr=cfg_float(raw, "distill.lr", 0.1),
        batch_size=cfg_int(raw, "distill.batch", 64),
        alpha=cfg_float(raw, "distill.alpha", 0.5),
        seed=cfg.seed,
    )
    UA, VA, y = pretrain_examples(ds, cfg.seed, cfg.neg_ratio)
    student, history = distill(teacher, UA, VA, y if dc.alpha < 1.0 else None, dc)
    out = os.path.join(cfg.out_dir, "student.npz")
    save_params(student, out)
    with open(os.path.join(cfg.out_dir, "distill_loss.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "loss"])
        for e, loss in enumerate(history.train_loss):
            w.writerow([e, f"{loss:.10f}"])
    _say(args, f"distilled student {dc.embed_dim}-{tuple(dc.mlp_hidden) + (1,)} -> {out}")
    return 0


def cmd_federate(args) -> int:
    raw, cfg = _load(args)
    ds, _ = prepare_dataset(cfg)
    init_path = cfg_str(raw, "fed.init")
    pretrained = load_params(init_path) if init_path else None
    result = run_arm(cfg, ds, cfg.arm, pretrained)

    rounds_path = os.path.join(cfg.out_dir, "rounds.jsonl")
    with open(rounds_path, "w") as fh:
        for rep in result.reports:
            fh.write(rep.to_json() + "\n")
    summary = {
        "arm": result.arm,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "test_auc": result.test_auc,
        "test_precision": result.test_precision,
        "test_auc_1e2": round(result.test_auc * 100.0, 4),
        "test_precision_1e2": None
        if result.test_precision is None
        else round(result.test_precision * 100.0, 4),
        "trainable_params": result.trainable_params,
        "uploaded_scalars_per_client": result.uploaded_per_client,
    }
    with open(os.path.join(cfg.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    save_params(result.server.params, os.path.join(cfg.out_dir, "server.npz"))
    _say(args, f"{result.arm}: test AUC {result.test_auc * 100:.2f}e-2, "
               f"precision {0.0 if result.test_precision is None else result.test_precision * 100:.2f}e-2")
    return 0


def cmd_ablate(args) -> int:
    raw, cfg = _load(args)
    arms = cfg_str_list(raw, "ablate.arms", ["fedpa", "no_adapter", "user_only", "group_only"])
    for arm in arms:
        arm_settings(cfg, arm)  # rejects an unknown arm before any arm runs
    ds, _ = prepare_dataset(cfg)
    pretrained = None
    rows = []
    for arm in arms:
        _, _, warm = arm_settings(cfg, arm)
        if warm and pretrained is None:
            pretrained, _ = pretrain(
                ds, build_arch(cfg, ds), cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch, cfg.seed, cfg.neg_ratio
            )
        result = run_arm(cfg, ds, arm, pretrained if warm else None)
        rows.append(result)
        _say(args, f"{arm}: AUC {result.test_auc * 100:.2f}e-2")
    out = os.path.join(cfg.out_dir, "ablation.csv")
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["arm", "auc", "precision", "trainable_params", "uploaded_scalars_per_round"])
        for r in rows:
            w.writerow([
                r.arm,
                f"{r.test_auc:.6f}",
                "" if r.test_precision is None else f"{r.test_precision:.6f}",
                r.trainable_params,
                r.uploaded_per_client,
            ])
    _say(args, f"wrote {out}")
    return 0


def cmd_eval(args) -> int:
    raw, cfg = _load(args)
    ckpt = cfg_str(raw, "eval.checkpoint", required=True)
    ps = load_params(ckpt)
    ds, _ = prepare_dataset(cfg)
    UA, VA, y = pretrain_examples(ds, cfg.seed, cfg.neg_ratio)
    probs, _ = forward_batch(ps, UA, VA)
    out = {"auc_1e2": round(auc(probs, y) * 100.0, 4)}
    try:
        out["precision_1e2"] = round(precision(probs, y) * 100.0, 4)
    except UndefinedMetricError:
        out["precision_1e2"] = None
    print(json.dumps(out, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedrec", description="Federated adapter-based recommendation simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "synth": cmd_synth,
        "pretrain": cmd_pretrain,
        "distill": cmd_distill,
        "federate": cmd_federate,
        "ablate": cmd_ablate,
        "eval": cmd_eval,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(handler=fn)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DataError, FederationError, ShapeError,
            UndefinedMetricError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
