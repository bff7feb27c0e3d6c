"""Experiment runner CLI: synth, pretrain, distill, federate, ablate, eval.

Every command is driven by a flat key-value config file and a seed; given the
same (config, seed) the output bytes are identical up to wall-clock fields.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, load_config
from .data import DataError, Dataset, write_csv, write_dataset_csvs
from .distill import distill
from .experiment import (
    ARMS,
    ExperimentConfig,
    build_raw_dataset,
    prepare_dataset,
    pretrain_base,
    run_arm,
)
from .federation import FederationError, pretrain_examples
from .metrics import UndefinedMetricError, auc, precision
from .model import ParamSet, ShapeError, cohort_of, forward_batch, load_params, save_params


def _load(args) -> ExperimentConfig:
    """The config file's experiment; --seed and --out replace its `seed` and `out` keys."""
    raw = load_config(args.config)
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.out is not None:
        raw["out"] = args.out
    cfg = ExperimentConfig.from_dict(raw)
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _say(args, msg: str):
    if not args.quiet:
        print(msg)


def _write_losses(path: str, losses):
    write_csv(path, ["epoch", "loss"], ([e, f"{loss:.10f}"] for e, loss in enumerate(losses)))


def _schemas(x) -> str:
    """The user and item attributes of a Dataset or an Arch, with their cardinalities."""
    return "; ".join(
        f"{side} attributes " + ", ".join(f"{n}={c}" for n, c in zip(schema.names, schema.cards))
        for side, schema in (("user", x.user_schema), ("item", x.item_schema))
    )


def _checkpoint(key: str, path: str, ds: Dataset) -> ParamSet:
    """The checkpoint at `path`, which config key `key` names; it must have
    been trained on the dataset's attribute schemas."""
    ps = load_params(path)
    if (ps.arch.user_schema, ps.arch.item_schema) != (ds.user_schema, ds.item_schema):
        raise ConfigError(
            f"config key {key!r}: checkpoint {path} has {_schemas(ps.arch)}, "
            f"but the dataset has {_schemas(ds)}"
        )
    return ps


def _fed_init(cfg: ExperimentConfig, ds: Dataset, arms_key: str, arms: Sequence[str]) -> Optional[ParamSet]:
    """fed.init's checkpoint, from which the warm-started arms among `arms`
    (config key `arms_key`) start; None when fed.init is unset or empty."""
    if cfg.fed_init and not any(ARMS[arm][2] for arm in arms):
        raise ConfigError(f"config key 'fed.init': no arm of {arms_key} = {', '.join(arms)} warm-starts")
    return _checkpoint("fed.init", cfg.fed_init, ds) if cfg.fed_init else None


def cmd_synth(args) -> int:
    cfg = _load(args)
    ds = build_raw_dataset(cfg)
    paths = [os.path.join(cfg.out_dir, f) for f in ("users.csv", "items.csv", "interactions.csv")]
    write_dataset_csvs(ds, *paths)
    _say(args, f"wrote {len(ds.users)} users, {len(ds.items)} items, "
               f"{len(ds)} interactions to {cfg.out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _load(args)
    ds, _ = prepare_dataset(cfg)
    ps, losses = pretrain_base(cfg, ds)
    ckpt = os.path.join(cfg.out_dir, "pretrained.npz")
    save_params(ps, ckpt)
    _write_losses(os.path.join(cfg.out_dir, "pretrain_loss.csv"), losses)
    _say(args, f"pretrained {cfg.pre_epochs} epochs -> {ckpt}")
    return 0


def cmd_distill(args) -> int:
    cfg = _load(args)
    dc = replace(cfg.distill, embed_dim=cfg.require("distill.embed_dim"),
                 mlp_hidden=cfg.require("distill.mlp_hidden"), seed=cfg.seed)
    ds, _ = prepare_dataset(cfg)
    if dc.teacher:
        teacher = _checkpoint("distill.teacher", dc.teacher, ds)
    else:
        teacher, _ = pretrain_base(cfg, ds)
    UA, VA, y = pretrain_examples(ds, cfg.seed, cfg.neg_ratio)
    student, history = distill(teacher, UA, VA, y, dc)
    out = os.path.join(cfg.out_dir, "student.npz")
    save_params(student, out)
    _write_losses(os.path.join(cfg.out_dir, "distill_loss.csv"), history.train_loss)
    _say(args, f"distilled student {dc.embed_dim}-{tuple(dc.mlp_hidden) + (1,)} -> {out}")
    return 0


def cmd_federate(args) -> int:
    cfg = _load(args)
    ds, _ = prepare_dataset(cfg)
    result = run_arm(cfg, ds, cfg.arm, _fed_init(cfg, ds, "fed.arm", (cfg.arm,)))

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
    save_params(result.params, os.path.join(cfg.out_dir, "server.npz"))
    _say(args, f"{result.arm}: test AUC {result.test_auc * 100:.2f}e-2, "
               f"precision {0.0 if result.test_precision is None else result.test_precision * 100:.2f}e-2")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load(args)
    ds, _ = prepare_dataset(cfg)
    # one base model, fed.init's or pretrained, serves every warm-started arm
    pretrained = _fed_init(cfg, ds, "ablate.arms", cfg.ablate_arms)
    if pretrained is None and any(ARMS[arm][2] for arm in cfg.ablate_arms):
        pretrained = pretrain_base(cfg, ds)[0]
    rows = []
    for arm in cfg.ablate_arms:
        result = run_arm(cfg, ds, arm, pretrained)
        rows.append(result)
        _say(args, f"{arm}: AUC {result.test_auc * 100:.2f}e-2")
    out = os.path.join(cfg.out_dir, "ablation.csv")
    write_csv(out, ["arm", "auc", "precision", "trainable_params", "uploaded_scalars_per_round"], (
        [r.arm, f"{r.test_auc:.6f}", "" if r.test_precision is None else f"{r.test_precision:.6f}",
         r.trainable_params, r.uploaded_per_client]
        for r in rows
    ))
    _say(args, f"wrote {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load(args)
    path = cfg.require("eval.checkpoint")
    ds, _ = prepare_dataset(cfg)
    ps = _checkpoint("eval.checkpoint", path, ds)
    # scoring reads no partition tag, so the checkpoint is lifted re-tagged all shared
    ps = ParamSet(ps.arch, ps.tensors)
    UA, VA, y = pretrain_examples(ds, cfg.seed, cfg.neg_ratio)
    # a row is scored with the group adapters of its user's groups: the
    # rows of each combination of groups as one cohort of one
    groups = UA[:, [ps.arch.user_schema.index(a) for a in ps.arch.group_attrs]]
    probs = np.empty(len(y))
    for combo in sorted(set(map(tuple, groups.tolist()))):
        rows = (groups == combo).all(axis=1)
        probs[rows] = forward_batch(cohort_of(ps, [combo]), UA[rows][None], VA[rows][None])[0][0]
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
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
