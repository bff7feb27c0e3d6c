"""Config-driven experiment assembly shared by the CLI and the test suite."""
from __future__ import annotations

import difflib
from dataclasses import dataclass, fields, is_dataclass, replace
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .config import ConfigError, check_bounds, parse_value, setting
from .data import (
    DataError,
    Dataset,
    SynthConfig,
    load_dataset,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
)
from .distill import DistillConfig
from .federation import (
    RoundReport,
    build_clients,
    evaluate_global,
    partition,
    pretrain,
    run_federated,
    warm_start,
)
from .model import (
    ADAPTER_LAYERS,
    FROZEN,
    GATE_NONE,
    GATE_UNIFORM,
    PRIVATE,
    SHARED,
    Arch,
    ParamSet,
    ShapeError,
    count_params,
    init_params,
)

# The partition rules (name pattern, tag) of the paper's method: each tensor
# takes the tag of the one rule its name matches (federation.partition).
FEDPA_RULES = (
    ("item_emb/*", FROZEN),
    ("mlp/*", FROZEN),
    ("adapter/user/*", PRIVATE),
    ("user_emb/*", SHARED),
    ("adapter/group/*", SHARED),
    ("gate/*", SHARED),
)

# Ablation arm -> (Arch overrides, partition rules, warm start?). An arm's
# Arch groups users by `group.attrs` unless its overrides say otherwise; a
# warm-started arm overlays the pretrained base model on its fresh init.
ARMS = {
    "fedpa": ({}, FEDPA_RULES, True),
    "no_adapter": (
        {"use_user_adapter": False, "group_attrs": (), "gate_mode": GATE_NONE}, (("*", SHARED),), True
    ),
    "user_only": ({"group_attrs": ()}, FEDPA_RULES, True),
    "group_only": ({"use_user_adapter": False}, FEDPA_RULES, True),
    "no_warm": ({}, FEDPA_RULES, False),
    "no_gate_uniform": ({"gate_mode": GATE_UNIFORM}, FEDPA_RULES, True),
}


@dataclass
class ExperimentConfig:
    source: str = setting("data.source", str, ("synth", "files"), "synth")
    users_path: Optional[str] = setting("data.users", str, None, None)
    items_path: Optional[str] = setting("data.items", str, None, None)
    interactions_path: Optional[str] = setting("data.interactions", str, None, None)
    synth: SynthConfig = SynthConfig(n_users=200, n_items=100, user_attrs=(4, 3), item_attrs=(50, 10))
    pretrain_fraction: float = setting("split.pretrain_fraction", float, "(0, 1)", 0.5)
    neg_ratio: int = setting("neg.ratio", int, "[0, inf)", 4)
    group_attrs: Tuple[str, ...] = setting("group.attrs", (str,), None, ("ua0", "ua1"))
    embed_dim: int = setting("arch.embed_dim", int, "[1, inf)", 8)
    mlp_hidden: Tuple[int, ...] = setting("arch.mlp_hidden", (int,), "[1, inf)", (32, 8))
    adapter_rank: int = setting("arch.adapter_rank", int, "[1, inf)", 2)
    gate_hidden: int = setting("arch.gate_hidden", int, "[1, inf)", 8)
    adapter_layers: str = setting("arch.adapter_layers", str, ADAPTER_LAYERS, "all")
    pre_epochs: int = setting("pretrain.epochs", int, "[0, inf)", 20)
    pre_lr: float = setting("pretrain.lr", float, "(0, inf)", 0.3)
    pre_batch: int = setting("pretrain.batch", int, "[1, inf)", 64)
    arm: str = setting("fed.arm", str, tuple(ARMS), "fedpa")
    fed_init: Optional[str] = setting("fed.init", str, None, None)  # checkpoint to warm-start from; None pretrains
    rounds: int = setting("fed.rounds", int, "[0, inf)", 20)
    client_fraction: float = setting("fed.fraction", float, "(0, 1]", 1.0)
    local_epochs: int = setting("fed.local_epochs", int, "[0, inf)", 2)
    fed_lr: float = setting("fed.lr", float, "(0, inf)", 0.05)
    fed_batch: int = setting("fed.batch", int, "[1, inf)", 32)
    eval_every: int = setting("fed.eval_every", int, "[1, inf)", 1)
    ldp_enabled: bool = setting("ldp.enabled", bool, None, False)
    ldp_intensity: float = setting("ldp.intensity", float, "[0, inf)", 0.0)
    distill: DistillConfig = DistillConfig(None, None)  # `fedrec distill` sets its seed from `seed`
    eval_checkpoint: Optional[str] = setting("eval.checkpoint", str, None, None)
    ablate_arms: Tuple[str, ...] = setting("ablate.arms", (str,), tuple(ARMS), tuple(ARMS)[:4])
    seed: int = setting("seed", int, "[0, inf)", 0)
    out_dir: str = setting("out", str, None, ".")

    def __post_init__(self):
        check_bounds(self)  # `synth` and `distill` checked theirs when they were built
        if self.ldp_intensity > 0 and not self.ldp_enabled:
            raise ConfigError(
                f"config key 'ldp.intensity': {self.ldp_intensity} has no effect with ldp.enabled = false"
            )

    @classmethod
    def from_dict(cls, raw: Dict[str, str]) -> "ExperimentConfig":
        """Config from parsed `key = value` pairs: each key must be in KEYS, and
        its value is read as its field's kind (and checked against its bound
        when the section holding the field is constructed)."""
        values: Dict[str, object] = {}
        sections: Dict[str, Dict[str, object]] = {}  # section field -> the values of its fields
        for key, text in raw.items():
            if key not in KEYS:
                close = difflib.get_close_matches(key, sorted(KEYS), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ConfigError(f"unknown config key {key!r}{hint}")
            path, kind, _ = KEYS[key]
            section, _, name = path.rpartition(".")
            (sections.setdefault(section, {}) if section else values)[name] = parse_value(key, text, kind)
        return cls(**values, **{name: replace(getattr(cls, name), **given) for name, given in sections.items()})

    def require(self, key: str):
        """The value of config key `key`, which has no default."""
        value = attrgetter(KEYS[key][0])(self)
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value


# Config key -> (attribute path, kind, bound) of each `setting` field in field
# order, a section's (SynthConfig's, DistillConfig's) in the place of the
# field that holds it. A key sets the attribute of ExperimentConfig at its
# path: `seed`, or `synth.n_users` for a field of `cfg.synth`.
KEYS = {
    g.metadata["key"]: (f"{f.name}.{g.name}" if g is not f else f.name, g.metadata["kind"], g.metadata["bound"])
    for f in fields(ExperimentConfig)
    for g in (fields(f.default) if is_dataclass(f.default) else (f,))
    if "key" in g.metadata
}


def build_raw_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.source == "synth":
        return synth_generate(cfg.synth, cfg.seed)
    return load_dataset(*(cfg.require(f"data.{k}") for k in ("users", "items", "interactions")))


def prepare_dataset(cfg: ExperimentConfig) -> Tuple[Dataset, List[int]]:
    """Raw dataset -> pretrain/federated user partition -> per-user 6:2:2
    split; returns (dataset, the ids of the users the split dropped)."""
    ds = build_raw_dataset(cfg)
    ds = split_pretrain_federated(ds, cfg.pretrain_fraction, cfg.seed)
    return split_per_user_chronological(ds)


def build_arch(cfg: ExperimentConfig, dataset: Dataset, arm: str = "fedpa") -> Arch:
    try:
        return Arch(
            user_schema=dataset.user_schema,
            item_schema=dataset.item_schema,
            embed_dim=cfg.embed_dim,
            mlp_hidden=cfg.mlp_hidden,
            adapter_rank=cfg.adapter_rank,
            gate_hidden=cfg.gate_hidden,
            adapter_layers=cfg.adapter_layers,
            **{"group_attrs": cfg.group_attrs, **ARMS[arm][0]},
        )
    except (DataError, ShapeError) as exc:  # an unknown or a repeated grouping attribute
        raise ConfigError(f"config key 'group.attrs': {exc}") from None


def pretrain_base(cfg: ExperimentConfig, dataset: Dataset) -> Tuple[ParamSet, List[float]]:
    """The base model pretrained as `cfg` says on the dataset's pretrain
    split, and its per-epoch mean loss."""
    return pretrain(
        dataset, build_arch(cfg, dataset), cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch, cfg.seed, cfg.neg_ratio
    )


@dataclass
class ArmResult:
    arm: str
    test_auc: float
    test_precision: Optional[float]
    trainable_params: int
    uploaded_per_client: int
    reports: List[RoundReport]
    params: ParamSet                  # the server's after the last round


def run_arm(
    cfg: ExperimentConfig,
    dataset: Dataset,
    arm: str,
    pretrained: Optional[ParamSet] = None,
) -> ArmResult:
    """Run one federated arm end to end on an already-split dataset; a
    warm-started arm pretrains its base model unless given `pretrained`."""
    _, rules, warm = ARMS[arm]
    arch = build_arch(cfg, dataset, arm)
    arrays = build_clients(dataset, arch, cfg.seed, cfg.neg_ratio)  # first: a split with no client fails at once
    if warm:
        if pretrained is None:
            pretrained, _ = pretrain_base(cfg, dataset)
        ps = warm_start(arch, pretrained, cfg.seed)
    else:
        ps = init_params(arch, [cfg.seed, 21])
    ps = partition(ps, rules)
    server, reports = run_federated(ps, arrays, cfg)
    ev = evaluate_global(server, arrays, "test")
    uploaded = next((rep.uploaded_per_client for rep in reports if rep.uploaded_per_client), 0)
    return ArmResult(
        arm=arm,
        test_auc=ev.mean_auc,
        test_precision=ev.mean_precision,
        trainable_params=count_params(ps, tags=(SHARED, PRIVATE)),
        uploaded_per_client=uploaded,
        reports=reports,
        params=server,
    )
