"""Config-driven experiment assembly shared by the CLI and the test suite."""
from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from .config import ConfigError, parse_value
from .data import (
    Dataset,
    SplitReport,
    SynthConfig,
    load_dataset,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
)
from .distill import DistillConfig
from .federation import (
    FedConfig,
    PartitionPolicy,
    RoundReport,
    ServerState,
    build_clients,
    evaluate_global,
    pretrain,
    run_federated,
    warm_start,
)
from .model import GATE_LEARNED, GATE_UNIFORM, PRIVATE, SHARED, Arch, ParamSet, count_params, init_params
from .privacy import NoiseConfig

ARMS = ("fedpa", "no_adapter", "user_only", "group_only", "no_warm", "no_gate_uniform")

# Config-file key -> (field, kind, interval). A `synth.` key sets that field of
# `cfg.synth`, every other key that field of ExperimentConfig. The value is read
# as `kind` (see config.parse_value) and must lie in `interval`, or each of its
# elements must when `kind` is a list kind such as (int,).
KEYS = {
    "data.source": ("source", str, None),
    "data.users": ("users_path", str, None),
    "data.items": ("items_path", str, None),
    "data.interactions": ("interactions_path", str, None),
    "synth.n_users": ("n_users", int, "[1, inf)"),
    "synth.n_items": ("n_items", int, "[1, inf)"),
    "synth.user_attrs": ("user_attrs", (int,), "[1, inf)"),
    "synth.item_attrs": ("item_attrs", (int,), "[1, inf)"),
    "synth.beta": ("beta", float, "[0, 1]"),
    "synth.interactions_per_user": ("interactions_per_user", int, "[1, inf)"),
    "synth.base": ("base", float, "(-inf, inf)"),
    "synth.pref_spread": ("pref_spread", float, "[0, inf)"),
    "split.pretrain_fraction": ("pretrain_fraction", float, "(0, 1)"),
    "neg.ratio": ("neg_ratio", int, "[0, inf)"),
    "group.attrs": ("group_attrs", (str,), None),
    "arch.embed_dim": ("embed_dim", int, "[1, inf)"),
    "arch.mlp_hidden": ("mlp_hidden", (int,), "[1, inf)"),
    "arch.adapter_rank": ("adapter_rank", int, "[1, inf)"),
    "arch.gate_hidden": ("gate_hidden", int, "[1, inf)"),
    "arch.adapter_layers": ("adapter_layers", str, None),
    "pretrain.epochs": ("pre_epochs", int, "[0, inf)"),
    "pretrain.lr": ("pre_lr", float, "(0, inf)"),
    "pretrain.batch": ("pre_batch", int, "[1, inf)"),
    "fed.arm": ("arm", str, None),
    "fed.init": ("fed_init", str, None),
    "fed.rounds": ("rounds", int, "[0, inf)"),
    "fed.fraction": ("client_fraction", float, "(0, 1]"),
    "fed.local_epochs": ("local_epochs", int, "[0, inf)"),
    "fed.lr": ("fed_lr", float, "(0, inf)"),
    "fed.batch": ("fed_batch", int, "[1, inf)"),
    "fed.eval_every": ("eval_every", int, "[1, inf)"),
    "ldp.enabled": ("ldp_enabled", bool, None),
    "ldp.intensity": ("ldp_intensity", float, "[0, inf)"),
    "distill.teacher": ("distill_teacher", str, None),
    "distill.embed_dim": ("distill_embed_dim", int, "[1, inf)"),
    "distill.mlp_hidden": ("distill_mlp_hidden", (int,), "[1, inf)"),
    "distill.epochs": ("distill_epochs", int, "[0, inf)"),
    "distill.lr": ("distill_lr", float, "(0, inf)"),
    "distill.batch": ("distill_batch", int, "[1, inf)"),
    "distill.alpha": ("distill_alpha", float, "[0, 1]"),
    "eval.checkpoint": ("eval_checkpoint", str, None),
    "ablate.arms": ("ablate_arms", (str,), None),
    "seed": ("seed", int, "[0, inf)"),
    "out": ("out_dir", str, None),
}


def _inside(value, interval: str) -> bool:
    """Whether `value` lies in an interval written like "(0, 1]"; NaN never does."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


@dataclass
class ExperimentConfig:
    # data
    source: str = "synth"  # "synth" | "files"
    users_path: Optional[str] = None
    items_path: Optional[str] = None
    interactions_path: Optional[str] = None
    synth: SynthConfig = field(
        default_factory=lambda: SynthConfig(n_users=200, n_items=100, user_attrs=(4, 3), item_attrs=(50, 10))
    )
    pretrain_fraction: float = 0.5
    neg_ratio: int = 4
    group_attrs: Tuple[str, ...] = ("ua0", "ua1")
    # architecture
    embed_dim: int = 8
    mlp_hidden: Tuple[int, ...] = (32, 8)
    adapter_rank: int = 2
    gate_hidden: int = 8
    adapter_layers: str = "all"
    # pretraining
    pre_epochs: int = 20
    pre_lr: float = 0.3
    pre_batch: int = 64
    # federation
    arm: str = "fedpa"
    fed_init: Optional[str] = None  # checkpoint to warm-start from instead of pretraining
    rounds: int = 20
    client_fraction: float = 1.0
    local_epochs: int = 2
    fed_lr: float = 0.05
    fed_batch: int = 32
    eval_every: int = 1
    # privacy
    ldp_enabled: bool = False
    ldp_intensity: float = 0.0
    # distillation; the student's embed_dim and mlp_hidden have no default
    distill_teacher: Optional[str] = None  # checkpoint; None pretrains a teacher
    distill_embed_dim: Optional[int] = None
    distill_mlp_hidden: Optional[Tuple[int, ...]] = None
    distill_epochs: int = DistillConfig.epochs
    distill_lr: float = DistillConfig.lr
    distill_batch: int = DistillConfig.batch_size
    distill_alpha: float = DistillConfig.alpha
    # evaluation and ablation
    eval_checkpoint: Optional[str] = None
    ablate_arms: Tuple[str, ...] = ARMS[:4]
    # bookkeeping
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        if self.ldp_intensity > 0 and not self.ldp_enabled:
            raise ConfigError(
                f"ldp.intensity = {self.ldp_intensity} has no effect with ldp.enabled = false"
            )

    @classmethod
    def from_dict(cls, raw: Dict[str, str]) -> "ExperimentConfig":
        """Config from parsed `key = value` pairs: each key must be in KEYS, and
        its value is read as the row's kind and checked against its interval."""
        fields: Dict[str, object] = {}
        synth: Dict[str, object] = {}
        for key, text in raw.items():
            if key not in KEYS:
                close = difflib.get_close_matches(key, sorted(KEYS), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ConfigError(f"unknown config key {key!r}{hint}")
            name, kind, interval = KEYS[key]
            value = parse_value(key, text, kind)
            for x in value if isinstance(kind, tuple) else (value,):
                if interval and not _inside(x, interval):
                    raise ConfigError(f"config key {key!r}: {x} is outside {interval}")
            (synth if key.startswith("synth.") else fields)[name] = value
        cfg = cls(**fields)
        cfg.synth = replace(cfg.synth, **synth)
        return cfg

    def require(self, key: str):
        """The value of config key `key`, which has no default."""
        value = getattr(self, KEYS[key][0])
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value

    def fed_config(self) -> FedConfig:
        return FedConfig(
            rounds=self.rounds,
            client_fraction=self.client_fraction,
            local_epochs=self.local_epochs,
            lr=self.fed_lr,
            batch_size=self.fed_batch,
            eval_every=self.eval_every,
        )

    def noise_config(self) -> NoiseConfig:
        return NoiseConfig(intensity=self.ldp_intensity, enabled=self.ldp_enabled)

    def distill_config(self) -> DistillConfig:
        return DistillConfig(
            self.require("distill.embed_dim"), self.require("distill.mlp_hidden"), epochs=self.distill_epochs,
            lr=self.distill_lr, batch_size=self.distill_batch, alpha=self.distill_alpha, seed=self.seed,
        )


def build_raw_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.source == "synth":
        return synth_generate(cfg.synth, cfg.seed)
    if cfg.source == "files":
        return load_dataset(*(cfg.require(f"data.{k}") for k in ("users", "items", "interactions")))
    raise ConfigError(f"unknown data.source {cfg.source!r}")


def prepare_dataset(cfg: ExperimentConfig) -> Tuple[Dataset, SplitReport]:
    """Raw dataset -> pretrain/federated user partition -> per-user 6:2:2 split."""
    ds = build_raw_dataset(cfg)
    ds = split_pretrain_federated(ds, cfg.pretrain_fraction, cfg.seed)
    return split_per_user_chronological(ds)


def arm_settings(cfg: ExperimentConfig, arm: str) -> Tuple[dict, str, bool]:
    """(arch overrides, policy name, warm start?) for one ablation arm."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}; valid: {', '.join(ARMS)}")
    overrides = {
        "use_user_adapter": True,
        "group_attrs": cfg.group_attrs,
        "gate_mode": GATE_LEARNED,
    }
    policy, warm = "fedpa", True
    if arm == "no_adapter":
        overrides = {"use_user_adapter": False, "group_attrs": (), "gate_mode": "none"}
        policy = "full"
    elif arm == "user_only":
        overrides["group_attrs"] = ()
    elif arm == "group_only":
        overrides["use_user_adapter"] = False
    elif arm == "no_warm":
        warm = False
    elif arm == "no_gate_uniform":
        overrides["gate_mode"] = GATE_UNIFORM
    return overrides, policy, warm


def build_arch(cfg: ExperimentConfig, dataset: Dataset, arm: str = "fedpa") -> Arch:
    overrides, _, _ = arm_settings(cfg, arm)
    return Arch(
        user_schema=dataset.user_schema,
        item_schema=dataset.item_schema,
        embed_dim=cfg.embed_dim,
        mlp_hidden=cfg.mlp_hidden,
        adapter_rank=cfg.adapter_rank,
        gate_hidden=cfg.gate_hidden,
        adapter_layers=cfg.adapter_layers,
        **overrides,
    )


@dataclass
class ArmResult:
    arm: str
    test_auc: float
    test_precision: Optional[float]
    trainable_params: int
    uploaded_per_client: int
    reports: List[RoundReport]
    server: ServerState


def run_arm(
    cfg: ExperimentConfig,
    dataset: Dataset,
    arm: str,
    pretrained: Optional[ParamSet] = None,
) -> ArmResult:
    """Run one federated arm end to end on an already-split dataset."""
    overrides, policy_name, warm = arm_settings(cfg, arm)
    arch = build_arch(cfg, dataset, arm)
    if warm:
        if pretrained is None:
            pretrained, _ = pretrain(
                dataset, arch, cfg.pre_epochs, cfg.pre_lr, cfg.pre_batch, cfg.seed, cfg.neg_ratio
            )
        ps = warm_start(arch, pretrained, cfg.seed)
    else:
        ps = init_params(arch, [cfg.seed, 21])
    ps = PartitionPolicy.preset(policy_name).apply(ps)

    arrays = build_clients(dataset, arch, cfg.seed, cfg.neg_ratio)
    server = run_federated(ps, arrays, cfg.fed_config(), cfg.noise_config(), cfg.seed)
    ev = evaluate_global(server.params, arrays, "test")
    uploaded = next((rep.uploaded_per_client for rep in server.reports if rep.uploaded_per_client), 0)
    return ArmResult(
        arm=arm,
        test_auc=ev.mean_auc,
        test_precision=ev.mean_precision,
        trainable_params=count_params(ps, tags=(SHARED, PRIVATE)),
        uploaded_per_client=uploaded,
        reports=server.reports,
        server=server,
    )
