"""Config-driven experiment assembly shared by the CLI and the test suite."""
from __future__ import annotations

import difflib
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import (
    ConfigError,
    cfg_bool,
    cfg_float,
    cfg_int,
    cfg_int_list,
    cfg_str,
    cfg_str_list,
)
from .data import (
    Dataset,
    SplitReport,
    SynthConfig,
    load_dataset,
    split_per_user_chronological,
    split_pretrain_federated,
    synth_generate,
)
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


def _ints(raw, key, default):
    return tuple(cfg_int_list(raw, key, default))


def _strs(raw, key, default):
    return tuple(cfg_str_list(raw, key, default))


def _at_least(minimum: int):
    """The integer accessor that rejects a value below `minimum`."""
    return functools.partial(cfg_int, minimum=minimum)


def _float_in(interval: str, inside):
    """The float accessor that rejects a value outside `interval`, as `inside` tests it."""
    def get(raw, key, default):
        v = cfg_float(raw, key, default)
        if inside(v):
            return v
        raise ConfigError(f"config key {key!r}: {v} is outside {interval}")
    return get


# Config-file key -> (ExperimentConfig field, accessor).
FIELD_KEYS = {
    "data.source": ("source", cfg_str),
    "data.users": ("users_path", cfg_str),
    "data.items": ("items_path", cfg_str),
    "data.interactions": ("interactions_path", cfg_str),
    "split.pretrain_fraction": ("pretrain_fraction", _float_in("(0, 1)", lambda v: 0 < v < 1)),
    "neg.ratio": ("neg_ratio", _at_least(0)),
    "group.attrs": ("group_attrs", _strs),
    "arch.embed_dim": ("embed_dim", cfg_int),
    "arch.mlp_hidden": ("mlp_hidden", _ints),
    "arch.adapter_rank": ("adapter_rank", cfg_int),
    "arch.gate_hidden": ("gate_hidden", cfg_int),
    "arch.adapter_layers": ("adapter_layers", cfg_str),
    "pretrain.epochs": ("pre_epochs", _at_least(0)),
    "pretrain.lr": ("pre_lr", cfg_float),
    "pretrain.batch": ("pre_batch", _at_least(1)),
    "fed.arm": ("arm", cfg_str),
    "fed.rounds": ("rounds", _at_least(0)),
    "fed.fraction": ("client_fraction", _float_in("(0, 1]", lambda v: 0 < v <= 1)),
    "fed.local_epochs": ("local_epochs", _at_least(0)),
    "fed.lr": ("fed_lr", cfg_float),
    "fed.batch": ("fed_batch", _at_least(1)),
    "fed.eval_every": ("eval_every", _at_least(1)),
    "ldp.enabled": ("ldp_enabled", cfg_bool),
    "ldp.intensity": ("ldp_intensity", _float_in("[0, inf)", lambda v: v >= 0)),
    "seed": ("seed", cfg_int),
    "out": ("out_dir", cfg_str),
}
# Key `synth.<field>` -> accessor for that SynthConfig field.
SYNTH_KEYS = {
    "n_users": cfg_int, "n_items": cfg_int, "user_attrs": _ints, "item_attrs": _ints,
    "beta": cfg_float, "interactions_per_user": cfg_int, "base": cfg_float, "pref_spread": cfg_float,
}
# Keys that only CLI commands read (cli.py).
CLI_KEYS = (
    "distill.teacher", "distill.embed_dim", "distill.mlp_hidden", "distill.epochs", "distill.lr",
    "distill.batch", "distill.alpha", "eval.checkpoint", "fed.init", "ablate.arms",
)
CONFIG_KEYS = frozenset([*FIELD_KEYS, *(f"synth.{k}" for k in SYNTH_KEYS), *CLI_KEYS])


@dataclass
class ExperimentConfig:
    # data
    source: str = "synth"  # "synth" | "files"
    users_path: Optional[str] = None
    items_path: Optional[str] = None
    interactions_path: Optional[str] = None
    synth: SynthConfig = field(
        default_factory=lambda: SynthConfig(
            n_users=200, n_items=100, user_attrs=(4, 3), item_attrs=(50, 10),
            beta=1.0, interactions_per_user=30,
        )
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
    rounds: int = 20
    client_fraction: float = 1.0
    local_epochs: int = 2
    fed_lr: float = 0.05
    fed_batch: int = 32
    eval_every: int = 1
    # privacy
    ldp_enabled: bool = False
    ldp_intensity: float = 0.0
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
        """Config from parsed `key = value` pairs; keys outside CONFIG_KEYS are rejected."""
        for key in raw:
            if key not in CONFIG_KEYS:
                close = difflib.get_close_matches(key, sorted(CONFIG_KEYS), n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise ConfigError(f"unknown config key {key!r}{hint}")
        base = cls()
        synth = {k: get(raw, f"synth.{k}", getattr(base.synth, k)) for k, get in SYNTH_KEYS.items()}
        fields = {f: get(raw, key, getattr(base, f)) for key, (f, get) in FIELD_KEYS.items()}
        return cls(synth=SynthConfig(**synth), **fields)

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


def build_raw_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.source == "synth":
        return synth_generate(cfg.synth, cfg.seed)
    if cfg.source == "files":
        for key in ("users_path", "items_path", "interactions_path"):
            if getattr(cfg, key) is None:
                raise ConfigError(f"data.source=files requires data.{key.split('_')[0]}")
        return load_dataset(cfg.users_path, cfg.items_path, cfg.interactions_path)
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
