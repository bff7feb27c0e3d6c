"""End-to-end acceptance experiments.

Each test prints one `A<n> PASS/FAIL` line. The federated benchmark (synthetic
data, 200 users, 100 items, 5 seeds) is computed once in a session fixture and
shared by the adapter-benefit, warm-start, and noise-sweep criteria.
"""
import dataclasses
import json
import os
import time

import numpy as np
import pytest

from fedrec.cli import main as cli_main
from fedrec.data import AttributeSchema
from fedrec.distill import DistillConfig, distill
from fedrec.experiment import (
    FEDPA_RULES,
    ExperimentConfig,
    build_arch,
    prepare_dataset,
    pretrain_base,
    run_arm,
)
from fedrec.federation import (
    aggregate_uploads,
    partition,
    pretrain,
    pretrain_examples,
)
from fedrec.metrics import auc, precision
from fedrec.model import (
    GATE_COMMON,
    SHARED,
    Arch,
    backward_batch,
    count_params,
    forward_batch,
    init_params,
)
from fedrec.privacy import laplace_noise
from helpers import (
    ClientState,
    Upload,
    batch_of,
    brute_force_auc,
    forward_cached,
    lift,
    max_rel_error,
    numeric_grad,
    randomized_params,
    trained_by_name,
    upload_names,
)

BENCH_SEEDS = (0, 1, 2, 3, 4)
SWEEP_SEEDS = (0, 1, 2)
SWEEP_LAMBDAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def verdict(name, ok, detail=""):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def bench_cfg(seed, **kw):
    cfg = ExperimentConfig(
        seed=seed, mlp_hidden=(8,), group_attrs=("ua0",), pre_epochs=60,
        rounds=40, local_epochs=3, fed_lr=0.5, fed_batch=16, eval_every=40, **kw,
    )
    cfg.synth = dataclasses.replace(cfg.synth, pref_spread=1.5, interactions_per_user=60)
    return cfg


@pytest.fixture(scope="session")
def bench():
    out = {"a4_seconds": 0.0, "seeds": {}}
    for seed in BENCH_SEEDS:
        t0 = time.perf_counter()
        cfg = bench_cfg(seed)
        ds, _ = prepare_dataset(cfg)
        pre, _ = pretrain_base(cfg, ds)
        fedpa = run_arm(cfg, ds, "fedpa", pre)
        no_adapter = run_arm(cfg, ds, "no_adapter", pre)
        out["a4_seconds"] += time.perf_counter() - t0
        no_warm = run_arm(cfg, ds, "no_warm", None)
        rec = {"fedpa": fedpa.test_auc, "no_adapter": no_adapter.test_auc,
               "no_warm": no_warm.test_auc}
        if seed in SWEEP_SEEDS:
            sweep = {0.0: fedpa.test_auc}
            for lam in SWEEP_LAMBDAS[1:]:
                noisy = run_arm(bench_cfg(seed, ldp_enabled=True, ldp_intensity=lam),
                                ds, "fedpa", pre)
                sweep[lam] = noisy.test_auc
            rec["sweep"] = sweep
        out["seeds"][seed] = rec
    return out


def default_grad_arch():
    us = AttributeSchema(("ua0", "ua1"), (4, 3))
    it = AttributeSchema(("ia0", "ia1"), (5, 4))
    return Arch(us, it, embed_dim=8, mlp_hidden=(32, 8), adapter_rank=2,
                gate_hidden=8, group_attrs=("ua0", "ua1"))


def test_a1_gradient_correctness():
    t0 = time.perf_counter()
    arch = default_grad_arch()
    worst = 0.0
    for seed in (0, 1, 2):
        ps = randomized_params(init_params(arch, seed), seed + 50)
        rng = np.random.default_rng(seed + 100)
        n = 3
        UA = np.tile(rng.integers(0, arch.user_schema.cards, size=(1, 2)), (n, 1))
        VA = rng.integers(0, arch.item_schema.cards, size=(n, 2))
        y = rng.integers(0, 2, size=n).astype(float)
        groups = {"ua0": int(UA[0, 0]), "ua1": int(UA[0, 1])}
        lone = lift(ps, groups)
        _, cache = forward_cached(lone, UA[None], VA[None])
        grads = trained_by_name(lone, backward_batch(cache, y[None]), groups)
        for name, g in grads.items():
            worst = max(worst, max_rel_error(g, numeric_grad(ps, name, UA, VA, groups, y)))
    dt = time.perf_counter() - t0
    verdict("A1", worst < 1e-4 and dt < 10.0,
            f"max rel error {worst:.2e} (< 1e-4), {dt:.1f}s (< 10s), 3 seeds")


def test_a2_gate_adapter_algebra():
    arch = default_grad_arch()
    # gate normalization on 1,000 random inputs, away from the zero init
    ps = randomized_params(init_params(arch, 0), 7, scale=0.8)
    rng = np.random.default_rng(11)
    worst_sum = 0.0
    for _ in range(10):
        n = 100
        UA = np.tile(rng.integers(0, arch.user_schema.cards, size=(1, 2)), (n, 1))
        VA = rng.integers(0, arch.item_schema.cards, size=(n, 2))
        groups = {"ua0": int(UA[0, 0]), "ua1": int(UA[0, 1])}
        _, cache = forward_cached(lift(ps, groups), UA[None], VA[None])
        for layer in cache.layers:
            if layer.gated:
                worst_sum = max(worst_sum, float(np.max(np.abs(layer.G.sum(axis=-1) - 1.0))))

    # zero-init adapters + one-hot common gate == base model, bit for bit
    carch = dataclasses.replace(arch, gate_mode=GATE_COMMON)
    cps = init_params(carch, 3)
    base = init_params(carch.base(), 3)
    base = base.with_tensors({n: cps.tensors[n] for n in base.tensors})
    exact = True
    for _ in range(100):
        ua = rng.integers(0, arch.user_schema.cards).tolist()
        va = rng.integers(0, arch.item_schema.cards).tolist()
        groups = {"ua0": ua[0], "ua1": ua[1]}
        adapted, _ = forward_batch(lift(cps, groups), [[ua]], [[va]])
        plain, _ = forward_batch(lift(base), [[ua]], [[va]])
        if adapted[0, 0] != plain[0, 0]:
            exact = False
    verdict("A2", worst_sum < 1e-12 and exact,
            f"gate sum error {worst_sum:.2e} (< 1e-12) on 1000 inputs; "
            f"one-hot-gate equality {'bit-exact' if exact else 'violated'} on 100 examples")


def test_a3_aggregation_oracle():
    arch = default_grad_arch()
    worst = 0.0
    for seed in range(3):
        ps = partition(init_params(arch, seed), FEDPA_RULES)
        rng = np.random.default_rng(seed)
        groups_of = [{"ua0": 0, "ua1": 0}, {"ua0": 0, "ua1": 1}, {"ua0": 1, "ua1": 0}]
        uploads = []
        for uid, groups in enumerate(groups_of):
            client = ClientState(uid, np.zeros(2, dtype=np.int64), groups, {}, {})
            tensors = {n: rng.normal(size=ps.tensors[n].shape)
                       for n in upload_names(ps, client)}
            uploads.append(Upload(uid, tensors, 4, groups))
        out = aggregate_uploads(batch_of(uploads, ps), ps)
        perm = aggregate_uploads(batch_of([uploads[2], uploads[0], uploads[1]], ps), ps)
        for name, tag in ps.tags.items():
            if tag != SHARED:
                continue
            vals = [u.tensors[name] for u in uploads if name in u.tensors]
            brute = sum(vals) / len(vals) if vals else ps.tensors[name]
            worst = max(worst, float(np.max(np.abs(out.tensors[name] - brute))))
            worst = max(worst, float(np.max(np.abs(
                perm.tensors[name] - out.tensors[name]))))
    verdict("A3", worst < 1e-12,
            f"max deviation from brute-force mean / permutation {worst:.2e} (< 1e-12), "
            "3-client fixtures with group routing")


def test_a4_adapter_benefit(bench):
    fed = np.mean([r["fedpa"] for r in bench["seeds"].values()])
    noa = np.mean([r["no_adapter"] for r in bench["seeds"].values()])
    margin = fed - noa
    secs = bench["a4_seconds"]
    verdict("A4", margin >= 0.01 and secs < 300.0,
            f"fedpa {fed:.4f} vs no_adapter {noa:.4f}, margin {margin:+.4f} (>= 0.01), "
            f"5 seeds in {secs:.0f}s (< 300s)")


def test_a5_warm_start_benefit(bench):
    fed = np.mean([r["fedpa"] for r in bench["seeds"].values()])
    cold = np.mean([r["no_warm"] for r in bench["seeds"].values()])
    verdict("A5", fed >= cold,
            f"warm fedpa {fed:.4f} >= no_warm {cold:.4f} over 5 seeds")


def test_a6_distillation_viability():
    cfg = ExperimentConfig(seed=0)  # default 8-(32,8,1) teacher architecture
    cfg.synth = dataclasses.replace(cfg.synth, pref_spread=1.5, interactions_per_user=60)
    ds, _ = prepare_dataset(cfg)
    teacher, _ = pretrain(ds, build_arch(cfg, ds), 60, cfg.pre_lr, cfg.pre_batch, 0, 4)
    UA, VA, y = pretrain_examples(ds, 0, cfg.neg_ratio)
    rows = [r for r in ds.interactions if r.split != "pretrain"]
    hUA = np.array([ds.users[r.user] for r in rows], dtype=np.int64)
    hVA = np.array([ds.items[r.item] for r in rows], dtype=np.int64)
    hy = np.array([r.label for r in rows], dtype=float)
    tp, _ = forward_batch(teacher, hUA, hVA)
    t_auc = auc(tp, hy)
    ok, details = True, [f"teacher {t_auc:.4f}"]
    for dim, hidden in ((8, (8,)), (4, (32, 8)), (4, (8,))):
        dc = DistillConfig(embed_dim=dim, mlp_hidden=hidden, epochs=40, lr=0.3,
                           alpha=0.5, seed=0)
        student, _ = distill(teacher, UA, VA, y, dc)
        sp, _ = forward_batch(student, hUA, hVA)
        s_auc = auc(sp, hy)
        smaller = count_params(student) < count_params(teacher)
        ok = ok and (s_auc >= t_auc - 0.03) and smaller
        details.append(f"{dim}-{hidden + (1,)}: {s_auc:.4f} ({s_auc - t_auc:+.4f}), "
                       f"{count_params(student)} params")
    verdict("A6", ok, "; ".join(details) + " (each within 0.03, strictly smaller)")


def test_a7_ldp_behavior(bench):
    sweeps = [bench["seeds"][s]["sweep"] for s in SWEEP_SEEDS]
    mean = {lam: float(np.mean([sw[lam] for sw in sweeps])) for lam in SWEEP_LAMBDAS}
    drop_02 = mean[0.0] - mean[0.2]
    monotone_ends = mean[0.5] <= mean[0.0]
    # Laplace sampler moment checks
    x = laplace_noise(0.2, (100_000,), [np.random.default_rng(1)])[0]
    moments_ok = abs(float(x.mean())) < 0.005 and abs(float(x.var()) / 0.08 - 1.0) < 0.05
    curve = ", ".join(f"{lam}:{mean[lam]:.4f}" for lam in SWEEP_LAMBDAS)
    verdict("A7", monotone_ends and drop_02 < 0.05 and moments_ok,
            f"sweep means [{curve}]; AUC(0.5) <= AUC(0): {monotone_ends}; "
            f"drop at 0.2 = {drop_02:+.4f} (< 0.05); sampler moments ok: {moments_ok}")


def test_a8_communication_accounting():
    cfg = ExperimentConfig(seed=0)  # default architecture and schema
    ds, _ = prepare_dataset(cfg)
    arch = build_arch(cfg, ds)
    ps = partition(init_params(arch, 0), FEDPA_RULES)

    # closed-form oracle, written out from first principles
    d = cfg.embed_dim
    user_cards, item_cards = (4, 3), (50, 10)
    input_dim = d * (len(user_cards) + len(item_cards))
    dims = (input_dim,) + tuple(cfg.mlp_hidden) + (1,)
    user_emb = sum(p * d for p in user_cards)
    item_emb = sum(p * d for p in item_cards)
    mlp = sum(dims[l + 1] * dims[l] + dims[l + 1] for l in range(len(dims) - 1))
    full_trainable = user_emb + item_emb + mlp  # the no-adapter base model

    per_adapter = sum(min(cfg.adapter_rank, min(dims[l], dims[l + 1]))
                      * (dims[l + 1] + dims[l]) for l in range(len(dims) - 1))
    n_branches = 1 + 1 + len(cfg.group_attrs)
    gates = sum(cfg.gate_hidden * dims[l] + n_branches * cfg.gate_hidden
                for l in range(len(dims) - 1))
    upload = user_emb + gates + len(cfg.group_attrs) * per_adapter

    client = ClientState(0, np.zeros(2, dtype=np.int64), {"ua0": 0, "ua1": 0}, {}, {})
    impl_upload = sum(ps.tensors[n].size for n in upload_names(ps, client))
    base_ps = init_params(arch.base(), 0)
    impl_full = count_params(base_ps)
    ratio = impl_upload / impl_full
    verdict("A8",
            impl_upload == upload and impl_full == full_trainable and ratio < 0.70,
            f"upload {impl_upload} (closed form {upload}), full trainable {impl_full} "
            f"(closed form {full_trainable}), ratio {ratio:.3f} (< 0.70)")


def test_a9_determinism_end_to_end(tmp_path):
    cfg_text = (
        "synth.n_users = 24\nsynth.n_items = 20\nsynth.user_attrs = 3,2\n"
        "synth.item_attrs = 4\nsynth.interactions_per_user = 30\n"
        "group.attrs = ua0\narch.embed_dim = 4\narch.mlp_hidden = 6\n"
        "arch.gate_hidden = 3\npretrain.epochs = 2\nfed.rounds = 3\n"
        "fed.batch = 8\nseed = 1\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)

    def run(out):
        rc = cli_main(["federate", "--config", str(cfg_path), "--out", out, "--quiet"])
        assert rc == 0
        lines = []
        with open(os.path.join(out, "rounds.jsonl")) as fh:
            for line in fh:
                rec = json.loads(line)
                rec.pop("seconds")  # the only wall-clock field
                lines.append(json.dumps(rec, sort_keys=True))
        return lines

    a = run(str(tmp_path / "a"))
    b = run(str(tmp_path / "b"))
    verdict("A9", a == b and len(a) == 3,
            f"{len(a)} round-log lines byte-identical across two runs "
            "(wall-clock field excluded)")


def test_a10_metric_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 200))
        scores = (rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n)
                  if trial % 3 == 0 else rng.random(n))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        worst = max(worst, abs(auc(scores, labels) - brute_force_auc(scores, labels)))
    examples_ok = (
        auc([0.9, 0.1], [1, 0]) == 1.0
        and auc([0.1, 0.9], [1, 0]) == 0.0
        and abs(auc([0.5, 0.5, 0.7], [1, 0, 0]) - 0.25) < 1e-15
        and precision([0.9, 0.8], [1, 1]) == 1.0
        and precision([0.9, 0.8], [1, 0]) == 0.5
        and precision([0.9, 0.4], [0, 1]) == 0.0
    )
    verdict("A10", worst < 1e-12 and examples_ok,
            f"max |rank AUC - brute force| {worst:.2e} (< 1e-12) over 100 batches; "
            f"AUC/precision examples exact: {examples_ok}")
