"""Golden results: exact losses and tensor digests of small training runs.

The values were recorded before the SGD step kernel was rewritten (one
gather, one scatter, a layout plan per epoch), for the noised rounds before
evaluation was batched and the upload noise drawn in one call, and for the
partial-participation runs before a round's clients became rows of arrays
held for the whole run; they pin those rewrites, and any later one, to the
same floating-point results bit for bit. The prepared-dataset digests
were recorded while the dataset was a list of row objects, before it became
columns; they pin the columnar split, synthesis and example assembly to the
same rows, arrays and negative samples.

The training values were recorded with numpy 2.4's bundled OpenBLAS 0.3.31
on x86-64. That library picks its kernel core when it loads, from the CPU
or from OPENBLAS_CORETYPE, and its SkylakeX, Haswell and Sandybridge cores
differ in the last bits of some matrix products. So the losses and tensor
digests of the six training tests are recorded once per core, all three
from one commit whose SkylakeX values are the ones recorded before, and
each run checks the set of the core it loaded. A core with no recorded set
fails its training checks and names the core. The validation metrics and
summaries read the same on all three cores and are recorded once. The
prepared-dataset digests involve no matrix product and hold on every core.
Another BLAS build may change the training values too. A code change that
moves a value must move it on every core: `tools/golden_cores.py` runs
these tests under each of the three cores.
"""
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fedrec.data import SynthConfig, synth_generate
from fedrec.distill import DistillConfig, distill
from fedrec.federation import (
    EvalSummary,
    aggregate_uploads,
    build_clients,
    evaluate_global,
    pretrain,
    pretrain_examples,
    run_federated,
)
from fedrec.experiment import ExperimentConfig, build_arch, prepare_dataset
from fedrec.model import Arch
from helpers import client_objects, kernel_core, train_cohort, with_split
from test_cohort import FED, ragged_cfg, world, world_arrays


CORE = kernel_core()
# the message of every training check
ON = f"on OpenBLAS kernel core {CORE}"


def recorded(name):
    """The training value `name` recorded on this run's kernel core."""
    if CORE not in BY_CORE:
        pytest.fail(f"no golden training values recorded for OpenBLAS kernel core {CORE}; "
                    f"recorded: {', '.join(BY_CORE)}")
    return BY_CORE[CORE][name]


def digest(tensors):
    """SHA-256 over the tensors' names, shapes and float64 bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        t = np.ascontiguousarray(tensors[name], dtype=np.float64)
        h.update(f"{name}{t.shape}".encode())
        h.update(t.tobytes())
    return h.hexdigest()


def rows_digest(ds):
    """SHA-256 over the dataset's rows in order, as `user,item,ts,label,split;`."""
    h = hashlib.sha256()
    for r in ds.interactions:
        h.update(f"{r.user},{r.item},{r.ts},{r.label},{r.split};".encode())
    return h.hexdigest()


def arrays_digest(arrays):
    """SHA-256 over named arrays' names, dtypes, shapes and bytes, in the given order."""
    h = hashlib.sha256()
    for name, a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{name}{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def file_world_cfg(tmp_path):
    """A 3-column interactions file, so every row is a positive and negatives
    are sampled: non-contiguous user and item ids, users' rows interleaved,
    timestamps with ties, a fully tied (ts, item) duplicate, user 43 below
    MIN_FED_INTERACTIONS and user 99 with a negative pool of 2 for 4 negatives
    per positive."""
    uids = (3, 7, 10, 11, 20, 42, 43, 99)
    iids = (2, 5, 8, 9, 13, 21, 34, 55, 60, 61)
    rng = np.random.default_rng(5)
    rows = []
    for u, n in zip(uids[:-1], (9, 12, 6, 7, 11, 8, 3)):
        rows += [(u, int(i), int(t)) for i, t in zip(rng.choice(iids, size=n), rng.integers(0, 4, size=n))]
    rows.append(rows[0])
    rows += [(99, i, t % 3) for t, i in enumerate(iids[:8] + iids[:2])]
    rows = [rows[j] for j in rng.permutation(len(rows))]
    files = {
        "users": ["user_id,ua0,ua1"] + [f"{u},{u % 3},{u % 2}" for u in uids],
        "items": ["item_id,ia0"] + [f"{i},{i % 4}" for i in iids],
        "interactions": ["user_id,item_id,timestamp"] + [f"{u},{i},{t}" for u, i, t in rows],
    }
    paths = {}
    for name, lines in files.items():
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(lines) + "\n")
    return ExperimentConfig(
        seed=0, source="files", users_path=str(paths["users"]), items_path=str(paths["items"]),
        interactions_path=str(paths["interactions"]), pretrain_fraction=0.25, group_attrs=("ua0",),
        embed_dim=4, mlp_hidden=(6,), gate_hidden=3,
    )


def test_prepared_rows_golden():
    # the A4 world at seed 0, and a beta-0 world that draws each user's
    # items with replacement (more interactions per user than items)
    a4 = ExperimentConfig(seed=0, mlp_hidden=(8,), group_attrs=("ua0",))
    a4.synth = replace(a4.synth, pref_spread=1.5, interactions_per_user=60)
    small = ExperimentConfig(seed=2)
    small.synth = SynthConfig(n_users=12, n_items=6, user_attrs=(3, 2), item_attrs=(2,),
                              beta=0.0, interactions_per_user=9, base=0.4)
    assert [rows_digest(prepare_dataset(cfg)[0]) for cfg in (a4, small)] == PREPARED_ROWS_DIGESTS


def test_file_world_examples_golden(tmp_path):
    # prepared rows, pretrain examples with sampled negatives, and every
    # client's shards, whose train negatives are sampled per positive
    cfg = file_world_cfg(tmp_path)
    ds, dropped = prepare_dataset(cfg)
    assert dropped == [43]
    assert rows_digest(ds) == FILE_WORLD_ROWS_DIGEST
    UA, VA, y = pretrain_examples(ds, cfg.seed, cfg.neg_ratio)
    assert arrays_digest([("UA", UA), ("VA", VA), ("y", y)]) == FILE_WORLD_PRETRAIN_DIGEST
    arch = build_arch(cfg, ds)
    clients = client_objects(build_clients(ds, arch, cfg.seed, cfg.neg_ratio), arch, ds)
    shards = [(f"{c.uid}/attrs", c.user_attrs) for c in clients]
    shards += [(f"{c.uid}/{c.groups}/{k}/{part}", getattr(s, part))
               for c in clients for k, s in c.shards.items() for part in ("items", "labels")]
    assert arrays_digest(shards) == FILE_WORLD_SHARDS_DIGEST


def base_world():
    """Pretrained (16, 8) base model on 30 synthetic users, and its data."""
    cfg = SynthConfig(n_users=30, n_items=20, user_attrs=(3, 2), item_attrs=(4, 3),
                      beta=1.0, interactions_per_user=15)
    ds = with_split(synth_generate(cfg, 1), "pretrain")
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=8, mlp_hidden=(16, 8),
                gate_mode="none", use_user_adapter=False, group_attrs=())
    ps, losses = pretrain(ds, arch, epochs=4, lr=0.3, batch_size=32, seed=1)
    return ds, ps, losses


def test_pretrain_golden():
    _, ps, losses = base_world()
    assert losses == recorded("pretrain_losses"), ON
    assert digest(ps.tensors) == recorded("pretrain"), ON


def test_distill_golden():
    ds, teacher, _ = base_world()
    UA, VA, y = pretrain_examples(ds, 1)
    cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=3, lr=0.3, batch_size=32)
    student, history = distill(teacher, UA, VA, y, cfg)
    assert history.train_loss == recorded("distill_losses"), ON
    assert digest(student.tensors) == recorded("distill"), ON


def test_fedpa_cohort_rounds_golden(tmp_path):
    # two aggregated rounds of every client on ragged file-data shards
    ps, clients = world(ragged_cfg(tmp_path))
    for r in range(2):
        ps = aggregate_uploads(train_cohort(clients, ps, FED, r), ps)
    assert digest(ps.tensors) == recorded("fedpa_server"), ON
    private = {f"{c.uid}/{n}": t for c in clients for n, t in c.private.items()}
    assert digest(private) == recorded("fedpa_private"), ON


def test_fedpa_ldp_eval_golden(tmp_path):
    # three noised rounds on ragged shards, every round evaluated: pins the
    # per-client scoring of every evaluation and the upload noise draws
    ps, arrays, _ = world_arrays(ragged_cfg(tmp_path))
    cfg = replace(FED, rounds=3, eval_every=1, ldp_enabled=True, ldp_intensity=0.2)
    server, reports = run_federated(ps, arrays, cfg)
    assert digest(server.tensors) == recorded("ldp_server"), ON
    assert [(r.val_auc, r.val_precision) for r in reports] == LDP_VAL_METRICS, ON
    assert evaluate_global(server, arrays, "test") == LDP_TEST_SUMMARY, ON
    # no score passes the 0.5 threshold above; a lifted output bias puts
    # about half the clients' precision in range
    lifted = server.with_tensors({"mlp/1/b": server.tensors["mlp/1/b"] + 0.3})
    assert evaluate_global(lifted, arrays, "train") == LDP_LIFTED_TRAIN_SUMMARY, ON


@pytest.mark.parametrize("arm", ["fedpa", "no_adapter"])
def test_partial_participation_ldp_golden(tmp_path, arm):
    # 6 of 15 clients per round, gathered from and scattered back to the
    # run's client state by index; no_adapter's `full` policy uploads and
    # averages every tensor
    ps, arrays, ds = world_arrays(ragged_cfg(tmp_path), arm)
    cfg = replace(FED, rounds=3, client_fraction=0.4, eval_every=1, ldp_enabled=True, ldp_intensity=0.2)
    server, reports = run_federated(ps, arrays, cfg)
    want_server, want_private = recorded(f"partial_{arm}")
    assert [
        (r.round, r.n_participants, r.uploaded_per_client, r.val_auc, r.val_precision, r.skipped)
        for r in reports
    ] == PARTIAL_REPORTS[arm], ON
    assert digest(server.tensors) == want_server, ON
    clients = client_objects(arrays, ps.arch, ds)
    assert digest({f"{c.uid}/{n}": t for c in clients for n, t in c.private.items()}) == want_private, ON


# The training losses and digests of each OpenBLAS kernel core. A
# `partial_<arm>` entry is (server digest, private digest); no_adapter has
# no private tensors, and its private digest is the digest of nothing.
BY_CORE = {
    "SkylakeX": {
        "pretrain_losses": [0.7058724290246511, 0.6832571777896967, 0.6692057217700406, 0.6567113062756279],
        "pretrain": "0e6d9efb36d52f1486b2bfed7c2e59ded855486ad2a4662b3c089c7c5fd5fd6d",
        "distill_losses": [0.706158900452155, 0.6707082257580533, 0.6611393982414562],
        "distill": "08085ceea5984530c593651b08dbec1d5525654c69c8221acf1cb2af10582ddc",
        "fedpa_server": "1a7d0b8d8f34858a7f6edeb3c7561e1392f716af3f5ae98f537c3e498990695f",
        "fedpa_private": "8a5c5710921dd6d348f75c19ad4cb8c569de900d828050d9a9cf8c38f03090b9",
        "ldp_server": "14f983d71f4c21598c2f31e6e04fad8131a98d6b33c3ff6667e9c7674508ade4",
        "partial_fedpa": ("cde9c3cc26ea25f4f473bde1563c982f15aa853838cc6f243891d1fad82cfb13",
                          "8d76739cd5efa57ab0ee4a3467e7aa1c028ce1c2efb0455120ff2287dae8784f"),
        "partial_no_adapter": ("9130ae4b7e921736d0f08a7b9415c00330e2574d817ed4cd118546a90dd05295",
                               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "Haswell": {
        "pretrain_losses": [0.7058724290246511, 0.6832571777896967, 0.6692057217700405, 0.6567113062756279],
        "pretrain": "b191cb0f4ba3323f06f9aa32311f6db92aeea8cbbdc479adcfee3966ecd82270",
        "distill_losses": [0.706158900452155, 0.6707082257580533, 0.6611393982414562],
        "distill": "1e6e72913cc2e0983529a9c2596d09074111aeaaaf540ac90b061861c0bc7b60",
        "fedpa_server": "1a7d0b8d8f34858a7f6edeb3c7561e1392f716af3f5ae98f537c3e498990695f",
        "fedpa_private": "91e09c1bfce1bf817e90e423351381ae063657c35231e0c6274f37d9fdfcbbb1",
        "ldp_server": "6f90478df0d330b71aab066d505dd9772a7f4a63a121a1e3d0c70180fa9c7d18",
        "partial_fedpa": ("2bc4530e8380b46737ad41a52c66ca1a2e1dc44459f06ca947bf9e85fb44858e",
                          "b1692a95eadbc4d9343a936df5b1e941afd2e7ea158d61517429c931d7e0a72b"),
        "partial_no_adapter": ("da3ab541ded200cd3dddc9791076bdcf7150363bec3233c128217db244309158",
                               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "Sandybridge": {
        "pretrain_losses": [0.7058724290246511, 0.6832571777896967, 0.6692057217700406, 0.6567113062756279],
        "pretrain": "289c03c1c04d25af62f06f194436eee498c9469cde0d5f9433e664416732ea21",
        "distill_losses": [0.7061589004521551, 0.6707082257580533, 0.6611393982414562],
        "distill": "75c10748d97b5bc3e5182a8feb6036c74d19afed6e8bc1d7e52851ef684b9864",
        "fedpa_server": "dcdff24375986063c6b1625613807245d8e8352568eb309333eea437e4e2db13",
        "fedpa_private": "daf6cbf634012efc7ca62482d2e3ada3e947270208c2255410209bb8319ceed0",
        "ldp_server": "bebdbbfdf0e2ecdf8c4a78aaf9271860d8cca05639e1847d7b8497a9546ab820",
        "partial_fedpa": ("e8f1088d4485911e29790c479d8b73e8e22fc74b7327fc821bdb0d34436d6566",
                          "9d741bf77c7c990181d6893fa38eda758f18a1f025570c32d00cde3417f23227"),
        "partial_no_adapter": ("e9d98cdfec11c613a971c8f3cfe1701c2399732f987cd1519c1574062739cbd8",
                               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
}
# the validation metrics and summaries, the same on every core above
LDP_VAL_METRICS = [(0.6495726495726496, None)] * 3
LDP_TEST_SUMMARY = EvalSummary(mean_auc=0.5238095238095238, mean_precision=None, n_clients=15,
                               n_auc_valid=7)
LDP_LIFTED_TRAIN_SUMMARY = EvalSummary(mean_auc=0.4651917526917527, mean_precision=0.2738095238095238,
                                       n_clients=15, n_auc_valid=13)
PARTIAL_REPORTS = {
    "fedpa": [(0, 6, 135, 0.641025641025641, None, False),
              (1, 6, 135, 0.6196581196581197, None, False),
              (2, 6, 135, 0.6495726495726496, None, False)],
    "no_adapter": [(0, 6, 121, 0.6837606837606838, 0.3333333333333333, False),
                   (1, 6, 121, 0.5555555555555556, 0.32424242424242417, False),
                   (2, 6, 121, 0.5726495726495726, 0.4222222222222222, False)],
}
PREPARED_ROWS_DIGESTS = ["99a25774905442e8ffcb4ad3960bae0431e40e45550d768e9cef318e0611f9f3",
                         "8c5914b31b5a2075587e4d8b5625f100bda44ad78df8350a880136ac18a8412e"]
FILE_WORLD_ROWS_DIGEST = "0752edb0a5a080b2b3f1bb990b31c26543dc84f71caac1c2401b537aa9343eb5"
FILE_WORLD_PRETRAIN_DIGEST = "17880a63c9cb91f7b2f8b0cc75d1e810d40bcb70b1cd5cd993b3cb2811507b6c"
# re-recorded when each split's sampled negatives began to avoid the items of
# the user's other splits too
FILE_WORLD_SHARDS_DIGEST = "5a5da67e40fd0e8e8d721c82122fb543623eb42102ad7b1cbdd4f741cc3e08c3"
