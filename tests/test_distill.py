import numpy as np
import pytest

from fedrec.data import SynthConfig, synth_generate
from fedrec.distill import DistillConfig, DistillError, distill, distill_targets
from fedrec.federation import pretrain, pretrain_examples
from fedrec.model import Arch, count_params, forward_batch, init_params
from helpers import compare_models


def teacher_world(seed=0):
    cfg = SynthConfig(n_users=30, n_items=20, user_attrs=(3,), item_attrs=(4,),
                      beta=1.0, interactions_per_user=15)
    ds = synth_generate(cfg, seed)
    for r in ds.interactions:
        r.split = "pretrain"
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=8, mlp_hidden=(16, 8),
                gate_mode="none", use_user_adapter=False, group_attrs=())
    teacher, _ = pretrain(ds, arch, epochs=8, lr=0.3, batch_size=32, seed=seed)
    UA, VA, y = pretrain_examples(ds, seed)
    return teacher, UA, VA, y


class TestDistillTargets:
    def test_alpha_one_returns_teacher_without_labels(self):
        t = np.array([0.2, 0.9])
        out = distill_targets(t, None, 1.0)
        assert out is t

    def test_alpha_zero_returns_labels(self):
        t = np.array([0.2, 0.9])
        y = np.array([1.0, 0.0])
        assert np.array_equal(distill_targets(t, y, 0.0), y)

    def test_blend(self):
        t = np.array([0.4])
        y = np.array([1.0])
        assert distill_targets(t, y, 0.25)[0] == pytest.approx(0.25 * 0.4 + 0.75, abs=1e-15)

    def test_missing_labels_rejected(self):
        with pytest.raises(DistillError):
            distill_targets(np.array([0.5]), None, 0.5)

    def test_bad_alpha_rejected(self):
        with pytest.raises(DistillError):
            DistillConfig(embed_dim=4, mlp_hidden=(8,), alpha=1.5)


class TestDistill:
    def test_student_strictly_smaller(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=1)
        student, _ = distill(teacher, UA, VA, y, cfg)
        assert count_params(student) < count_params(teacher)
        assert student.arch.embed_dim == 4 and student.arch.mlp_hidden == (8,)

    def test_not_smaller_rejected(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=8, mlp_hidden=(16, 8), epochs=1)
        with pytest.raises(DistillError):
            distill(teacher, UA, VA, y, cfg)

    def test_loss_and_holdout_mse_decrease(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=10, lr=0.3)
        _, hist = distill(teacher, UA, VA, y, cfg, holdout=(UA, VA))
        assert len(hist.train_loss) == len(hist.holdout_mse) == 10
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.holdout_mse[-1] < hist.holdout_mse[0]

    def test_alpha_one_never_reads_labels(self):
        teacher, UA, VA, _ = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=2, alpha=1.0)
        student, _ = distill(teacher, UA, VA, None, cfg)
        # and the run is byte-identical with garbage labels supplied
        garbage = np.full(len(UA), 0.123)
        student2, _ = distill(teacher, UA, VA, garbage, cfg)
        for n in student.tensors:
            assert np.array_equal(student.tensors[n], student2.tensors[n])

    def test_deterministic(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=2)
        a, ha = distill(teacher, UA, VA, y, cfg)
        b, hb = distill(teacher, UA, VA, y, cfg)
        assert ha.train_loss == hb.train_loss
        for n in a.tensors:
            assert np.array_equal(a.tensors[n], b.tensors[n])

    def test_student_tracks_teacher(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=30, lr=0.3)
        student, _ = distill(teacher, UA, VA, y, cfg)
        sp, _ = forward_batch(student, UA, VA)
        tp, _ = forward_batch(teacher, UA, VA)
        fresh, _ = forward_batch(init_params(student.arch, 1), UA, VA)
        assert np.mean((sp - tp) ** 2) < np.mean((fresh - tp) ** 2)


class TestCompareModels:
    def test_identical_models_zero_delta(self):
        teacher, UA, VA, y = teacher_world()
        d_auc, d_prec = compare_models(teacher, teacher, UA, VA, y)
        assert d_auc == 0.0 and d_prec == 0.0

    def test_antisymmetric(self):
        teacher, UA, VA, y = teacher_world()
        student, _ = distill(teacher, UA, VA, y, DistillConfig(4, (8,), epochs=3))
        a = compare_models(teacher, student, UA, VA, y)
        b = compare_models(student, teacher, UA, VA, y)
        assert a[0] == pytest.approx(-b[0], abs=1e-12)
        assert a[1] == pytest.approx(-b[1], abs=1e-12)
