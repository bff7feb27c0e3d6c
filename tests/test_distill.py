from dataclasses import replace

import numpy as np
import pytest

from fedrec.config import ConfigError
from fedrec.data import SynthConfig, synth_generate
from fedrec.distill import DistillConfig, DistillError, distill, distill_targets
from fedrec.federation import pretrain, pretrain_examples
from fedrec.model import Arch, count_params, forward_batch, init_params
from helpers import compare_models, prediction_mse, with_split


def teacher_world(seed=0):
    cfg = SynthConfig(n_users=30, n_items=20, user_attrs=(3,), item_attrs=(4,),
                      beta=1.0, interactions_per_user=15)
    ds = with_split(synth_generate(cfg, seed), "pretrain")
    arch = Arch(ds.user_schema, ds.item_schema, embed_dim=8, mlp_hidden=(16, 8),
                gate_mode="none", use_user_adapter=False, group_attrs=())
    teacher, _ = pretrain(ds, arch, epochs=8, lr=0.3, batch_size=32, seed=seed)
    UA, VA, y = pretrain_examples(ds, seed)
    return teacher, UA, VA, y


class TestDistillTargets:
    def test_alpha_one_returns_the_teacher_bit_for_bit(self):
        # 0.0 * y is +0.0 for labels in {0, 1}, so the blend adds nothing
        t = np.array([0.2, 0.9, 0.0, 1.0, 5e-324])
        for y in (np.array([1, 0, 0, 1, 1]), np.array([0.0, 1.0, 1.0, 0.0, 0.0])):
            assert distill_targets(t, y, 1.0).tobytes() == t.tobytes()

    def test_alpha_zero_returns_labels(self):
        t = np.array([0.2, 0.9])
        y = np.array([1.0, 0.0])
        assert np.array_equal(distill_targets(t, y, 0.0), y)

    def test_blend(self):
        t = np.array([0.4])
        y = np.array([1.0])
        assert distill_targets(t, y, 0.25)[0] == pytest.approx(0.25 * 0.4 + 0.75, abs=1e-15)

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError, match=r"^config key 'distill.alpha': 1.5 is outside \[0, 1\]$"):
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
        student, hist = distill(teacher, UA, VA, y, cfg)
        assert len(hist.train_loss) == 10
        assert hist.train_loss[-1] < hist.train_loss[0]
        # one rng drives the epochs in order, so a 1-epoch run is this run's
        # student after its first epoch
        one_epoch, _ = distill(teacher, UA, VA, y, replace(cfg, epochs=1))
        assert prediction_mse(student, teacher, UA, VA) < prediction_mse(one_epoch, teacher, UA, VA)

    def test_alpha_one_trains_on_the_teacher_alone(self):
        teacher, UA, VA, y = teacher_world()
        cfg = DistillConfig(embed_dim=4, mlp_hidden=(8,), epochs=2, alpha=1.0)
        student, _ = distill(teacher, UA, VA, y, cfg)
        # the run is byte-identical with every label flipped
        student2, _ = distill(teacher, UA, VA, 1 - y, cfg)
        for n in student.tensors:
            assert student.tensors[n].tobytes() == student2.tensors[n].tobytes()

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
