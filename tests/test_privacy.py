import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.federation import Upload
from fedrec.privacy import NoiseConfig, laplace_noise, noise_upload
from helpers import noise_upload_per_tensor


class TestLaplaceNoise:
    def test_zero_scale_is_exact_zero(self):
        rng = np.random.default_rng(0)
        x = laplace_noise(0.0, (100,), rng)
        assert np.all(x == 0.0)

    def test_empirical_mean_and_variance(self):
        rng = np.random.default_rng(1)
        lam = 0.2
        x = laplace_noise(lam, (100_000,), rng)
        assert abs(x.mean()) < 0.005
        assert x.var() == pytest.approx(2.0 * lam * lam, rel=0.05)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        x = laplace_noise(0.3, (100_000,), rng)
        frac_pos = np.mean(x > 0)
        assert abs(frac_pos - 0.5) < 0.01

    def test_scale_scales_linearly(self):
        # same rng stream: draws at scale 2b are exactly twice the draws at b
        a = laplace_noise(0.1, (1000,), np.random.default_rng(3))
        b = laplace_noise(0.2, (1000,), np.random.default_rng(3))
        assert np.allclose(b, 2.0 * a, atol=1e-15)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-0.1, (3,), np.random.default_rng(0))

    def test_scalar_draw(self):
        v = laplace_noise(0.5, (), np.random.default_rng(4))
        assert v.shape == () and np.isfinite(v)

    def test_independent_streams_differ(self):
        a = laplace_noise(0.2, (50,), np.random.default_rng([7, 0]))
        b = laplace_noise(0.2, (50,), np.random.default_rng([7, 1]))
        assert not np.array_equal(a, b)


class TestNoiseConfig:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(intensity=-0.1, enabled=True)


def make_upload(uid, tensors):
    return Upload(uid=uid, tensors=tensors, n_examples=4, groups={}, skipped=False)


class TestNoiseUpload:
    def test_disabled_returns_same_object(self):
        up = make_upload(0, {"a": np.ones((2, 2))})
        out = noise_upload(up, NoiseConfig(0.3, enabled=False), np.random.default_rng(0))
        assert out is up

    def test_enabled_perturbs_all_tensors(self):
        up = make_upload(0, {"a": np.ones((2, 2)), "b": np.zeros(3)})
        out = noise_upload(up, NoiseConfig(0.3, enabled=True), np.random.default_rng(0))
        assert not np.array_equal(out.tensors["a"], up.tensors["a"])
        assert not np.array_equal(out.tensors["b"], up.tensors["b"])
        assert out.uid == up.uid and out.n_examples == up.n_examples

    def test_original_upload_untouched(self):
        up = make_upload(0, {"a": np.ones((2, 2))})
        noise_upload(up, NoiseConfig(0.3, enabled=True), np.random.default_rng(0))
        assert np.all(up.tensors["a"] == 1.0)

    def test_deterministic_given_rng_seed(self):
        up = make_upload(0, {"a": np.ones((4,))})
        a = noise_upload(up, NoiseConfig(0.2, enabled=True), np.random.default_rng([9, 1]))
        b = noise_upload(up, NoiseConfig(0.2, enabled=True), np.random.default_rng([9, 1]))
        assert np.array_equal(a.tensors["a"], b.tensors["a"])

    def test_mean_preserved_under_averaging(self):
        # zero-mean noise: averaging many noised copies of the same tensor
        # recovers it closely
        base = np.full((5,), 0.7)
        noised = []
        for uid in range(4000):
            up = make_upload(uid, {"a": base.copy()})
            out = noise_upload(up, NoiseConfig(0.2, enabled=True),
                               np.random.default_rng([11, uid]))
            noised.append(out.tensors["a"])
        assert np.allclose(np.mean(noised, axis=0), base, atol=0.02)


SHAPES = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=6)


class TestOneDrawNoise:
    @settings(max_examples=150, deadline=None)
    @given(SHAPES, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.5]))
    def test_equals_per_tensor_oracle(self, shapes, seed, lam):
        # names out of sorted order: the draw follows the upload's order
        tensors = {f"t{len(shapes) - i}": np.full(shape, float(i)) for i, shape in enumerate(shapes)}
        up = make_upload(0, tensors)
        cfg = NoiseConfig(lam, enabled=True)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = noise_upload(up, cfg, rng)
        want = noise_upload_per_tensor(up, cfg, rng_ref)
        assert list(got.tensors) == list(want.tensors)
        for name, t in want.tensors.items():
            assert got.tensors[name].shape == t.shape
            assert got.tensors[name].tobytes() == t.tobytes()
        # both consumed the same number of draws
        assert rng.random() == rng_ref.random()
