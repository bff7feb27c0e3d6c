import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.privacy import NoiseConfig, laplace_noise, noise_uploads
from helpers import Upload, noise_upload


class TestLaplaceNoise:
    def test_zero_scale_is_exact_zero(self):
        rng = np.random.default_rng(0)
        x = laplace_noise(0.0, (100,), [rng])[0]
        assert np.all(x == 0.0)

    def test_empirical_mean_and_variance(self):
        rng = np.random.default_rng(1)
        lam = 0.2
        x = laplace_noise(lam, (100_000,), [rng])[0]
        assert abs(x.mean()) < 0.005
        assert x.var() == pytest.approx(2.0 * lam * lam, rel=0.05)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(2)
        x = laplace_noise(0.3, (100_000,), [rng])[0]
        frac_pos = np.mean(x > 0)
        assert abs(frac_pos - 0.5) < 0.01

    def test_scale_scales_linearly(self):
        # same rng stream: draws at scale 2b are exactly twice the draws at b
        a = laplace_noise(0.1, (1000,), [np.random.default_rng(3)])[0]
        b = laplace_noise(0.2, (1000,), [np.random.default_rng(3)])[0]
        assert np.allclose(b, 2.0 * a, atol=1e-15)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_noise(-0.1, (3,), [np.random.default_rng(0)])

    def test_scalar_draw(self):
        v = laplace_noise(0.5, (), [np.random.default_rng(4)])[0]
        assert v.shape == () and np.isfinite(v)

    def test_independent_streams_differ(self):
        a = laplace_noise(0.2, (50,), [np.random.default_rng([7, 0])])[0]
        b = laplace_noise(0.2, (50,), [np.random.default_rng([7, 1])])[0]
        assert not np.array_equal(a, b)


class TestNoiseConfig:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            NoiseConfig(intensity=-0.1, enabled=True)


def rows(*tensors):
    """Tensors as the single row of an upload batch."""
    return {n: t[None] for n, t in tensors}


class TestNoiseUpload:
    def test_disabled_returns_same_object(self):
        up = rows(("a", np.ones((2, 2))))
        out = noise_uploads(up, NoiseConfig(0.3, enabled=False), [np.random.default_rng(0)])
        assert out is up

    def test_enabled_perturbs_all_tensors(self):
        up = rows(("a", np.ones((2, 2))), ("b", np.zeros(3)))
        out = noise_uploads(up, NoiseConfig(0.3, enabled=True), [np.random.default_rng(0)])
        assert not np.array_equal(out["a"], up["a"])
        assert not np.array_equal(out["b"], up["b"])
        assert out["a"].shape == up["a"].shape and out["b"].shape == up["b"].shape

    def test_original_upload_untouched(self):
        up = rows(("a", np.ones((2, 2))))
        noise_uploads(up, NoiseConfig(0.3, enabled=True), [np.random.default_rng(0)])
        assert np.all(up["a"] == 1.0)

    def test_deterministic_given_rng_seed(self):
        up = rows(("a", np.ones((4,))))
        a = noise_uploads(up, NoiseConfig(0.2, enabled=True), [np.random.default_rng([9, 1])])
        b = noise_uploads(up, NoiseConfig(0.2, enabled=True), [np.random.default_rng([9, 1])])
        assert np.array_equal(a["a"], b["a"])

    def test_mean_preserved_under_averaging(self):
        # zero-mean noise: averaging many noised copies of the same tensor
        # recovers it closely
        base = np.full((5,), 0.7)
        rngs = [np.random.default_rng([11, uid]) for uid in range(4000)]
        out = noise_uploads({"a": np.tile(base, (4000, 1))}, NoiseConfig(0.2, enabled=True), rngs)
        assert np.allclose(np.mean(out["a"], axis=0), base, atol=0.02)


SHAPES = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=6)


class TestOneDrawNoise:
    @settings(max_examples=150, deadline=None)
    @given(SHAPES, st.integers(0, 4), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.5]))
    def test_equals_per_tensor_oracle(self, shapes, n_clients, seed, lam):
        # row c of the batch, drawn in one go into the noise matrix, equals
        # client c's upload noised one tensor at a time from its own stream;
        # names out of sorted order: the draw follows the upload's order
        sizes = [math.prod(shape) for shape in shapes]
        values = np.random.default_rng(seed).normal(size=(n_clients, sum(sizes)))
        tensors, start = {}, 0
        for i, (shape, size) in enumerate(zip(shapes, sizes)):
            tensors[f"t{len(shapes) - i}"] = values[:, start : start + size].reshape((n_clients, *shape))
            start += size
        cfg = NoiseConfig(lam, enabled=True)
        rngs = [np.random.default_rng([seed, c]) for c in range(n_clients)]
        refs = [np.random.default_rng([seed, c]) for c in range(n_clients)]
        got = noise_uploads(tensors, cfg, rngs)
        assert list(got) == list(tensors)
        for c in range(n_clients):
            up = Upload(c, {n: t[c] for n, t in tensors.items()}, 4, {})
            want = noise_upload(up, cfg, refs[c])
            for name, t in want.tensors.items():
                assert got[name][c].shape == t.shape
                assert got[name][c].tobytes() == t.tobytes()
            # both consumed the same number of draws
            assert rngs[c].random() == refs[c].random()
