import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec.privacy import laplace_noise, noise_uploads
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


class TestNoiseUpload:
    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError, match="laplace scale -0.1 < 0"):
            noise_uploads(np.ones((1, 4)), -0.1, [np.random.default_rng(0)], np.arange(4))

    def test_enabled_perturbs_all_tensors(self):
        up = np.ones((2, 7))
        rngs = [np.random.default_rng(c) for c in range(2)]
        out = noise_uploads(up, 0.3, rngs, np.arange(7))
        assert out.shape == up.shape and np.all(out != up)

    def test_original_upload_untouched(self):
        up = np.ones((1, 4))
        noise_uploads(up, 0.3, [np.random.default_rng(0)], np.arange(4))
        assert np.all(up == 1.0)

    def test_deterministic_given_rng_seed(self):
        up = np.ones((1, 4))
        a = noise_uploads(up, 0.2, [np.random.default_rng([9, 1])], np.arange(4))
        b = noise_uploads(up, 0.2, [np.random.default_rng([9, 1])], np.arange(4))
        assert np.array_equal(a, b)

    def test_mean_preserved_under_averaging(self):
        # zero-mean noise: averaging many noised copies of the same vector
        # recovers it closely
        base = np.full((5,), 0.7)
        rngs = [np.random.default_rng([11, uid]) for uid in range(4000)]
        out = noise_uploads(np.tile(base, (4000, 1)), 0.2, rngs, np.arange(5))
        assert np.allclose(np.mean(out, axis=0), base, atol=0.02)


SHAPES = st.lists(st.lists(st.integers(0, 4), max_size=3).map(tuple), max_size=6)


class TestOneDrawNoise:
    @settings(max_examples=150, deadline=None)
    @given(SHAPES, st.integers(0, 4), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.5]))
    def test_equals_per_tensor_oracle(self, shapes, n_clients, seed, lam):
        # row c of the upload matrix, noised with one draw into the noise
        # matrix, equals client c's upload noised one tensor at a time from
        # its own stream in upload order: the tensors lie in the matrix in
        # another order (reversed), and `order` sends each column its draw
        sizes = [math.prod(shape) for shape in shapes]
        starts = np.cumsum([0] + sizes)
        width = int(starts[-1])
        uploads = np.random.default_rng(seed).normal(size=(n_clients, width))
        # tensor i sits at columns starts[i]:starts[i + 1] and is drawn after
        # every tensor j > i: the upload order is the reverse
        drawn_before = np.cumsum([0] + sizes[::-1])[::-1][1:]
        order = np.zeros(width, dtype=np.intp)
        for i, size in enumerate(sizes):
            order[starts[i] : starts[i + 1]] = drawn_before[i] + np.arange(size)
        rngs = [np.random.default_rng([seed, c]) for c in range(n_clients)]
        refs = [np.random.default_rng([seed, c]) for c in range(n_clients)]
        got = noise_uploads(uploads, lam, rngs, order)
        assert got.shape == uploads.shape
        for c in range(n_clients):
            tensors = {f"t{i}": uploads[c, starts[i] : starts[i + 1]].reshape(shape)
                       for i, shape in reversed(list(enumerate(shapes)))}
            want = noise_upload(Upload(c, tensors, 4, {}), lam, refs[c])
            for i in range(len(shapes)):
                assert got[c, starts[i] : starts[i + 1]].tobytes() == want.tensors[f"t{i}"].tobytes()
            # both consumed the same number of draws
            assert rngs[c].random() == refs[c].random()
