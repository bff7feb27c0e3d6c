"""Client-side Laplace noising of uploads (local-differential-privacy style).

The noise scale ("intensity") is the Laplace scale parameter b, so the noise
variance is 2 b^2. No clipping or epsilon accounting is performed; this is
parameter-value noising, not a calibrated DP mechanism.

Draw order: `noise_upload` makes one `laplace_noise` draw of the upload's
total scalar count and hands it out to the tensors in upload order, each
taking the next `size` values in C (row-major) order. Because consecutive
`uniform` draws from a generator equal one concatenated draw, that is the
same noise as one draw per tensor in upload order.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    intensity: float = 0.0  # Laplace scale; 0 is a valid no-op
    enabled: bool = False

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError(f"noise intensity {self.intensity} < 0")


def laplace_noise(lam: float, shape, rng: np.random.Generator) -> np.ndarray:
    """Array of iid zero-mean Laplace(scale=lam) draws.

    Inverse CDF: u ~ U(-1/2, 1/2), x = -lam * sign(u) * ln(1 - 2|u|).
    """
    if lam < 0:
        raise ValueError(f"laplace scale {lam} < 0")
    u = rng.uniform(-0.5, 0.5, size=shape)
    if lam == 0:
        return np.zeros(np.shape(u))
    return -lam * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def noise_upload(upload, config: NoiseConfig, rng: np.random.Generator):
    """Add independent Laplace noise to every scalar of every uploaded tensor.

    Metadata (client id, counts, group indices) is untouched. The upload only
    ever contains shared tensors, so private tensors are never noised.
    """
    if not config.enabled:
        return upload
    draws = laplace_noise(config.intensity, sum(t.size for t in upload.tensors.values()), rng)
    noised, start = {}, 0
    for n, t in upload.tensors.items():
        noised[n] = t + draws[start : start + t.size].reshape(t.shape)
        start += t.size
    return replace(upload, tensors=noised)
