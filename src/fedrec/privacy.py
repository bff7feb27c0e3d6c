"""Client-side Laplace noising of uploads (local-differential-privacy style).

The noise scale ("intensity") is the Laplace scale parameter b, so the noise
variance is 2 b^2. No clipping or epsilon accounting is performed; this is
parameter-value noising, not a calibrated DP mechanism.

Draw order: `noise_uploads` noises a round's C uploads held as rows. Client
c's Generator makes one `uniform` draw of the upload's P scalars into row c
of a (C, P) matrix, and one inverse-CDF transform turns the whole matrix
into noise. Row c's values go to the tensors in upload order, each taking
the next `size` values in C (row-major) order. Because consecutive `uniform`
draws from a generator equal one concatenated draw, that is the same noise
as one draw per tensor in upload order from client c's own generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class NoiseConfig:
    intensity: float = 0.0  # Laplace scale; 0 is a valid no-op
    enabled: bool = False

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError(f"noise intensity {self.intensity} < 0")


def laplace_noise(lam: float, shape, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """iid zero-mean Laplace(scale=lam) draws, (len(rngs), *shape): row c
    from one `uniform` draw of `shape` from rngs[c], and one inverse-CDF
    transform of all rows, u ~ U(-1/2, 1/2) -> -lam * sign(u) * ln(1 - 2|u|)."""
    if lam < 0:
        raise ValueError(f"laplace scale {lam} < 0")
    u = np.empty((len(rngs), *np.broadcast_shapes(shape)))
    for c, g in enumerate(rngs):
        u[c] = g.uniform(-0.5, 0.5, size=shape)
    if lam == 0:
        return np.zeros(u.shape)
    return -lam * np.sign(u) * np.log1p(-2.0 * np.abs(u))


def noise_uploads(
    tensors: Dict[str, np.ndarray], config: NoiseConfig, rngs: Sequence[np.random.Generator]
) -> Dict[str, np.ndarray]:
    """Independent Laplace noise on every scalar of C uploads.

    `tensors` maps each uploaded tensor, in upload order, to a (C, *shape)
    array whose row c is client c's; rngs[c] draws client c's noise. Returns
    new arrays and leaves the inputs untouched; without noise (disabled, or
    no rows) returns `tensors` itself. Uploads only ever contain shared
    tensors, so private tensors are never noised.
    """
    if not config.enabled or not len(rngs):
        return tensors
    sizes = [t[0].size for t in tensors.values()]
    draws = laplace_noise(config.intensity, sum(sizes), rngs)
    noised, start = {}, 0
    for (n, t), size in zip(tensors.items(), sizes):
        noised[n] = t + draws[:, start : start + size].reshape(t.shape)
        start += size
    return noised
