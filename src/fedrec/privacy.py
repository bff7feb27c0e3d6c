"""Client-side Laplace noising of uploads (local-differential-privacy style).

The noise scale ("intensity") is the Laplace scale parameter b, so the noise
variance is 2 b^2. No clipping or epsilon accounting is performed; this is
parameter-value noising, not a calibrated DP mechanism.

Draw order: `noise_uploads` noises a round's C uploads, a (C, P) matrix.
Client c's Generator makes one `uniform` draw of the upload's P scalars into
row c of a (C, P) matrix, and one inverse-CDF transform turns the whole
matrix into noise; an `order` index then places the draws on the columns.
Because consecutive `uniform` draws from a generator equal one concatenated
draw, an order that runs through the upload's tensors one after another
gives the same noise as one draw per tensor, in that order, from client c's
own generator.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


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
    uploads: np.ndarray, scale: float, rngs: Sequence[np.random.Generator], order: np.ndarray
) -> np.ndarray:
    """Independent Laplace(scale) noise on every scalar of C uploads.

    Row c of `uploads` (C, P) is client c's, and rngs[c] draws its noise;
    column j takes draw order[j] of the row. Returns a new matrix and leaves
    the input untouched. Uploads only ever contain shared tensors, so
    private tensors are never noised.
    """
    return uploads + laplace_noise(scale, uploads.shape[1], rngs)[:, order]
