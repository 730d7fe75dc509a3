"""Grid-based patch sampling: compress an image into a low-resolution surrogate.

An r x r image is partitioned into a side x side grid of factor x factor
patches and one pixel is picked uniformly at random from each patch. The
picks keep the original spatial layout, so the surrogate preserves coarse
structure at 1/factor^2 of the pixel count.
"""

from __future__ import annotations

import numpy as np

from .imaging import GridSpec, Rng, require_square


def gps_sample(pixels: np.ndarray, factor: int, rng: Rng) -> np.ndarray:
    """Sample one pixel per grid patch of (..., r, r, C) images into (..., side, side, C) surrogates.

    Offsets (u, v) are drawn independently per image and patch, jointly
    across channels, so color coherence is preserved. A whole batch takes
    one (..., 2, side, side) draw, so a single (r, r, C) image draws
    (2, side, side). The input is unchanged.
    """
    grid = GridSpec(factor, require_square(pixels))
    side, f = grid.side, grid.factor
    if f == 1:
        return pixels.copy()
    lead, r, channels = pixels.shape[:-3], pixels.shape[-2], pixels.shape[-1]
    offsets = rng.integers(0, f, (*lead, 2, side, side)).reshape(-1, 2, side, side)
    rows = np.arange(side)[:, None] * f + offsets[:, 0]
    cols = np.arange(side)[None, :] * f + offsets[:, 1]
    images = np.arange(len(offsets))[:, None, None]
    # one linear index image * r^2 + row * r + col into the (N * r * r, C) pixels
    flat = pixels.reshape(-1, channels)
    return flat.take((images * r + rows) * r + cols, axis=0).reshape(
        *lead, side, side, channels)
