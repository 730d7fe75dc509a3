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
    """Sample one pixel per grid patch of an (r, r, C) image into a (side, side, C) surrogate.

    Offsets (u, v) are drawn independently per patch, jointly across
    channels, so color coherence is preserved. The input is unchanged.
    """
    grid = GridSpec(factor, require_square(pixels))
    side, f = grid.side, grid.factor
    if f == 1:
        return pixels.copy()
    offsets = rng.integers(0, f, (2, side, side))
    rows = np.arange(side)[:, None] * f + offsets[0]
    cols = np.arange(side)[None, :] * f + offsets[1]
    return pixels[rows, cols]


def expected_surrogate(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Per-patch mean raster: the expectation of gps_sample over its randomness.

    Returns a float64 side x side x C array; used as a statistical oracle.
    """
    grid = GridSpec(factor, require_square(pixels))
    side, f = grid.side, grid.factor
    covered = pixels[: side * f, : side * f].astype(np.float64)
    return covered.reshape(side, f, side, f, pixels.shape[2]).mean(axis=(1, 3))
