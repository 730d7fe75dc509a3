"""Grid-based patch sampling and its inverses.

An r x r image is partitioned into a side x side grid of factor x factor
patches and one pixel is picked uniformly at random from each patch. The
picks keep the original spatial layout, so the surrogate preserves coarse
structure at 1/factor^2 of the pixel count. The grid covers the top-left
(side*factor)^2 region; trailing rows and columns belong to no patch.

Pixel repetition (`upsample`) expands each surrogate pixel back into a
factor x factor constant block. It is the reassembly law and the tests'
oracle: replay training (`learner.train_step`) and NCM inference
(`learner.ncm_prototypes`) apply it implicitly, through a first layer pooled
over those blocks, so no training or inference step calls it.
`grid_concat` tiles factor^2 surrogates into one image for
`gps reconstruct`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .imaging import Rng, require_square


def grid_side(factor: int, resolution: int) -> int:
    """Side of the grid of factor x factor patches in an r x r image: floor(r / factor)."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    if resolution < 1:
        raise ConfigError(f"resolution must be >= 1, got {resolution}")
    side = resolution // factor
    if side < 1:
        raise ConfigError(f"factor {factor} exceeds resolution {resolution}: grid would be empty")
    return side


def gps_sample(pixels: np.ndarray, factor: int, rng: Rng) -> np.ndarray:
    """Sample one pixel per grid patch of (..., r, r, C) images into (..., side, side, C) surrogates.

    Offsets (u, v) are drawn independently per image and patch, jointly
    across channels, so color coherence is preserved. A whole batch takes
    one (..., 2, side, side) draw, so a single (r, r, C) image draws
    (2, side, side). The input is unchanged.
    """
    side, f = grid_side(factor, require_square(pixels)), factor
    lead, r, channels = pixels.shape[:-3], pixels.shape[-2], pixels.shape[-1]
    offsets = rng.integers(0, f, (*lead, 2, side, side)).reshape(-1, 2, side, side)
    rows = np.arange(side)[:, None] * f + offsets[:, 0]
    cols = np.arange(side)[None, :] * f + offsets[:, 1]
    images = np.arange(len(offsets))[:, None, None]
    # one linear index image * r^2 + row * r + col into the (N * r * r, C) pixels
    flat = pixels.reshape(-1, channels)
    return flat.take((images * r + rows) * r + cols, axis=0).reshape(
        *lead, side, side, channels)


def upsample(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Expand each pixel of a (..., side, side, C) array into a factor x factor constant block."""
    return np.repeat(np.repeat(pixels, factor, axis=-3), factor, axis=-2)


def grid_concat(parts, factor: int) -> np.ndarray:
    """Tile (..., factor^2, side, side, C) parts into (..., factor*side,
    factor*side, C) images, part k in cell (k // factor, k % factor), as
    `gps reconstruct` tiles one class's surrogates."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    parts = np.asarray(parts)
    if parts.ndim < 4 or parts.shape[-4] != factor * factor:
        raise ValueError(f"expected {factor * factor} parts of shape (side, side, C), "
                         f"got an array of shape {parts.shape}")
    *lead, _, height, width, channels = parts.shape
    # (g, i, j, y, x, c) -> (g, i, y, j, x, c): block (i, j) holds part i*factor + j
    grid = parts.reshape(-1, factor, factor, height, width, channels)
    grid = grid.transpose(0, 1, 3, 2, 4, 5)
    return grid.reshape(*lead, factor * height, factor * width, channels)
