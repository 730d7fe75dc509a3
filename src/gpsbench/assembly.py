"""Turn buffered surrogates back into trainable and classifiable inputs.

Pixel repetition (`upsample`) expands each surrogate pixel into a factor x
factor constant block. Replay trains on uniformly drawn surrogates, each
upsampled to one full-resolution image; NCM inference applies it implicitly,
through a first layer pooled over those blocks (`learner.ncm_prototypes`).
`grid_concat` tiles factor^2 surrogates into one image for `gps reconstruct`.
"""

from __future__ import annotations

import numpy as np

from .buffer import ReplayBuffer
from .imaging import Rng


def grid_concat(parts, factor: int) -> np.ndarray:
    """Tile factor^2 surrogates into one image: part k fills cell (k // factor, k % factor).

    `parts` has shape (..., factor^2, side, side, C) and the result
    (..., factor*side, factor*side, C): leading axes are kept, so one call
    tiles a whole batch of groups.
    """
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


def upsample(pixels: np.ndarray, factor: int) -> np.ndarray:
    """Expand each pixel of a (..., side, side, C) array into a factor x factor constant block.

    Factor 1 returns the input. Otherwise one byte-wise `take` widens each
    row and whole rows are repeated, so no copy moves one pixel at a time.
    """
    if factor == 1:
        return pixels
    *lead, height, width, channels = pixels.shape
    # byte (j*factor + k)*C + c of a widened row is byte j*C + c of the row
    columns = np.repeat(np.arange(width * channels).reshape(width, 1, channels), factor, axis=1)
    rows = pixels.reshape(*lead, height, width * channels).take(columns.reshape(-1), axis=-1)
    return np.repeat(rows, factor, axis=-2).reshape(
        *lead, height * factor, width * factor, channels)


def draw_replay_batch(buf: ReplayBuffer, batch_size: int, rng: Rng) -> np.ndarray:
    """Draw min(batch_size, occupied // factor^2) occupied slots uniformly
    without replacement, as a 1-D array; the cap is the number of full images
    the stored pixels make up. An empty draw leaves `rng` untouched.
    """
    occupied = np.flatnonzero(buf.labels >= 0)
    count = min(batch_size, len(occupied) // buf.factor ** 2)
    return occupied[rng.choice(len(occupied), count, replace=False)]
