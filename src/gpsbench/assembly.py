"""Turn buffered surrogates back into trainable and classifiable inputs.

Training uses concatenation: factor^2 same-class surrogates tiled into a
factor x factor grid rebuild one full-resolution image. Pixel repetition
(`upsample`) expands each surrogate pixel into a factor x factor constant
block; NCM inference applies it implicitly, through a first layer pooled
over those blocks (`learner.ncm_prototypes`).
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
    """Expand each pixel of a (..., side, side, C) array into a factor x factor constant block."""
    return np.repeat(np.repeat(pixels, factor, axis=-3), factor, axis=-2)


def draw_replay_batch(buf: ReplayBuffer, batch_size: int, rng: Rng) -> np.ndarray:
    """Draw up to batch_size slot groups, one per replay image.

    Per class: shuffle its slot indices, cut into consecutive groups of
    factor^2, drop the incomplete tail. All complete groups form one pool;
    min(batch_size, pool) groups are drawn uniformly without replacement.
    At factor 1 the pool is every occupied slot, in slot order, unshuffled.
    Returns an (n, factor^2) array of slot indices in grid order, so
    `grid_concat(buf.slab[groups], buf.factor)` tiles the n replay images
    and `buf.labels[groups[:, 0]]` labels them. Groups re-randomize on
    every call.
    """
    group_size = buf.factor ** 2
    if group_size == 1:
        pool = np.flatnonzero(buf.labels >= 0)[:, None]
    else:
        pool = [np.empty((0, group_size), dtype=np.intp)]
        for slots in buf.class_slots().values():
            indices = rng.permutation(slots)
            complete = len(indices) - len(indices) % group_size
            pool.append(indices[:complete].reshape(-1, group_size))
        pool = np.concatenate(pool)
    if not len(pool):
        return pool
    return pool[rng.choice(len(pool), min(batch_size, len(pool)), replace=False)]
