"""Pixel arrays, deterministic randomness, and file I/O.

An image is a C-contiguous (height, width, channels) uint8 array with 1 or 3
channels; a batch of images stacks them as (n, height, width, channels).
Everything downstream (sampling, buffering, training) builds on these arrays
and on the one type defined here: `Rng`.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, FormatError


# Purpose tags used to derive independent child generators from one
# experiment seed. Values are arbitrary but frozen: changing them changes
# every stream.
DOMAIN_TASK_SPLIT = 1
DOMAIN_DATA = 2
DOMAIN_MODEL_INIT = 3
DOMAIN_BUFFER = 4
DOMAIN_REPLAY = 5
DOMAIN_STREAM = 6

# float64 values per random draw (256 KB). Larger arrays are drawn in pieces of
# at most this many values, or one row per draw when a row is larger: successive
# draws from one generator equal one draw of their concatenated shape.
DRAW_CHUNK_VALUES = 1 << 15


class Rng(np.random.Generator):
    """Deterministic numpy Generator over Philox4x64, split via spawn keys.

    Equal (seed, key path) always yields the same draw sequence, on any
    platform. `split` derives an independent child stream without consuming
    state from the parent, so splitting order never perturbs draws. Draws
    are numpy's own `Generator` methods; no file stores a generator's state.
    numpy pickles and copies a Generator as a plain one, which loses
    `split`; nothing copies an Rng (workers get configs and seeds).
    """

    def __init__(self, seed, _spawn_key=()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        super().__init__(np.random.Philox(
            np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))

    def split(self, *path):
        """Child generator for the given purpose path, e.g. split(DOMAIN_STREAM, step)."""
        return Rng(self.seed, self.spawn_key + tuple(int(p) for p in path))


def require_square(pixels):
    """Raise ConfigError unless (..., H, W, C) images are square; returns their side length."""
    height, width = pixels.shape[-3:-1]
    if height != width:
        raise ConfigError(f"input must be square, got {height}x{width}")
    return height


# --- PPM (P6) I/O, bit-exact ---


# Whitespace and '#' comments, then a header token; the token may be empty,
# so every position matches and `match` never backtracks.
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def load_ppm(path):
    """Read a binary PPM (P6, maxval 255) file into an (H, W, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P6":
        raise FormatError(f"unsupported magic {data[:2]!r}: expected P6")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        match = _PPM_TOKEN.match(data, pos)
        tok, pos = match.group(1), match.end()
        if not tok:
            raise FormatError("malformed header: unexpected end of file")
        try:
            if not tok.isdigit():  # int() alone would also take "+1", "0_1" and "-0"
                raise ValueError(tok)
            fields.append(int(tok))  # ValueError beyond int()'s 4,300-digit limit
        except ValueError:
            raise FormatError(f"malformed header: {name} is not a decimal integer") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"malformed header: non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}: only 255 is supported")
    if pos < len(data) and not data[pos : pos + 1].isspace():
        raise FormatError(f"malformed header: expected one whitespace byte after maxval, "
                          f"got {data[pos : pos + 1]!r}")
    pos += 1
    payload = data[pos : pos + height * width * 3]
    if len(payload) != height * width * 3:
        raise FormatError(
            f"truncated pixel data: expected {height * width * 3} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def save_ppm(path, pixels):
    """Write an (H, W, C) uint8 image with 1 or 3 channels as binary PPM (P6).

    Single-channel input is replicated to RGB. Any other array raises
    ValueError before the file is opened.
    """
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3) or arr.dtype != np.uint8:
        raise ValueError(f"image must be (H, W, 1 or 3) uint8, got {arr.shape} {arr.dtype}")
    if arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())
