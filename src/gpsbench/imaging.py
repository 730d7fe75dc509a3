"""Pixel arrays, grid geometry, deterministic randomness, and file I/O.

An image is a C-contiguous (height, width, channels) uint8 array with 1 or 3
channels; a batch of images stacks them as (n, height, width, channels).
Everything downstream (sampling, buffering, training) builds on these arrays
and on the two types defined here: `GridSpec` and `Rng`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError


@dataclass(frozen=True)
class GridSpec:
    """Uniform partition of an r x r image into side x side patches of factor x factor pixels.

    The grid covers the top-left (side*factor)^2 region; trailing rows and
    columns beyond it belong to no patch.
    """

    factor: int
    resolution: int
    side: int = field(init=False)

    def __post_init__(self):
        if self.factor < 1:
            raise ConfigError(f"factor must be >= 1, got {self.factor}")
        if self.resolution < 1:
            raise ConfigError(f"resolution must be >= 1, got {self.resolution}")
        side = self.resolution // self.factor
        if side < 1:
            raise ConfigError(
                f"factor {self.factor} exceeds resolution {self.resolution}: grid would be empty"
            )
        object.__setattr__(self, "side", side)

    @property
    def covered(self):
        """Side length of the region covered by patches (= side * factor)."""
        return self.side * self.factor

    @property
    def dropped_pixels(self):
        """Pixel positions outside every patch."""
        return self.resolution ** 2 - self.covered ** 2


# Purpose tags used to derive independent child generators from one
# experiment seed. Values are arbitrary but frozen: changing them changes
# every stream.
DOMAIN_TASK_SPLIT = 1
DOMAIN_DATA = 2
DOMAIN_MODEL_INIT = 3
DOMAIN_BUFFER = 4
DOMAIN_REPLAY = 5
DOMAIN_STREAM = 6


# Philox state after the key path: counter, key and buffer words, then
# buffer_pos, has_uint32 and the cached uint32.
_PHILOX = struct.Struct("<4Q2Q4QIIQ")


class Rng(np.random.Generator):
    """Deterministic numpy Generator over Philox4x64, split via spawn keys.

    Equal (seed, key path) always yields the same draw sequence, on any
    platform. `split` derives an independent child stream without consuming
    state from the parent, so splitting order never perturbs draws. Draws
    are numpy's own `Generator` methods. numpy pickles and copies a
    Generator as a plain one, which loses `split` and `state_bytes`; nothing
    copies an Rng (worker processes get configs and seeds, not generators).
    """

    def __init__(self, seed, _spawn_key=()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        super().__init__(np.random.Philox(
            np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)))

    def split(self, *path):
        """Child generator for the given purpose path, e.g. split(DOMAIN_STREAM, step)."""
        return Rng(self.seed, self.spawn_key + tuple(int(p) for p in path))

    # --- binary state (used by buffer snapshots) ---

    def state_bytes(self):
        """Fixed-layout little-endian serialization of seed, key path, and PRNG state."""
        st = self.bit_generator.state
        n = len(self.spawn_key)
        return struct.pack(f"<qI{n}I", self.seed, n, *self.spawn_key) + _PHILOX.pack(
            *st["state"]["counter"], *st["state"]["key"], *st["buffer"],
            st["buffer_pos"], st["has_uint32"], st["uinteger"])

    @classmethod
    def from_state_bytes(cls, blob, offset=0):
        """Rebuild a generator from `state_bytes` output; returns (rng, bytes consumed)."""
        try:
            seed, n = struct.unpack_from("<qI", blob, offset)
            spawn = struct.unpack_from(f"<{n}I", blob, offset + 12)
            words = _PHILOX.unpack_from(blob, offset + 12 + 4 * n)
        except struct.error as exc:
            raise FormatError(f"truncated rng state: {exc}") from exc
        # numpy rejects a negative seed and out-of-range state fields itself
        try:
            rng = cls(seed, spawn)
            rng.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": words[0:4], "key": words[4:6]},
                "buffer": words[6:10],
                "buffer_pos": words[10],
                "has_uint32": words[11],
                "uinteger": words[12],
            }
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"invalid rng state: {exc}") from None
        return rng, 12 + 4 * n + _PHILOX.size


def as_pixels(data):
    """Check an image and return it as a C-contiguous (H, W, C) uint8 array.

    2-D input gains a single channel axis. Integer data in [0, 255] is
    converted; floats, out-of-range values and channel counts other than 1
    or 3 raise ValueError instead of being coerced.
    """
    arr = np.asarray(data)
    if arr.ndim == 2:
        arr = arr[:, :, np.newaxis]
    if arr.ndim != 3:
        raise ValueError(f"image data must be HxWxC, got shape {arr.shape}")
    if arr.shape[2] not in (1, 3):
        raise ValueError(f"channel count must be 1 or 3, got {arr.shape[2]}")
    if arr.dtype != np.uint8:
        if arr.dtype.kind not in "iu":
            raise ValueError(f"image data must be integers, got dtype {arr.dtype}")
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError(
                f"channel values must lie in [0, 255], got range "
                f"[{arr.min()}, {arr.max()}]"
            )
        arr = arr.astype(np.uint8)
    return np.ascontiguousarray(arr)


def require_square(pixels):
    """Raise ConfigError unless (..., H, W, C) images are square; returns their side length."""
    height, width = pixels.shape[-3:-1]
    if height != width:
        raise ConfigError(f"input must be square, got {height}x{width}")
    return height


# --- PPM (P6) I/O, bit-exact ---


def _read_ppm_token(data, pos):
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise FormatError("malformed header: unexpected end of file")
    return data[start:pos], pos


def load_ppm(path):
    """Read a binary PPM (P6, maxval 255) file into an (H, W, 3) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P6":
        raise FormatError(f"unsupported magic {data[:2]!r}: expected P6")
    pos = 2
    fields = []
    for name in ("width", "height", "maxval"):
        try:
            tok, pos = _read_ppm_token(data, pos)
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
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + height * width * 3]
    if len(payload) != height * width * 3:
        raise FormatError(
            f"truncated pixel data: expected {height * width * 3} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)


def save_ppm(path, pixels):
    """Write an image as binary PPM (P6). Single-channel input is replicated to RGB."""
    arr = as_pixels(pixels)
    if arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    header = f"P6\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())
