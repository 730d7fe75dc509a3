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

GPSI_MAGIC = b"GPSI"


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

    def patch_bounds(self, i, j):
        """Half-open pixel rectangle (row0, row1, col0, col1) of grid cell (i, j)."""
        if not (0 <= i < self.side and 0 <= j < self.side):
            raise ValueError(
                f"grid cell ({i}, {j}) out of range for a {self.side}x{self.side} grid"
            )
        f = self.factor
        return (i * f, (i + 1) * f, j * f, (j + 1) * f)

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


class Rng:
    """Deterministic random source: Philox4x64 (numpy), split via spawn keys.

    Equal (seed, key path) always yields the same draw sequence, on any
    platform. `split` derives an independent child stream without consuming
    state from the parent, so splitting order never perturbs draws.
    """

    def __init__(self, seed, _spawn_key=()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(k) for k in _spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._bitgen = np.random.Philox(seq)
        self._gen = np.random.Generator(self._bitgen)

    def split(self, *path):
        """Child generator for the given purpose path, e.g. split(DOMAIN_STREAM, n)."""
        return Rng(self.seed, self.spawn_key + tuple(int(p) for p in path))

    def integer(self, low, high):
        """One integer drawn uniformly from [low, high)."""
        return int(self._gen.integers(low, high))

    def integers(self, low, high, shape):
        """Array of integers drawn uniformly from [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def normal(self, shape):
        return self._gen.standard_normal(size=shape)

    def uniform(self, low, high, shape):
        return self._gen.uniform(low, high, size=shape)

    def shuffled(self, items):
        """New array with the items (rows of an array) in shuffled order.

        A list and an array of the same length get the same permutation.
        """
        out = np.array(items)
        self._gen.shuffle(out)
        return out

    def choose(self, n, k):
        """k distinct indices from range(n), uniformly without replacement."""
        return [int(i) for i in self._gen.choice(n, size=k, replace=False)]

    # --- binary state (used by buffer snapshots) ---

    def state_bytes(self):
        """Fixed-layout little-endian serialization of seed, key path, and PRNG state."""
        st = self._bitgen.state
        parts = [struct.pack("<q", self.seed)]
        parts.append(struct.pack("<I", len(self.spawn_key)))
        for k in self.spawn_key:
            parts.append(struct.pack("<I", k))
        parts.append(st["state"]["counter"].astype("<u8").tobytes())
        parts.append(st["state"]["key"].astype("<u8").tobytes())
        parts.append(st["buffer"].astype("<u8").tobytes())
        parts.append(struct.pack("<II", st["buffer_pos"], st["has_uint32"]))
        parts.append(struct.pack("<Q", st["uinteger"]))
        return b"".join(parts)

    @classmethod
    def from_state_bytes(cls, blob, offset=0):
        """Rebuild a generator from `state_bytes` output; returns (rng, bytes consumed)."""
        try:
            pos = offset
            (seed,) = struct.unpack_from("<q", blob, pos)
            pos += 8
            (n_key,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            spawn = struct.unpack_from(f"<{n_key}I", blob, pos) if n_key else ()
            pos += 4 * n_key
            counter = np.frombuffer(blob, dtype="<u8", count=4, offset=pos).copy()
            pos += 32
            key = np.frombuffer(blob, dtype="<u8", count=2, offset=pos).copy()
            pos += 16
            buf = np.frombuffer(blob, dtype="<u8", count=4, offset=pos).copy()
            pos += 32
            buffer_pos, has_uint32 = struct.unpack_from("<II", blob, pos)
            pos += 8
            (uinteger,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
        except (struct.error, ValueError) as exc:
            raise FormatError(f"truncated rng state: {exc}") from exc
        rng = cls(seed, spawn)
        rng._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": key},
            "buffer": buf,
            "buffer_pos": buffer_pos,
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        return rng, pos - offset


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
    """Raise ConfigError unless the (H, W, C) image is square; returns its side length."""
    height, width = pixels.shape[:2]
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
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"malformed header: {name} is not an integer") from None
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


# --- raw tensor container for fixtures ---


def load_gpsi(path):
    """Read the raw fixture container: 'GPSI', u32 LE height/width/channels, payload."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != GPSI_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}: expected {GPSI_MAGIC!r}")
    if len(data) < 16:
        raise FormatError("truncated header: need 16 bytes")
    height, width, channels = struct.unpack_from("<III", data, 4)
    expected = height * width * channels
    payload = data[16:]
    if len(payload) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)


def save_gpsi(path, pixels):
    arr = as_pixels(pixels)
    with open(path, "wb") as fh:
        fh.write(GPSI_MAGIC)
        fh.write(struct.pack("<III", *arr.shape))
        fh.write(arr.tobytes())
