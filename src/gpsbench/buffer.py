"""Pixel-budget replay buffer with reservoir updates over one uint8 slab.

The budget is counted in stored pixel positions: a buffer worth K
full-resolution r x r images holds K * r^2 pixels. At sampling factor f
the same budget buys f^2 times as many slots, each holding a compressed
exemplar of side floor(r / f); at f = 1 that is the full image. Exemplars
live in one (slots, side, side, C) array beside a label vector in which -1
marks an empty slot; the per-class index is computed from the labels on
demand; `draw_replay_batch` draws a replay step's slots from the occupied ones.
A buffer is plain data; like `gps_sample`, `offer` takes its draws from the
generator it is passed, so a snapshot holds no generator state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .imaging import Rng
from .sampler import grid_side

SNAPSHOT_MAGIC = b"GPSB"
SNAPSHOT_VERSION = 4
# magic, version, factor, budget image count, budget resolution, channels,
# seen count; then the labels as <i4 and the slab.
_HEADER = struct.Struct("<4sHHIIBQ")


@dataclass(frozen=True)
class PixelBudget:
    """Memory budget expressed as K reference images of resolution r. Plain
    data: `_geometry` checks it when a buffer is built or restored."""

    image_count: int
    resolution: int

    @property
    def capacity_pixels(self):
        return self.image_count * self.resolution ** 2


def _geometry(budget: PixelBudget, factor: int, channels: int):
    """(exemplar side, slot count) of a buffer; ConfigError if impossible."""
    if budget.image_count < 1:
        raise ConfigError(f"budget image count must be >= 1, got {budget.image_count}")
    if channels not in (1, 3):
        raise ConfigError(f"channel count must be 1 or 3, got {channels}")
    return grid_side(factor, budget.resolution), budget.image_count * factor ** 2


class ReplayBuffer:
    """Fixed-slot exemplar store under a pixel budget, reservoir-managed.

    Slots hold surrogates of side floor(r/factor), factor^2 times as many
    as the budget's K images, so factor 1 stores K full images. `slab[i]`
    is slot i's pixels and `labels[i]` its class, or -1 while the slot is
    empty. Slots fill in order and never empty, so the first `occupied_count`
    are the occupied ones. Single-writer: confine each buffer to one worker.
    """

    def __init__(self, budget: PixelBudget, factor: int = 1, channels: int = 3):
        side, slot_count = _geometry(budget, factor, channels)
        self.budget = budget
        self.factor = factor
        self.slab = np.zeros((slot_count, side, side, channels), dtype=np.uint8)
        self.labels = np.full(slot_count, -1, dtype=np.int32)
        self.seen_count = 0

    @property
    def slot_count(self):
        return self.slab.shape[0]

    @property
    def exemplar_side(self):
        """Side length every stored exemplar must have."""
        return self.slab.shape[1]

    @property
    def channels(self):
        return self.slab.shape[3]

    @property
    def occupied_count(self):
        return min(self.seen_count, self.slot_count)

    @property
    def occupied_pixels(self):
        return self.occupied_count * self.exemplar_side ** 2

    def offer(self, pixels: np.ndarray, labels, rng: Rng):
        """Reservoir update over (..., s, s, C) exemplars in stream order.

        `labels` has shape pixels.shape[:-3], so one (s, s, C) exemplar takes
        one label. The first slot_count items ever offered always land; item
        n+1 is kept with probability slot_count / (n+1), replacing a uniformly
        random slot, both drawn from `rng`. Returns (accepted count, evicted
        labels in stream order). Bad input leaves the buffer and `rng` untouched.
        """
        shape = self.slab.shape[1:]
        if pixels.shape[-3:] != shape or pixels.dtype != np.uint8:
            raise ValueError(f"exemplars must be (..., {', '.join(map(str, shape))}) uint8, "
                             f"got {pixels.shape} {pixels.dtype}")
        given, labels = labels, np.asarray(labels)
        if labels.shape != pixels.shape[:-3]:
            raise ValueError(f"labels of shape {labels.shape} do not match exemplars "
                             f"of shape {pixels.shape}")
        items, labels = pixels.reshape((-1, *shape)), labels.ravel()
        values = labels.tolist()
        # int32 label field, and -1 marks an empty slot; np.asarray turns a
        # bool among ints in a list into an int, so a list is looked through
        if values and (labels.dtype.kind not in "iu"
                       or not 0 <= min(values) <= max(values) < 2 ** 31
                       or isinstance(given, (list, tuple)) and any(
                           isinstance(v, (bool, np.bool_))
                           for v in np.ravel(np.array(given, dtype=object)))):
            raise ValueError(f"labels must be integers in [0, 2^31), got {given!r}")
        seen, n, slot_count = self.seen_count, len(values), self.slot_count
        self.seen_count = seen + n
        fill = min(max(slot_count - seen, 0), n)
        if fill:
            self.slab[seen : seen + fill] = items[:fill]
            self.labels[seen : seen + fill] = labels[:fill]
        evicted = []
        if fill < n:
            # the same values and rng state as one scalar draw per item
            slots = rng.integers(0, seen + fill + 1 + np.arange(n - fill)).tolist()
            for i, slot in enumerate(slots, fill):  # stream order: a later hit on a slot wins
                if slot < slot_count:
                    evicted.append(int(self.labels[slot]))
                    self.slab[slot] = items[i]
                    self.labels[slot] = values[i]
        return fill + len(evicted), evicted

    def class_slots(self):
        """{class: its occupied slot indices, ascending}, ascending by class:
        one pass over the labels per class, with no sort of the slots."""
        labels = self.labels[: self.occupied_count]
        return {c: np.flatnonzero(labels == c) for c in sorted(set(labels.tolist()))}

    def class_counts(self):
        """{class: exemplar count}, ascending by class."""
        return {c: len(slots) for c, slots in self.class_slots().items()}

    # --- snapshot / restore ---

    def snapshot(self) -> bytes:
        """Serialize header, labels and slab (format version 4)."""
        header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.factor,
                              self.budget.image_count, self.budget.resolution,
                              self.channels, self.seen_count)
        return b"".join([header, self.labels.astype("<i4").tobytes(), self.slab.tobytes()])

    @classmethod
    def restore(cls, blob: bytes) -> "ReplayBuffer":
        """Rebuild a buffer from `snapshot` output; FormatError on any malformed blob.

        The blob length is checked against the header before anything is
        allocated, so a hostile header cannot request a huge buffer.
        """
        if blob[:4] != SNAPSHOT_MAGIC:
            raise FormatError(f"bad snapshot magic {blob[:4]!r}: expected {SNAPSHOT_MAGIC!r}")
        if len(blob) < _HEADER.size:
            raise FormatError(f"truncated snapshot header: need {_HEADER.size} bytes")
        _, version, factor, image_count, resolution, channels, seen_count = (
            _HEADER.unpack_from(blob))
        if version != SNAPSHOT_VERSION:
            raise FormatError(
                f"unsupported snapshot version {version}: expected {SNAPSHOT_VERSION}"
            )
        budget = PixelBudget(image_count, resolution)
        try:
            side, slot_count = _geometry(budget, factor, channels)
        except ConfigError as exc:
            raise FormatError(f"invalid snapshot header: {exc}") from None
        slab_at = _HEADER.size + 4 * slot_count
        shape = (slot_count, side, side, channels)
        expected = slab_at + math.prod(shape)
        if len(blob) < expected:
            raise FormatError(f"truncated snapshot: expected {expected} bytes, got {len(blob)}")
        if len(blob) > expected:
            raise FormatError(f"snapshot has {len(blob) - expected} trailing bytes")
        labels = np.frombuffer(blob, dtype="<i4", count=slot_count, offset=_HEADER.size)
        occupied = min(seen_count, slot_count)
        if (labels[:occupied] < 0).any() or (labels[occupied:] != -1).any():
            raise FormatError(f"slot labels disagree with seen count {seen_count}")
        buf = cls(budget, factor=factor, channels=channels)
        buf.seen_count = seen_count
        buf.labels[:] = labels
        buf.slab[:] = np.frombuffer(blob, dtype=np.uint8, offset=slab_at).reshape(shape)
        return buf


def draw_replay_batch(buf: ReplayBuffer, batch_size: int, rng: Rng) -> np.ndarray:
    """Draw min(batch_size, occupied // factor^2) occupied slots uniformly
    without replacement, as a 1-D array; the cap is the number of full images
    the stored pixels make up. An empty draw leaves `rng` untouched.
    """
    count = min(batch_size, buf.occupied_count // buf.factor ** 2)
    return rng.choice(buf.occupied_count, count, replace=False)
