"""Pixel-budget replay buffer with reservoir updates over one uint8 slab.

The budget is counted in stored pixel positions: a buffer worth K
full-resolution r x r images holds K * r^2 pixels. At sampling factor f
the same budget buys f^2 times as many slots, each holding a compressed
exemplar of side floor(r / f); at f = 1 that is the full image. Exemplars
live in one (slots, side, side, C) array beside a label vector in which -1
marks an empty slot; the per-class index is computed from the labels on
demand.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .imaging import GridSpec, Rng

SNAPSHOT_MAGIC = b"GPSB"
SNAPSHOT_VERSION = 3
# magic, version, factor, budget image count, budget resolution, channels,
# seen count; then the rng state, the labels as <i4 and the slab.
_HEADER = struct.Struct("<4sHHIIBQ")


@dataclass(frozen=True)
class PixelBudget:
    """Memory budget expressed as K reference images of resolution r."""

    image_count: int
    resolution: int

    def __post_init__(self):
        if self.image_count < 1:
            raise ConfigError(f"budget image count must be >= 1, got {self.image_count}")
        if self.resolution < 1:
            raise ConfigError(f"budget resolution must be >= 1, got {self.resolution}")

    @property
    def capacity_pixels(self):
        return self.image_count * self.resolution ** 2


def _geometry(budget: PixelBudget, factor: int, channels: int):
    """(exemplar side, slot count) of a buffer; ConfigError if impossible."""
    if channels not in (1, 3):
        raise ConfigError(f"channel count must be 1 or 3, got {channels}")
    return GridSpec(factor, budget.resolution).side, budget.image_count * factor ** 2


class ReplayBuffer:
    """Fixed-slot exemplar store under a pixel budget, reservoir-managed.

    Slots hold surrogates of side floor(r/factor), factor^2 times as many
    as the budget's K images, so factor 1 stores K full images. `slab[i]`
    is slot i's pixels and `labels[i]` its class, or -1 while the slot is
    empty. Single-writer: confine each buffer to one worker.
    """

    def __init__(self, budget: PixelBudget, rng: Rng, factor: int = 1, channels: int = 3):
        side, slot_count = _geometry(budget, factor, channels)
        self.budget = budget
        self.factor = factor
        self.channels = channels
        self.rng = rng
        self.slot_count = slot_count
        self.slab = np.zeros((slot_count, side, side, channels), dtype=np.uint8)
        self.labels = np.full(slot_count, -1, dtype=np.int32)
        self.seen_count = 0

    @property
    def exemplar_side(self):
        """Side length every stored exemplar must have."""
        return self.slab.shape[1]

    @property
    def occupied_count(self):
        return min(self.seen_count, self.slot_count)

    @property
    def occupied_pixels(self):
        return self.occupied_count * self.exemplar_side ** 2

    def offer(self, pixels: np.ndarray, label: int):
        """Reservoir update: returns (accepted, evicted label or None).

        The first slot_count offers always land; offer n+1 is kept with
        probability slot_count / (n+1), replacing a uniformly random slot.
        """
        if pixels.shape != self.slab.shape[1:] or pixels.dtype != np.uint8:
            raise ValueError(
                f"exemplar must be a {self.slab.shape[1:]} uint8 array, "
                f"got {pixels.shape} {pixels.dtype}"
            )
        label = int(label)
        if label < 0:
            raise ValueError(f"label must be a non-negative integer, got {label}")
        evicted = None
        if self.seen_count < self.slot_count:
            slot = self.seen_count
        else:
            slot = int(self.rng.integers(0, self.seen_count + 1))
            if slot >= self.slot_count:
                self.seen_count += 1
                return False, None
            evicted = int(self.labels[slot])
        self.seen_count += 1
        self.slab[slot] = pixels
        self.labels[slot] = label
        return True, evicted

    def class_slots(self):
        """{class: its occupied slot indices, ascending}, ascending by class."""
        by_class = np.argsort(self.labels, kind="stable")
        by_class = by_class[self.labels[by_class] >= 0]
        classes, starts = np.unique(self.labels[by_class], return_index=True)
        return dict(zip(classes.tolist(), np.split(by_class, starts[1:])))

    def class_counts(self):
        """{class: exemplar count}, ascending by class."""
        return {c: len(slots) for c, slots in self.class_slots().items()}

    # --- snapshot / restore ---

    def snapshot(self) -> bytes:
        """Serialize header, rng state, labels and slab (format version 3)."""
        header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.factor,
                              self.budget.image_count, self.budget.resolution,
                              self.channels, self.seen_count)
        return b"".join([header, self.rng.state_bytes(),
                         self.labels.astype("<i4").tobytes(), self.slab.tobytes()])

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
        try:
            budget = PixelBudget(image_count, resolution)
            side, slot_count = _geometry(budget, factor, channels)
        except ConfigError as exc:
            raise FormatError(f"invalid snapshot header: {exc}") from None
        rng, used = Rng.from_state_bytes(blob, _HEADER.size)
        labels_at = _HEADER.size + used
        slab_at = labels_at + 4 * slot_count
        shape = (slot_count, side, side, channels)
        expected = slab_at + math.prod(shape)
        if len(blob) < expected:
            raise FormatError(f"truncated snapshot: expected {expected} bytes, got {len(blob)}")
        if len(blob) > expected:
            raise FormatError(f"snapshot has {len(blob) - expected} trailing bytes")
        labels = np.frombuffer(blob, dtype="<i4", count=slot_count, offset=labels_at)
        occupied = min(seen_count, slot_count)
        if (labels[:occupied] < 0).any() or (labels[occupied:] != -1).any():
            raise FormatError(f"slot labels disagree with seen count {seen_count}")
        buf = cls(budget, rng, factor=factor, channels=channels)
        buf.seen_count = seen_count
        buf.labels[:] = labels
        buf.slab[:] = np.frombuffer(blob, dtype=np.uint8, offset=slab_at).reshape(shape)
        return buf
