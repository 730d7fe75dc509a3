import struct

import numpy as np
import pytest

from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample


def full_image(rng, r=8):
    return rng.integers(0, 256, (r, r, 3)).astype(np.uint8)


def surrogate(rng, r=8, f=2):
    return gps_sample(full_image(rng, r), f, rng.split(7))


class TestSlotArithmetic:
    def test_gps_mode_multiplies_slots_by_factor_squared(self):
        budget = PixelBudget(20, 32)
        rng = Rng(0)
        full = ReplayBuffer(budget, rng.split(1))
        gps = ReplayBuffer(budget, rng.split(2), factor=2)
        assert full.slot_count == 20
        assert gps.slot_count == 80
        assert gps.slot_count == 4 * full.slot_count

    def test_exemplar_side(self):
        budget = PixelBudget(5, 32)
        assert ReplayBuffer(budget, Rng(0)).exemplar_side == 32
        assert ReplayBuffer(budget, Rng(0), factor=4).exemplar_side == 8

    def test_capacity_pixels(self):
        assert PixelBudget(20, 32).capacity_pixels == 20 * 32 * 32

    def test_full_buffer_stays_within_pixel_budget(self):
        budget = PixelBudget(20, 32)
        rng = Rng(1)
        buf = ReplayBuffer(budget, rng.split(0), factor=2, channels=3)
        for k in range(10_000):
            buf.offer(surrogate(rng.split(1, k), r=32, f=2), k % 7)
            assert buf.occupied_pixels <= budget.capacity_pixels
        assert buf.occupied_count == buf.slot_count

    def test_bad_factor_resolution_combo(self):
        with pytest.raises(ConfigError):
            ReplayBuffer(PixelBudget(5, 4), Rng(0), factor=5)


class TestReservoir:
    def test_first_offers_fill_slots_in_order(self):
        rng = Rng(2)
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(0))
        for k in range(4):
            accepted, evicted = buf.offer(full_image(rng.split(k)), k)
            assert accepted and evicted is None
        assert buf.labels.tolist() == [0, 1, 2, 3]

    def test_rejection_keeps_slots(self):
        rng = Rng(3)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0))
        buf.offer(full_image(rng.split(1)), 0)
        buf.offer(full_image(rng.split(2)), 1)
        before = buf.slab.copy(), buf.labels.tolist()
        for k in range(20):
            accepted, evicted = buf.offer(full_image(rng.split(3, k)), 5)
            if not accepted:
                assert evicted is None
                np.testing.assert_array_equal(buf.slab, before[0])
                assert buf.labels.tolist() == before[1]
                return
            before = buf.slab.copy(), buf.labels.tolist()

    def test_seen_count_tracks_offers(self):
        rng = Rng(4)
        buf = ReplayBuffer(PixelBudget(3, 8), rng.split(0))
        for k in range(50):
            buf.offer(full_image(rng.split(k)), 0)
        assert buf.seen_count == 50


class TestItemValidation:
    def test_full_mode_rejects_surrogates(self):
        rng = Rng(5)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0))
        with pytest.raises(ValueError):
            buf.offer(surrogate(rng.split(1)), 0)

    def test_gps_mode_rejects_full_images(self):
        rng = Rng(6)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0), factor=2)
        with pytest.raises(ValueError):
            buf.offer(full_image(rng.split(1)), 0)

    def test_gps_mode_rejects_factor_mismatch(self):
        rng = Rng(7)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0), factor=2)
        with pytest.raises(ValueError):
            buf.offer(surrogate(rng.split(1), r=8, f=4), 0)

    def test_wrong_side_rejected(self):
        rng = Rng(8)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0))
        with pytest.raises(ValueError):
            buf.offer(full_image(rng.split(1), r=16), 0)

    def test_unlabeled_rejected(self):
        # -1 is the empty-slot marker, so no exemplar may carry it
        rng = Rng(9)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0))
        with pytest.raises(ValueError):
            buf.offer(np.zeros((8, 8, 3), dtype=np.uint8), -1)

    def test_non_uint8_rejected(self):
        rng = Rng(12)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0), factor=2)
        with pytest.raises(ValueError, match="uint8"):
            buf.offer(np.zeros((4, 4, 3), dtype=np.float64), 0)


class TestClassIndex:
    def recompute(self, buf):
        index = {}
        for slot, label in enumerate(buf.labels.tolist()):
            if label >= 0:
                index.setdefault(label, []).append(slot)
        return index

    def test_index_matches_recomputation_under_fuzz(self):
        rng = Rng(10)
        for trial in range(30):
            buf = ReplayBuffer(PixelBudget(6, 8), rng.split(trial),
                               factor=2)
            n_offers = int(rng.split(trial, 1).integer(1, 200))
            for k in range(n_offers):
                label = int(rng.split(trial, 2, k).integer(0, 5))
                buf.offer(surrogate(rng.split(trial, 3, k)), label)
                slots = {c: s.tolist() for c, s in buf.class_slots().items()}
                assert slots == self.recompute(buf)

    def test_class_counts(self):
        rng = Rng(11)
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(0))
        for label in (2, 2, 5, 7):
            buf.offer(full_image(rng.split(label, buf.seen_count)), label)
        assert buf.class_counts() == {2: 2, 5: 1, 7: 1}
        assert list(buf.class_counts()) == [2, 5, 7]

    def test_missing_class_returns_empty(self):
        # -1 marks the empty slot, so it must not be listed as a class
        buf = ReplayBuffer(PixelBudget(2, 8), Rng(0))
        assert buf.class_slots() == {}
        buf.offer(full_image(Rng(1)), 5)
        assert {c: s.tolist() for c, s in buf.class_slots().items()} == {5: [0]}


class TestSnapshot:
    def fill(self, seed, n_offers=120):
        rng = Rng(seed)
        buf = ReplayBuffer(PixelBudget(5, 8), rng.split(0), factor=2)
        for k in range(n_offers):
            buf.offer(surrogate(rng.split(1, k)), k % 4)
        return buf, rng

    def test_round_trip_preserves_contents(self):
        buf, _ = self.fill(0)
        restored = ReplayBuffer.restore(buf.snapshot())
        assert restored.slot_count == buf.slot_count
        assert restored.seen_count == buf.seen_count
        assert restored.factor == buf.factor
        np.testing.assert_array_equal(restored.labels, buf.labels)
        np.testing.assert_array_equal(restored.slab, buf.slab)
        assert restored.class_counts() == buf.class_counts()

    def test_round_trip_preserves_future_decisions(self):
        # the restored buffer must accept/evict identically forever after
        buf, rng = self.fill(1)
        restored = ReplayBuffer.restore(buf.snapshot())
        for k in range(200):
            item = surrogate(rng.split(2, k))
            a1, _ = buf.offer(item, k % 4)
            a2, _ = restored.offer(item, k % 4)
            assert a1 == a2
        assert buf.labels.tolist() == restored.labels.tolist()

    def test_snapshot_of_restore_is_identical_bytes(self):
        buf, _ = self.fill(2)
        blob = buf.snapshot()
        assert ReplayBuffer.restore(blob).snapshot() == blob

    def test_partial_buffer_round_trip(self):
        rng = Rng(3)
        buf = ReplayBuffer(PixelBudget(5, 8), rng.split(0))
        buf.offer(full_image(rng.split(1)), 2)
        restored = ReplayBuffer.restore(buf.snapshot())
        assert restored.occupied_count == 1
        assert restored.labels.tolist() == [2, -1, -1, -1, -1]

    def test_bad_magic(self):
        buf, _ = self.fill(4)
        blob = bytearray(buf.snapshot())
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError, match="magic"):
            ReplayBuffer.restore(bytes(blob))

    def test_bad_version(self):
        buf, _ = self.fill(5)
        blob = bytearray(buf.snapshot())
        blob[4] = 99
        with pytest.raises(FormatError, match="version"):
            ReplayBuffer.restore(bytes(blob))

    def test_truncation_rejected(self):
        buf, _ = self.fill(6)
        blob = buf.snapshot()
        for cut in (8, len(blob) // 2, len(blob) - 1):
            with pytest.raises(FormatError):
                ReplayBuffer.restore(blob[:cut])

    def test_trailing_garbage_rejected(self):
        buf, _ = self.fill(7)
        with pytest.raises(FormatError, match="trailing"):
            ReplayBuffer.restore(buf.snapshot() + b"\x00")

    def test_layout_is_header_rng_labels_slab(self):
        buf, _ = self.fill(8, n_offers=7)
        blob = buf.snapshot()
        rng_bytes = buf.rng.state_bytes()
        header = struct.pack("<4sHHIIBQ", b"GPSB", 3, 2, 5, 8, 3, 7)
        assert blob == (header + rng_bytes + buf.labels.astype("<i4").tobytes()
                        + buf.slab.tobytes())

    def patched(self, offset, fmt, value):
        buf, _ = self.fill(9)
        blob = bytearray(buf.snapshot())
        struct.pack_into(fmt, blob, offset, value)
        return bytes(blob)

    def test_huge_image_count_rejected_before_allocating(self):
        # header claims 2^31 budget images; the length check must fire first
        with pytest.raises(FormatError, match="truncated"):
            ReplayBuffer.restore(self.patched(8, "<I", 2 ** 31))

    def test_factor_zero_is_format_error(self):
        with pytest.raises(FormatError, match="factor"):
            ReplayBuffer.restore(self.patched(6, "<H", 0))

    def test_seven_channels_is_format_error(self):
        with pytest.raises(FormatError, match="channel"):
            ReplayBuffer.restore(self.patched(16, "<B", 7))

    def test_version_1_blob_rejected_by_name(self):
        with pytest.raises(FormatError, match="version 1"):
            ReplayBuffer.restore(self.patched(4, "<H", 1))

    def test_version_2_blob_rejected_by_name(self):
        # version 2 had a mode byte after the version: 0 for full, 1 for gps
        blob = self.patched(4, "<H", 2)
        with pytest.raises(FormatError, match="version 2"):
            ReplayBuffer.restore(blob[:6] + b"\x01" + blob[6:])

    def test_labels_must_match_seen_count(self):
        # only 3 offers: slots 3.. must be empty (-1)
        buf, _ = self.fill(10, n_offers=3)
        blob = bytearray(buf.snapshot())
        labels_at = 25 + len(buf.rng.state_bytes())
        struct.pack_into("<i", blob, labels_at + 4 * 5, 1)
        with pytest.raises(FormatError, match="seen count"):
            ReplayBuffer.restore(bytes(blob))
