import struct

import numpy as np
import pytest

from gpsbench.buffer import PixelBudget, ReplayBuffer, draw_replay_batch
from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample


def full_image(rng, r=8):
    return rng.integers(0, 256, (r, r, 3)).astype(np.uint8)


def surrogate(rng, r=8, f=2):
    return gps_sample(full_image(rng, r), f, rng.split(7))


def rng_state(rng):
    """`rng.bit_generator.state` in a form == compares: the state holds
    numpy arrays, whose repr is exact at this size."""
    return repr(rng.bit_generator.state)


class TestSlotArithmetic:
    def test_gps_mode_multiplies_slots_by_factor_squared(self):
        budget = PixelBudget(20, 32)
        full = ReplayBuffer(budget)
        gps = ReplayBuffer(budget, factor=2)
        assert full.slot_count == 20
        assert gps.slot_count == 80
        assert gps.slot_count == 4 * full.slot_count

    def test_exemplar_side(self):
        budget = PixelBudget(5, 32)
        assert ReplayBuffer(budget).exemplar_side == 32
        assert ReplayBuffer(budget, factor=4).exemplar_side == 8

    def test_capacity_pixels(self):
        assert PixelBudget(20, 32).capacity_pixels == 20 * 32 * 32

    def test_full_buffer_stays_within_pixel_budget(self):
        budget = PixelBudget(20, 32)
        rng = Rng(1)
        buf, buf_rng = ReplayBuffer(budget, factor=2, channels=3), rng.split(0)
        for k in range(10_000):
            buf.offer(surrogate(rng.split(1, k), r=32, f=2), k % 7, buf_rng)
            assert buf.occupied_pixels <= budget.capacity_pixels
        assert buf.occupied_count == buf.slot_count

    def test_bad_factor_resolution_combo(self):
        with pytest.raises(ConfigError):
            ReplayBuffer(PixelBudget(5, 4), factor=5)


class TestReservoir:
    def test_first_offers_fill_slots_in_order(self):
        rng = Rng(2)
        buf, buf_rng = ReplayBuffer(PixelBudget(4, 8)), rng.split(0)
        for k in range(4):
            accepted, evicted = buf.offer(full_image(rng.split(k)), k, buf_rng)
            assert accepted == 1 and evicted == []
        assert buf.labels.tolist() == [0, 1, 2, 3]

    def test_rejection_keeps_slots(self):
        rng = Rng(3)
        buf, buf_rng = ReplayBuffer(PixelBudget(2, 8)), rng.split(0)
        buf.offer(full_image(rng.split(1)), 0, buf_rng)
        buf.offer(full_image(rng.split(2)), 1, buf_rng)
        before = buf.slab.copy(), buf.labels.tolist()
        for k in range(20):
            accepted, evicted = buf.offer(full_image(rng.split(3, k)), 5, buf_rng)
            if not accepted:
                assert evicted == []
                np.testing.assert_array_equal(buf.slab, before[0])
                assert buf.labels.tolist() == before[1]
                return
            before = buf.slab.copy(), buf.labels.tolist()

    def test_seen_count_tracks_offers(self):
        rng = Rng(4)
        buf, buf_rng = ReplayBuffer(PixelBudget(3, 8)), rng.split(0)
        for k in range(50):
            buf.offer(full_image(rng.split(k)), 0, buf_rng)
        assert buf.seen_count == 50


class TestItemValidation:
    def test_full_mode_rejects_surrogates(self):
        rng = Rng(5)
        buf = ReplayBuffer(PixelBudget(2, 8))
        with pytest.raises(ValueError):
            buf.offer(surrogate(rng.split(1)), 0, rng.split(0))

    def test_gps_mode_rejects_full_images(self):
        rng = Rng(6)
        buf = ReplayBuffer(PixelBudget(2, 8), factor=2)
        with pytest.raises(ValueError):
            buf.offer(full_image(rng.split(1)), 0, rng.split(0))

    def test_gps_mode_rejects_factor_mismatch(self):
        rng = Rng(7)
        buf = ReplayBuffer(PixelBudget(2, 8), factor=2)
        with pytest.raises(ValueError):
            buf.offer(surrogate(rng.split(1), r=8, f=4), 0, rng.split(0))

    def test_wrong_side_rejected(self):
        rng = Rng(8)
        buf = ReplayBuffer(PixelBudget(2, 8))
        with pytest.raises(ValueError):
            buf.offer(full_image(rng.split(1), r=16), 0, rng.split(0))

    def test_unlabeled_rejected(self):
        # -1 is the empty-slot marker, so no exemplar may carry it
        rng = Rng(9)
        buf = ReplayBuffer(PixelBudget(2, 8))
        with pytest.raises(ValueError):
            buf.offer(np.zeros((8, 8, 3), dtype=np.uint8), -1, rng.split(0))

    def test_non_uint8_rejected(self):
        rng = Rng(12)
        buf = ReplayBuffer(PixelBudget(2, 8), factor=2)
        with pytest.raises(ValueError, match="uint8"):
            buf.offer(np.zeros((4, 4, 3), dtype=np.float64), 0, rng.split(0))

    @pytest.mark.parametrize("label", [3.7, 3.0, True, np.float32(2), 2 ** 31, -1, 2 ** 70])
    def test_non_integer_or_out_of_range_label_rejected(self, label):
        buf, buf_rng = ReplayBuffer(PixelBudget(2, 8)), Rng(13)
        with pytest.raises(ValueError, match="label"):
            buf.offer(np.zeros((8, 8, 3), dtype=np.uint8), label, buf_rng)
        with pytest.raises(ValueError, match="label"):
            buf.offer(np.zeros((3, 8, 8, 3), dtype=np.uint8), np.array([label] * 3), buf_rng)
        with pytest.raises(ValueError, match="label"):  # np.asarray would promote True to 1
            buf.offer(np.zeros((3, 8, 8, 3), dtype=np.uint8), [0, label, 1], buf_rng)
        assert buf.seen_count == 0

    def test_largest_int32_label_accepted(self):
        buf = ReplayBuffer(PixelBudget(2, 8))
        buf.offer(np.zeros((2, 8, 8, 3), dtype=np.uint8),
                  np.array([2 ** 31 - 1, 0], dtype=np.uint64), Rng(14))
        assert buf.labels.tolist() == [2 ** 31 - 1, 0]

    @pytest.mark.parametrize("pixels, labels", [
        (np.zeros((3, 8, 8, 3), dtype=np.uint8), np.array([0, 1, 2 ** 31])),  # would wrap in int32
        (np.zeros((3, 8, 8, 3), dtype=np.uint8), np.array([0.0, 1.0, 2.0])),
        (np.zeros((3, 8, 8, 3), dtype=np.uint8), np.array([0, 1])),
        (np.zeros((3, 8, 8, 3), dtype=np.uint8), 0),
        (np.zeros((3, 8, 8, 3), dtype=np.float32), np.array([0, 1, 2])),
        (np.zeros((3, 8, 8, 1), dtype=np.uint8), np.array([0, 1, 2])),
    ])
    def test_rejected_batch_changes_nothing(self, pixels, labels):
        # buffer both in its fill phase and past it, where offers draw
        for filled in (1, 5):
            buf, buf_rng = ReplayBuffer(PixelBudget(2, 8)), Rng(15)
            buf.offer(np.ones((filled, 8, 8, 3), dtype=np.uint8), np.arange(filled), buf_rng)
            before = buf.snapshot(), rng_state(buf_rng)
            with pytest.raises(ValueError):
                buf.offer(pixels, labels, buf_rng)
            # slab, labels, seen count and generator state
            assert (buf.snapshot(), rng_state(buf_rng)) == before


class TestBatchOffer:
    def buffers(self, seed, factor, seen=0, count=2):
        """Identical (buffer, generator) pairs whose buffers have seen `seen`
        items, every slot occupied when `seen` exceeds the slot count (only
        the count matters then)."""
        pairs = [(ReplayBuffer(PixelBudget(3, 8), factor=factor), Rng(seed))
                 for _ in range(count)]
        for buf, _ in pairs:
            buf.seen_count = seen
            buf.labels[:seen] = 0
        return pairs

    def assert_same(self, a, b):
        (buf_a, rng_a), (buf_b, rng_b) = a, b
        np.testing.assert_array_equal(buf_a.slab, buf_b.slab)
        assert buf_a.labels.tolist() == buf_b.labels.tolist()
        assert buf_a.seen_count == buf_b.seen_count
        assert rng_state(rng_a) == rng_state(rng_b)

    def offer_batch(self, pair, pixels, labels):
        buf, rng = pair
        return buf.offer(pixels, labels, rng)

    def offer_one_by_one(self, pair, pixels, labels):
        """One `offer` call per item, each making at most one scalar draw."""
        buf, rng = pair
        accepted, evicted = 0, []
        for item, label in zip(pixels, labels.tolist()):
            n, out = buf.offer(item, label, rng)
            accepted += n
            evicted += out
        return accepted, evicted

    def algorithm_r(self, pair, pixels, labels):
        """Reference: Vitter's Algorithm R, one scalar draw per item."""
        buf, rng = pair
        accepted, evicted = 0, []
        for item, label in zip(pixels, labels.tolist()):
            if buf.seen_count < buf.slot_count:
                slot = buf.seen_count
            else:
                slot = int(rng.integers(0, buf.seen_count + 1))
            buf.seen_count += 1
            if slot < buf.slot_count:
                if buf.labels[slot] >= 0:
                    evicted.append(int(buf.labels[slot]))
                buf.slab[slot], buf.labels[slot] = item, label
                accepted += 1
        return accepted, evicted

    @pytest.mark.parametrize("factor", [1, 2])
    @pytest.mark.parametrize("seen", [0, 2 ** 32 - 20])  # the last crosses the 2^32 bound
    def test_batches_equal_one_by_one_offers(self, factor, seen):
        rng = Rng(20).split(factor)
        side = 8 // factor
        for trial in range(20):
            batched, single, reference = self.buffers(trial, factor, seen, count=3)
            n_items = int(rng.split(trial).integers(0, 60))
            pixels = rng.split(trial, 1).integers(0, 256, (n_items, side, side, 3), dtype=np.uint8)
            labels = rng.split(trial, 2).integers(0, 2 ** 31, n_items)
            # random cut points, empty batches included; the first batches
            # cross the fill boundary at slot_count
            cuts = np.sort(rng.split(trial, 3).integers(0, n_items + 1, 6))
            for lo, hi in zip([0, *cuts], [*cuts, n_items]):
                result = self.offer_batch(batched, pixels[lo:hi], labels[lo:hi])
                assert type(result[0]) is int
                assert result == self.offer_one_by_one(single, pixels[lo:hi], labels[lo:hi])
                assert result == self.algorithm_r(reference, pixels[lo:hi], labels[lo:hi])
                self.assert_same(batched, single)
                self.assert_same(batched, reference)
            assert batched[0].seen_count == seen + n_items

    def test_later_item_wins_a_shared_slot(self):
        # one slot: every item kept after the first evicts the one before it
        for seed in range(100):
            a, b = (ReplayBuffer(PixelBudget(1, 8)) for _ in range(2))
            a_rng, b_rng = Rng(seed), Rng(seed)
            pixels = np.arange(8, dtype=np.uint8)[:, None, None, None] * np.ones(
                (8, 8, 3), dtype=np.uint8)
            labels = np.arange(10, 18)
            accepted, evicted = a.offer(pixels, labels, a_rng)
            kept = [label for item, label in zip(pixels, labels.tolist())
                    if b.offer(item, label, b_rng)[0]]
            assert accepted == len(kept) and evicted == kept[:-1]
            assert a.labels.tolist() == [kept[-1]]
            assert (a.slab == kept[-1] - 10).all()
            if accepted >= 3:  # the first item fills; two later ones share its slot
                return
        pytest.fail("no seed kept three items of the batch")

    def test_empty_batch_changes_nothing(self):
        for seen in (0, 10):
            (a, a_rng), = self.buffers(1, 2, seen, count=1)
            before = a.snapshot(), rng_state(a_rng)
            assert a.offer(np.zeros((0, 4, 4, 3), dtype=np.uint8), [], a_rng) == (0, [])
            assert (a.snapshot(), rng_state(a_rng)) == before

    def test_leading_axes_are_stream_order(self):
        a, b = self.buffers(2, 1)
        pixels = Rng(3).integers(0, 256, (2, 5, 8, 8, 3), dtype=np.uint8)
        labels = np.arange(10).reshape(2, 5)
        assert self.offer_batch(a, pixels, labels) == self.offer_one_by_one(
            b, pixels.reshape(10, 8, 8, 3), labels.reshape(10))
        self.assert_same(a, b)


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
            buf, buf_rng = ReplayBuffer(PixelBudget(6, 8), factor=2), rng.split(trial)
            n_offers = int(rng.split(trial, 1).integers(1, 200))
            for k in range(n_offers):
                label = int(rng.split(trial, 2, k).integers(0, 5))
                buf.offer(surrogate(rng.split(trial, 3, k)), label, buf_rng)
                # the occupied slots are a prefix, which class_slots relies on
                occupied = buf.occupied_count
                assert (buf.labels[:occupied] >= 0).all() and (buf.labels[occupied:] == -1).all()
                slots = {c: s.tolist() for c, s in buf.class_slots().items()}
                assert slots == self.recompute(buf)

    def test_class_counts(self):
        rng = Rng(11)
        buf, buf_rng = ReplayBuffer(PixelBudget(4, 8)), rng.split(0)
        for label in (2, 2, 5, 7):
            buf.offer(full_image(rng.split(label, buf.seen_count)), label, buf_rng)
        assert buf.class_counts() == {2: 2, 5: 1, 7: 1}
        assert list(buf.class_counts()) == [2, 5, 7]

    def test_missing_class_returns_empty(self):
        # -1 marks the empty slot, so it must not be listed as a class
        buf = ReplayBuffer(PixelBudget(2, 8))
        assert buf.class_slots() == {}
        buf.offer(full_image(Rng(1)), 5, Rng(0))
        assert {c: s.tolist() for c, s in buf.class_slots().items()} == {5: [0]}


class TestSnapshot:
    def fill(self, seed, n_offers=120):
        """A factor-2 buffer after `n_offers` offers, and the generator they drew from."""
        rng = Rng(seed)
        buf, buf_rng = ReplayBuffer(PixelBudget(5, 8), factor=2), rng.split(0)
        for k in range(n_offers):
            buf.offer(surrogate(rng.split(1, k)), k % 4, buf_rng)
        return buf, buf_rng

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
        # given generators in equal states, the restored buffer must
        # accept and evict identically forever after
        buf, buf_rng = self.fill(1)
        restored = ReplayBuffer.restore(buf.snapshot())
        twin_rng = Rng(1)
        twin_rng.bit_generator.state = buf_rng.bit_generator.state
        for k in range(200):
            item = surrogate(Rng(1).split(2, k))
            assert buf.offer(item, k % 4, buf_rng) == restored.offer(item, k % 4, twin_rng)
        assert buf.labels.tolist() == restored.labels.tolist()
        np.testing.assert_array_equal(buf.slab, restored.slab)

    def test_snapshot_of_restore_is_identical_bytes(self):
        buf, _ = self.fill(2)
        blob = buf.snapshot()
        assert ReplayBuffer.restore(blob).snapshot() == blob

    def test_partial_buffer_round_trip(self):
        rng = Rng(3)
        buf = ReplayBuffer(PixelBudget(5, 8))
        buf.offer(full_image(rng.split(1)), 2, rng.split(0))
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

    def test_layout_is_header_labels_slab(self):
        buf, _ = self.fill(8, n_offers=7)
        header = struct.pack("<4sHHIIBQ", b"GPSB", 4, 2, 5, 8, 3, 7)
        assert buf.snapshot() == (header + buf.labels.astype("<i4").tobytes()
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

    def test_version_3_blob_rejected_by_name(self):
        # version 3 stored the buffer's rng after the header: a seed, a
        # one-element key path and the Philox words, 112 bytes in all
        blob = self.patched(4, "<H", 3)
        with pytest.raises(FormatError, match="version 3"):
            ReplayBuffer.restore(blob[:25] + bytes(112) + blob[25:])

    def test_labels_must_match_seen_count(self):
        # only 3 offers: slots 3.. must be empty (-1)
        buf, _ = self.fill(10, n_offers=3)
        blob = bytearray(buf.snapshot())
        struct.pack_into("<i", blob, 25 + 4 * 5, 1)  # the labels follow the header
        with pytest.raises(FormatError, match="seen count"):
            ReplayBuffer.restore(bytes(blob))


def filled_gps_buffer(seed, budget_images=5, r=8, f=2, labels=(0, 1, 2),
                      offers=200):
    rng = Rng(seed)
    buf, buf_rng = ReplayBuffer(PixelBudget(budget_images, r), factor=f), rng.split(0)
    for k in range(offers):
        img = rng.split(1, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
        buf.offer(gps_sample(img, f, rng.split(2, k)), labels[k % len(labels)], buf_rng)
    return buf, rng


class TestDrawReplayBatch:
    def test_draws_distinct_occupied_slots(self):
        buf, rng = filled_gps_buffer(1)
        occupied = set(np.flatnonzero(buf.labels >= 0).tolist())
        for trial in range(20):
            slots = draw_replay_batch(buf, 3, rng.split(4, trial))
            assert slots.shape == (3,)
            assert len(set(slots.tolist())) == 3
            assert set(slots.tolist()) <= occupied

    @pytest.mark.parametrize("factor", [1, 2])
    def test_count_is_capped_by_full_images(self, factor):
        # occupied // f^2 is the number of full images the stored pixels make up
        rng, side = Rng(0), 8 // factor
        for occupied in range(4 * factor ** 2 + 1):
            buf = ReplayBuffer(PixelBudget(4, 8), factor=factor)
            buf.offer(np.zeros((occupied, side, side, 3), dtype=np.uint8), [0] * occupied,
                      rng.split(0, occupied))
            assert buf.occupied_count == occupied
            for n in (0, 1, 2, 5):
                slots = draw_replay_batch(buf, n, rng.split(1, occupied, n))
                assert len(slots) == min(n, occupied // factor ** 2)

    def test_one_class_draw_capped_by_its_full_images(self):
        buf, rng = filled_gps_buffer(3, budget_images=2, labels=(0,), offers=50)
        # 8 slots of one class make up 2 full images -> at most 2 slots
        batch = draw_replay_batch(buf, 10, rng.split(5))
        assert len(batch) <= 2

    def test_redraw_differs(self):
        buf, rng = filled_gps_buffer(4)
        a = draw_replay_batch(buf, 5, rng.split(6, 0))
        b = draw_replay_batch(buf, 5, rng.split(6, 1))
        assert not np.array_equal(a, b)

    def test_deterministic_under_same_rng(self):
        buf, _ = filled_gps_buffer(5)
        a = draw_replay_batch(buf, 5, Rng(99))
        b = draw_replay_batch(buf, 5, Rng(99))
        np.testing.assert_array_equal(a, b)

    def test_factor_one_chooses_among_occupied_slots(self):
        # the draw is one choice over the occupied slots in slot order
        rng = Rng(6)
        buf, buf_rng = ReplayBuffer(PixelBudget(4, 8)), rng.split(0)
        for k in range(3):
            buf.offer(np.full((8, 8, 3), k, dtype=np.uint8), k, buf_rng)
        occupied = np.flatnonzero(buf.labels >= 0)
        slots = draw_replay_batch(buf, 2, rng.split(1))
        np.testing.assert_array_equal(
            slots, occupied[rng.split(1).choice(len(occupied), 2, replace=False)])
        assert sorted(draw_replay_batch(buf, 9, rng.split(2)).tolist()) == [0, 1, 2]

    def test_empty_buffer_returns_empty(self):
        rng = Rng(7)
        for factor in (1, 2):
            buf = ReplayBuffer(PixelBudget(2, 8), factor=factor)
            draw_rng = rng.split(1, factor)
            state = rng_state(draw_rng)
            assert draw_replay_batch(buf, 5, draw_rng).shape == (0,)
            assert rng_state(draw_rng) == state
