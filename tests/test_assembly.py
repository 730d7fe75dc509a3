from collections import Counter

import numpy as np
import pytest

from gpsbench.assembly import draw_replay_batch, grid_concat, upsample
from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample


def constant_sample(value, side=2):
    return np.full((side, side, 3), value, dtype=np.uint8)


def random_sample(rng, side):
    return rng.integers(0, 256, (side, side, 3)).astype(np.uint8)


class TestGridConcat:
    def test_quadrant_placement(self):
        # four constant 2x2 parts -> 4x4 whose quadrants are 10,20,30,40
        # in row-major order
        parts = [constant_sample(v) for v in (10, 20, 30, 40)]
        img = grid_concat(parts, 2)
        assert img.shape == (4, 4, 3)
        assert (img[:2, :2] == 10).all()
        assert (img[:2, 2:] == 20).all()
        assert (img[2:, :2] == 30).all()
        assert (img[2:, 2:] == 40).all()

    def test_pixel_multiset_preserved(self):
        rng = Rng(0)
        parts = [random_sample(rng.split(k), 4) for k in range(9)]
        out = grid_concat(parts, 3)
        source = np.concatenate([p.reshape(-1) for p in parts])
        assert Counter(out.reshape(-1)) == Counter(source)

    def test_batch_axis_tiles_each_group(self):
        rng = Rng(1)
        groups = np.stack([[random_sample(rng.split(g, k), 3) for k in range(4)]
                           for g in range(5)])
        batch = grid_concat(groups, 2)
        assert batch.shape == (5, 6, 6, 3)
        for g in range(5):
            np.testing.assert_array_equal(batch[g], grid_concat(groups[g], 2))

    def test_slot_indices_recorded(self):
        # the slot order given to grid_concat is the block order of the
        # tiling, so a slot group records which slot fills each block
        slab = np.stack([constant_sample(v) for v in range(10)])
        slots = np.array([9, 2, 7, 4])
        img = grid_concat(slab[slots], 2)
        for k, slot in enumerate(slots):
            i, j = divmod(k, 2)
            assert (img[2 * i:2 * i + 2, 2 * j:2 * j + 2] == slot).all()

    def test_wrong_count_rejected(self):
        parts = [constant_sample(5) for _ in range(3)]
        with pytest.raises(ValueError):
            grid_concat(parts, 2)

    def test_mixed_shapes_rejected(self):
        parts = [constant_sample(5, side=2) for _ in range(3)]
        parts.append(constant_sample(5, side=3))
        with pytest.raises(ValueError):
            grid_concat(parts, 2)


class TestUpsample:
    def test_repetition_definition(self):
        # 1x1 sample valued v at f=3 -> 3x3 all v
        out = upsample(constant_sample(77, side=1), 3)
        assert out.shape == (3, 3, 3)
        assert (out == 77).all()

    def test_block_structure(self):
        rng = Rng(1)
        s = random_sample(rng, 4)
        out = upsample(s, 2)
        for i in range(4):
            for j in range(4):
                block = out[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert (block == s[i, j]).all()

    def test_value_multiset_scales_by_factor_squared(self):
        rng = Rng(2)
        s = random_sample(rng, 3)
        out = upsample(s, 3)
        src = Counter(s.reshape(-1))
        up = Counter(out.reshape(-1))
        assert up == {v: 9 * c for v, c in src.items()}

    def test_round_trip_sampling_recovers_surrogate(self):
        # gps_sample(upsample(y)) == y for any offsets, since every pixel of
        # an upsampled patch holds the same value
        root = Rng(3)
        for f in (2, 3, 4):
            for trial in range(100):
                rng = root.split(f, trial)
                side = int(rng.integer(1, 9))
                y = random_sample(rng.split(0), side)
                again = gps_sample(upsample(y, f), f, rng.split(1))
                np.testing.assert_array_equal(again, y)


def filled_gps_buffer(seed, budget_images=5, r=8, f=2, labels=(0, 1, 2),
                      offers=200):
    rng = Rng(seed)
    buf = ReplayBuffer(PixelBudget(budget_images, r), rng.split(0),
                       factor=f)
    for k in range(offers):
        img = rng.split(1, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
        buf.offer(gps_sample(img, f, rng.split(2, k)), labels[k % len(labels)])
    return buf, rng


def tile(buf, groups):
    return grid_concat(buf.slab[groups], buf.factor)


class TestDrawReplayBatch:
    def test_images_are_same_class_tilings(self):
        buf, rng = filled_gps_buffer(0)
        groups = draw_replay_batch(buf, 4, rng.split(3))
        assert groups.shape == (4, 4)
        images = tile(buf, groups)
        assert images.shape == (4, 8, 8, 3)
        for group, image in zip(groups, images):
            assert len(set(buf.labels[group].tolist())) == 1
            # block k of the tiling is slot group[k], verbatim
            for k, slot in enumerate(group):
                i, j = divmod(k, 2)
                np.testing.assert_array_equal(
                    image[4 * i:4 * i + 4, 4 * j:4 * j + 4], buf.slab[slot])

    def test_constituents_use_distinct_slots(self):
        buf, rng = filled_gps_buffer(1)
        for trial in range(20):
            for group in draw_replay_batch(buf, 6, rng.split(4, trial)):
                assert len(set(group.tolist())) == len(group)

    def test_incomplete_groups_are_discarded(self):
        # 3 surrogates of class 9 with f=2: no complete group of 4, so class 9
        # can never appear in a reconstruction
        rng = Rng(2)
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(0), factor=2)
        for k in range(3):
            img = rng.split(1, k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            buf.offer(gps_sample(img, 2, rng.split(2, k)), 9)
        for k in range(12):
            img = rng.split(3, k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            buf.offer(gps_sample(img, 2, rng.split(4, k)), 1)
        # class 9 may have lost slots to eviction; rebuild a buffer where it
        # holds exactly 3 by construction
        buf2 = ReplayBuffer(PixelBudget(4, 8), rng.split(5), factor=2)
        for k in range(3):
            img = rng.split(6, k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            buf2.offer(gps_sample(img, 2, rng.split(7, k)), 9)
        for k in range(13):
            img = rng.split(8, k).integers(0, 256, (8, 8, 3)).astype(np.uint8)
            accepted, _ = buf2.offer(gps_sample(img, 2, rng.split(9, k)), 1)
            if buf2.occupied_count == buf2.slot_count:
                break
        counts = buf2.class_counts()
        if counts.get(9, 0) == 3:
            groups = draw_replay_batch(buf2, 10, rng.split(10))
            assert 9 not in buf2.labels[groups].tolist()

    def test_draw_capped_by_available_groups(self):
        buf, rng = filled_gps_buffer(3, budget_images=2, labels=(0,), offers=50)
        # 8 slots of one class -> at most 2 complete groups
        batch = draw_replay_batch(buf, 10, rng.split(5))
        assert len(batch) <= 2

    def test_redraw_differs(self):
        buf, rng = filled_gps_buffer(4)
        a = tile(buf, draw_replay_batch(buf, 5, rng.split(6, 0)))
        b = tile(buf, draw_replay_batch(buf, 5, rng.split(6, 1)))
        assert not np.array_equal(a, b)

    def test_deterministic_under_same_rng(self):
        buf, _ = filled_gps_buffer(5)
        a = draw_replay_batch(buf, 5, Rng(99))
        b = draw_replay_batch(buf, 5, Rng(99))
        np.testing.assert_array_equal(a, b)

    def test_factor_one_chooses_among_occupied_slots(self):
        # every occupied slot is a group of one; the draw is one choose over
        # the occupied slots in slot order, with no shuffle
        rng = Rng(6)
        buf = ReplayBuffer(PixelBudget(4, 8), rng.split(0))
        for k in range(3):
            buf.offer(np.full((8, 8, 3), k, dtype=np.uint8), k)
        groups = draw_replay_batch(buf, 2, rng.split(1))
        assert groups.tolist() == [[slot] for slot in rng.split(1).choose(3, 2)]
        assert sorted(draw_replay_batch(buf, 9, rng.split(2))[:, 0].tolist()) == [0, 1, 2]
        empty = ReplayBuffer(PixelBudget(4, 8), rng.split(3))
        assert draw_replay_batch(empty, 5, rng.split(4)).shape == (0, 1)

    def test_empty_buffer_returns_empty(self):
        rng = Rng(7)
        buf = ReplayBuffer(PixelBudget(2, 8), rng.split(0), factor=2)
        assert draw_replay_batch(buf, 5, rng.split(1)).shape == (0, 4)
