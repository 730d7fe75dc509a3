"""Replay assembly: the replay slot draw (`buffer.draw_replay_batch`) and the
inverses of sampling (`sampler.upsample` and `sampler.grid_concat`). The
replay rows that `run_online` builds from them are tested in test_bench.py.
The `assembly.*` benchmark metrics keep this name for the same layer."""

from collections import Counter

import numpy as np
import pytest

from gpsbench.buffer import PixelBudget, ReplayBuffer, draw_replay_batch
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample, grid_concat, upsample


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


def repeat_upsample(pixels, factor):
    """The definition of pixel repetition: repeat rows, then columns."""
    return np.repeat(np.repeat(pixels, factor, axis=-3), factor, axis=-2)


class TestUpsample:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_equals_repeat_definition(self, factor, channels, lead):
        pixels = Rng(factor).integers(0, 256, (*lead, 3, 4, channels)).astype(np.uint8)
        np.testing.assert_array_equal(upsample(pixels, factor),
                                      repeat_upsample(pixels, factor))

    def test_factor_one_returns_its_input(self):
        pixels = random_sample(Rng(0), 4)
        assert upsample(pixels, 1) is pixels

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
                side = int(rng.integers(1, 9))
                y = random_sample(rng.split(0), side)
                again = gps_sample(upsample(y, f), f, rng.split(1))
                np.testing.assert_array_equal(again, y)


def filled_gps_buffer(seed, budget_images=5, r=8, f=2, labels=(0, 1, 2),
                      offers=200):
    rng = Rng(seed)
    buf, buf_rng = ReplayBuffer(PixelBudget(budget_images, r), factor=f), rng.split(0)
    for k in range(offers):
        img = rng.split(1, k).integers(0, 256, (r, r, 3)).astype(np.uint8)
        buf.offer(gps_sample(img, f, rng.split(2, k)), labels[k % len(labels)], buf_rng)
    return buf, rng


def occupied_slots(buf):
    return np.flatnonzero(buf.labels >= 0)


class TestDrawReplayBatch:
    def test_draws_distinct_occupied_slots(self):
        buf, rng = filled_gps_buffer(1)
        occupied = set(occupied_slots(buf).tolist())
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

    def test_draw_capped_by_available_groups(self):
        buf, rng = filled_gps_buffer(3, budget_images=2, labels=(0,), offers=50)
        # 8 slots of one class -> at most 2 complete groups
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
        occupied = occupied_slots(buf)
        slots = draw_replay_batch(buf, 2, rng.split(1))
        np.testing.assert_array_equal(
            slots, occupied[rng.split(1).choice(len(occupied), 2, replace=False)])
        assert sorted(draw_replay_batch(buf, 9, rng.split(2)).tolist()) == [0, 1, 2]

    def test_empty_buffer_returns_empty(self):
        rng = Rng(7)
        for factor in (1, 2):
            buf = ReplayBuffer(PixelBudget(2, 8), factor=factor)
            draw_rng = rng.split(1, factor)
            # the state holds numpy arrays, whose repr is exact at this size
            state = repr(draw_rng.bit_generator.state)
            assert draw_replay_batch(buf, 5, draw_rng).shape == (0,)
            assert repr(draw_rng.bit_generator.state) == state
