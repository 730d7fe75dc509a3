"""Replay batch assembly: the slot draw `buffer.draw_replay_batch` makes for
each replay batch. The replay rows that `run_online` builds from the drawn
slots are tested in test_bench.py; the `assembly.*` benchmark metrics keep
this name for the same layer."""

import numpy as np
import pytest

from gpsbench.buffer import PixelBudget, ReplayBuffer, draw_replay_batch
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample


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
