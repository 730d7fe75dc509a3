from collections import Counter

import numpy as np
import pytest

from gpsbench.errors import ConfigError
from gpsbench.imaging import Rng
from gpsbench.sampler import gps_sample, grid_concat, grid_side, upsample


def random_image(rng, r, channels=3):
    return rng.integers(0, 256, (r, r, channels)).astype(np.uint8)


def constant_sample(value, side=2):
    return np.full((side, side, 3), value, dtype=np.uint8)


def random_batch(rng, n, r):
    return rng.integers(0, 256, (n, r, r, 3)).astype(np.uint8)


def expected_surrogate(pixels, factor):
    """Per-patch mean raster as float64: the expectation of gps_sample."""
    side, f = grid_side(factor, pixels.shape[0]), factor
    covered = pixels[: side * f, : side * f].astype(np.float64)
    return covered.reshape(side, f, side, f, pixels.shape[2]).mean(axis=(1, 3))


class TestGridSide:
    def test_side_is_floor_division(self):
        for f in range(1, 9):
            for r in range(8, 65):
                assert grid_side(f, r) == r // f

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError, match="grid would be empty"):
            grid_side(5, 4)

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigError, match="factor must be >= 1"):
            grid_side(0, 8)
        with pytest.raises(ConfigError, match="factor must be >= 1"):
            grid_side(-2, 8)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ConfigError, match="resolution must be >= 1"):
            grid_side(2, 0)

    def test_patch_bounds_partition_covered_region(self):
        # patch (i, j) spans rows [i*f, (i+1)*f) and columns [j*f, (j+1)*f)
        for f, r, covered in ((3, 10, 9), (2, 4, 4), (2, 83, 82)):
            side = grid_side(f, r)
            seen = np.zeros((r, r), dtype=int)
            for i in range(side):
                for j in range(side):
                    seen[i * f:(i + 1) * f, j * f:(j + 1) * f] += 1
            # every covered pixel exactly once, the dropped margin untouched
            assert side * f == covered
            assert (seen[:covered, :covered] == 1).all()
            assert (seen[covered:, :] == 0).all() and (seen[:, covered:] == 0).all()
            assert (seen == 0).sum() == r * r - covered * covered

    def test_dropped_pixels(self):
        # the margin past side * f rows and columns; 83x83 at f = 2 covers
        # 82x82 and drops 83^2 - 82^2 = 165 pixels
        for f, r, dropped in ((2, 4, 0), (3, 10, 19), (2, 83, 165)):
            assert r * r - (grid_side(f, r) * f) ** 2 == dropped


class TestShapeLaw:
    def test_side_floor_over_factor_grid(self):
        rng = Rng(0)
        for f in range(1, 9):
            for r in range(8, 65, 7):
                img = random_image(rng.split(f, r), r)
                s = gps_sample(img, f, rng.split(f, r, 1))
                assert s.shape == (r // f, r // f, 3)

    def test_pixel_count_shrinks_by_factor_squared(self):
        rng = Rng(1)
        img = random_image(rng, 32)
        s = gps_sample(img, 4, rng.split(1))
        assert s.shape[0] * s.shape[1] == 8 * 8
        assert img.shape[0] * img.shape[1] == 8 * 8 * 16


class TestMembership:
    def test_every_output_pixel_comes_from_its_patch(self):
        rng = Rng(2)
        for trial in range(30):
            f = int(rng.split(trial).integers(2, 6))
            r = f * int(rng.split(trial, 1).integers(2, 9))
            img = random_image(rng.split(trial, 2), r)
            s = gps_sample(img, f, rng.split(trial, 3))
            side = grid_side(f, r)
            for i in range(side):
                for j in range(side):
                    patch = img[i * f:(i + 1) * f, j * f:(j + 1) * f].reshape(-1, 3)
                    assert any(
                        np.array_equal(s[i, j], px) for px in patch
                    ), f"pixel ({i},{j}) not from patch"

    def test_channels_sampled_jointly(self):
        # mark each pixel's position in every channel; one draw must pick the
        # same position for all channels
        rng = Rng(3)
        r, f = 8, 2
        pos = np.arange(r * r, dtype=np.uint8).reshape(r, r)
        data = np.stack([pos, pos, pos], axis=-1)
        s = gps_sample(data, f, rng)
        np.testing.assert_array_equal(s[..., 0], s[..., 1])
        np.testing.assert_array_equal(s[..., 0], s[..., 2])


class TestIdentityAndEdges:
    def test_factor_one_is_identity(self):
        rng = Rng(4)
        for trial in range(20):
            img = random_image(rng.split(trial), 16)
            s = gps_sample(img, 1, rng.split(trial, 1))
            np.testing.assert_array_equal(s, img)

    def test_factor_equal_resolution_gives_one_pixel(self):
        rng = Rng(5)
        img = random_image(rng, 6)
        s = gps_sample(img, 6, rng.split(1))
        assert s.shape == (1, 1, 3)

    def test_non_square_rejected(self):
        data = np.zeros((4, 6, 3), dtype=np.uint8)
        with pytest.raises(ConfigError):
            gps_sample(data, 2, Rng(0))

    def test_floor_semantics_drop_margin(self):
        # 83x83 at f=2 -> 41x41 surrogate from the 82x82 covered region
        rng = Rng(7)
        img = random_image(rng, 83)
        s = gps_sample(img, 2, rng.split(1))
        assert s.shape[:2] == (41, 41)


class TestDistribution:
    def test_uniform_over_patch_positions(self):
        # one 2x2 patch, value = position id; each position ~ 1/4
        counts = np.zeros(4)
        ids = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        img = np.stack([ids] * 3, axis=-1)
        n = 4000
        root = Rng(8)
        for k in range(n):
            s = gps_sample(img, 2, root.split(k))
            counts[s[0, 0, 0]] += 1
        freq = counts / n
        se = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) < 4 * se)

    def test_patches_draw_independently(self):
        # two patches; joint frequency of (position a, position b) factorizes
        ids = np.array([[0, 1, 0, 1], [2, 3, 2, 3]], dtype=np.uint8)
        ids = np.vstack([ids, ids + 0])  # 4x4, two patch rows alike
        img = np.stack([ids] * 3, axis=-1)
        root = Rng(9)
        n = 3000
        joint = np.zeros((4, 4))
        for k in range(n):
            s = gps_sample(img, 2, root.split(k))
            joint[s[0, 0, 0], s[0, 1, 0]] += 1
        joint /= n
        marg_a = joint.sum(axis=1)
        marg_b = joint.sum(axis=0)
        np.testing.assert_allclose(joint, np.outer(marg_a, marg_b), atol=0.05)

    def test_sample_mean_approaches_patch_mean(self):
        rng = Rng(10)
        img = random_image(rng, 8)
        target = expected_surrogate(img, 2)
        total = np.zeros_like(target)
        n = 2000
        for k in range(n):
            total += gps_sample(img, 2, rng.split(1, k))
        np.testing.assert_allclose(total / n, target, atol=4.0)


class TestBatch:
    def test_each_item_samples_its_own_patches(self):
        rng = Rng(13)
        for trial in range(10):
            f = int(rng.split(trial).integers(2, 5))
            r = f * int(rng.split(trial, 1).integers(2, 6)) + trial % 2
            batch = random_batch(rng.split(trial, 2), 5, r)
            before = batch.copy()
            s = gps_sample(batch, f, rng.split(trial, 3))
            np.testing.assert_array_equal(batch, before)
            side = grid_side(f, r)
            assert s.shape == (5, side, side, 3)
            for n in range(5):
                for i in range(side):
                    for j in range(side):
                        patch = batch[n, i * f:(i + 1) * f, j * f:(j + 1) * f].reshape(-1, 3)
                        assert (patch == s[n, i, j]).all(axis=1).any(), (n, i, j)

    def test_channels_sampled_jointly_per_item(self):
        # every pixel of the batch holds its own position id in every channel
        pos = np.arange(4 * 8 * 8, dtype=np.uint8).reshape(4, 8, 8)
        data = np.stack([pos, pos, pos], axis=-1)
        s = gps_sample(data, 2, Rng(14))
        np.testing.assert_array_equal(s[..., 0], s[..., 1])
        np.testing.assert_array_equal(s[..., 0], s[..., 2])

    def test_factor_one_is_identity_on_a_batch(self):
        batch = random_batch(Rng(15), 4, 6)
        s = gps_sample(batch, 1, Rng(16))
        np.testing.assert_array_equal(s, batch)
        assert s is not batch

    def test_items_of_one_batch_draw_independently(self):
        # two items of one batch; joint frequency of their positions factorizes
        ids = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        batch = np.stack([np.stack([ids] * 3, axis=-1)] * 2)
        root = Rng(17)
        n = 3000
        joint = np.zeros((4, 4))
        for k in range(n):
            s = gps_sample(batch, 2, root.split(k))
            joint[s[0, 0, 0, 0], s[1, 0, 0, 0]] += 1
        joint /= n
        marg_a = joint.sum(axis=1)
        marg_b = joint.sum(axis=0)
        np.testing.assert_allclose(joint, np.outer(marg_a, marg_b), atol=0.05)
        np.testing.assert_allclose(marg_a, 0.25, atol=0.05)


class TestDeterminism:
    def test_single_image_draw_is_pinned(self):
        # the surrogate of `gps compress` and of every single-image caller
        img = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
        s = gps_sample(img, 2, Rng(42).split(5))
        picked = np.array([[3, 6, 15, 42], [51, 57, 60, 90],
                           [96, 105, 135, 117], [147, 174, 180, 165]], dtype=np.uint8)
        np.testing.assert_array_equal(s, picked[..., None] + np.arange(3, dtype=np.uint8))

    def test_strided_batch_draw_is_pinned(self):
        # every pixel is distinct, so swapped row and column offsets or a
        # gather over the covered side instead of the full side would show
        base = np.zeros((6, 9, 9, 2), dtype=np.uint8)
        base[::2, :, :, 1] = np.arange(3 * 9 * 9).reshape(3, 9, 9)
        batch = base[::2, :, :, 1:]  # (3, 9, 9, 1), not contiguous; 9 % 2 != 0
        s = gps_sample(batch, 2, Rng(7).split(3))
        picked = [[[0, 2, 14, 7], [28, 29, 31, 24], [36, 39, 50, 43], [64, 65, 59, 69]],
                  [[82, 93, 95, 96], [99, 102, 103, 105], [118, 128, 122, 123],
                   [136, 137, 148, 150]],
                  [[171, 165, 166, 169], [180, 192, 193, 187], [207, 200, 203, 205],
                   [216, 227, 229, 232]]]
        np.testing.assert_array_equal(s, np.array(picked, dtype=np.uint8)[..., None])

    def test_same_rng_same_surrogate(self):
        img = random_image(Rng(11), 32)
        a = gps_sample(img, 2, Rng(42).split(5))
        b = gps_sample(img, 2, Rng(42).split(5))
        np.testing.assert_array_equal(a, b)

    def test_different_rng_usually_differs(self):
        img = random_image(Rng(12), 32)
        a = gps_sample(img, 2, Rng(1))
        b = gps_sample(img, 2, Rng(2))
        assert not np.array_equal(a, b)


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
        parts = [random_image(rng.split(k), 4) for k in range(9)]
        out = grid_concat(parts, 3)
        source = np.concatenate([p.reshape(-1) for p in parts])
        assert Counter(out.reshape(-1)) == Counter(source)

    def test_batch_axis_tiles_each_group(self):
        rng = Rng(1)
        groups = np.stack([[random_image(rng.split(g, k), 3) for k in range(4)]
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

    def test_factor_below_one_rejected(self):
        for factor in (0, -1):
            with pytest.raises(ValueError, match="^factor must be >= 1"):
                grid_concat([constant_sample(5)], factor)

    def test_mixed_shapes_rejected(self):
        parts = [constant_sample(5, side=2) for _ in range(3)]
        parts.append(constant_sample(5, side=3))
        with pytest.raises(ValueError):
            grid_concat(parts, 2)


class TestUpsample:
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_each_block_repeats_its_source_pixel(self, factor, channels, lead):
        # out[..., i*f + a, j*f + b, :] == pixels[..., i, j, :] for a, b < f
        for h, w in ((3, 4), (4, 4), (1, 1)):
            pixels = Rng(factor).split(h).integers(0, 256, (*lead, h, w, channels)).astype(np.uint8)
            out = upsample(pixels, factor)
            assert out.shape == (*lead, h * factor, w * factor, channels)
            assert not np.shares_memory(out, pixels)
            blocks = out.reshape(*lead, h, factor, w, factor, channels)
            assert (blocks == pixels[..., :, None, :, None, :]).all()

    def test_value_multiset_scales_by_factor_squared(self):
        rng = Rng(2)
        s = random_image(rng, 3)
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
                y = random_image(rng.split(0), side)
                again = gps_sample(upsample(y, f), f, rng.split(1))
                np.testing.assert_array_equal(again, y)
