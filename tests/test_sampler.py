import numpy as np
import pytest

from gpsbench.errors import ConfigError
from gpsbench.imaging import GridSpec, Rng
from gpsbench.sampler import gps_sample


def random_image(rng, r, channels=3):
    return rng.integers(0, 256, (r, r, channels)).astype(np.uint8)


def random_batch(rng, n, r):
    return rng.integers(0, 256, (n, r, r, 3)).astype(np.uint8)


def expected_surrogate(pixels, factor):
    """Per-patch mean raster as float64: the expectation of gps_sample."""
    grid = GridSpec(factor, pixels.shape[0])
    side, f = grid.side, grid.factor
    covered = pixels[: side * f, : side * f].astype(np.float64)
    return covered.reshape(side, f, side, f, pixels.shape[2]).mean(axis=(1, 3))


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
            g = GridSpec(f, r)
            for i in range(g.side):
                for j in range(g.side):
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
            g = GridSpec(f, r)
            assert s.shape == (5, g.side, g.side, 3)
            for n in range(5):
                for i in range(g.side):
                    for j in range(g.side):
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

