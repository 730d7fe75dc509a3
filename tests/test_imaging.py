import numpy as np
import pytest

from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import (
    GridSpec,
    Rng,
    as_pixels,
    load_ppm,
    require_square,
    save_ppm,
)


class TestImage:
    """Images are (H, W, C) uint8 arrays; `as_pixels` checks them at the edges."""

    def test_promotes_2d_to_single_channel(self):
        assert as_pixels(np.zeros((4, 6), dtype=np.uint8)).shape == (4, 6, 1)

    def test_accepts_int_array_in_range(self):
        arr = as_pixels(np.array([[[0, 128, 255]]], dtype=np.int64))
        assert arr.dtype == np.uint8
        assert arr.tolist() == [[[0, 128, 255]]]

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            as_pixels(np.array([[[300, 0, 0]]], dtype=np.int64))
        with pytest.raises(ValueError):
            as_pixels(np.array([[[-1.0, 0.0, 0.0]]]))

    def test_rejects_float_and_nan_instead_of_truncating(self):
        for bad in ([[[1.7, 0.0, 0.0]]], [[[np.nan, 0.0, 0.0]]]):
            with pytest.raises(ValueError, match="integers"):
                as_pixels(np.array(bad))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            as_pixels(np.zeros((2, 2, 4), dtype=np.uint8))

    def test_is_square(self):
        assert require_square(np.zeros((3, 3, 1), dtype=np.uint8)) == 3
        with pytest.raises(ConfigError):
            require_square(np.zeros((3, 4, 1), dtype=np.uint8))

    def test_require_square_raises_config_error(self):
        with pytest.raises(ConfigError):
            require_square(np.zeros((3, 4, 1), dtype=np.uint8))


class TestGridSpec:
    def test_side_is_floor_division(self):
        for f in range(1, 9):
            for r in range(8, 65):
                assert GridSpec(f, r).side == r // f

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            GridSpec(5, 4)

    def test_rejects_bad_factor(self):
        with pytest.raises(ConfigError):
            GridSpec(0, 8)
        with pytest.raises(ConfigError):
            GridSpec(-2, 8)

    def test_patch_bounds_partition_covered_region(self):
        # patch (i, j) spans rows [i*f, (i+1)*f) and columns [j*f, (j+1)*f)
        g = GridSpec(3, 10)
        f, c = g.factor, g.covered
        seen = np.zeros((10, 10), dtype=int)
        for i in range(g.side):
            for j in range(g.side):
                seen[i * f:(i + 1) * f, j * f:(j + 1) * f] += 1
        # every covered pixel exactly once, dropped margin untouched
        assert c == 9
        assert (seen[:c, :c] == 1).all()
        assert (seen[c:, :] == 0).all() and (seen[:, c:] == 0).all()
        assert (seen == 0).sum() == g.dropped_pixels

    def test_dropped_pixels(self):
        assert GridSpec(2, 4).dropped_pixels == 0
        # 83x83 with f=2 covers 82x82
        assert GridSpec(2, 83).dropped_pixels == 83 * 83 - 82 * 82


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(12)
        b = Rng(12)
        assert [a.integers(0, 100) for _ in range(20)] == [
            b.integers(0, 100) for _ in range(20)
        ]

    def test_split_is_order_independent(self):
        r1 = Rng(5)
        r2 = Rng(5)
        # drawing from the parent must not disturb children
        r1.integers(0, 10)
        x = r1.split(3, 7).integers(0, 1000)
        y = r2.split(3, 7).integers(0, 1000)
        assert x == y

    def test_distinct_paths_decorrelate(self):
        root = Rng(0)
        a = root.split(1).integers(0, 1000, (50,))
        b = root.split(2).integers(0, 1000, (50,))
        assert not np.array_equal(a, b)

    def test_state_round_trip_continues_stream(self):
        rng = Rng(21).split(4)
        rng.integers(0, 100, (13,))  # advance into the buffered block
        blob = rng.state_bytes()
        restored, used = Rng.from_state_bytes(blob)
        assert used == len(blob)
        assert [rng.integers(0, 10**6) for _ in range(10)] == [
            restored.integers(0, 10**6) for _ in range(10)
        ]

    def test_state_round_trip_at_offset(self):
        rng = Rng(8)
        blob = b"xyz" + rng.state_bytes() + b"tail"
        restored, used = Rng.from_state_bytes(blob, offset=3)
        assert used == len(blob) - 7
        assert restored.integers(0, 10**6) == Rng(8).integers(0, 10**6)

    def test_state_layout_is_pinned(self):
        rng = Rng(21).split(4)
        rng.integers(0, 100, (13,))
        assert rng.state_bytes() == bytes.fromhex(
            # seed, key path length, key path
            "1500000000000000" "01000000" "04000000"
            # Philox counter, key and buffer words
            "0200000000000000" "0000000000000000" "0000000000000000" "0000000000000000"
            "8d52fcba78db558d" "e7604d23af2af1bc"
            "901dee65ab0a8945" "2ac3b2c6c5a16467" "9f09e5ee2758f894" "2a37f28ffd1e836c"
            # buffer_pos, has_uint32, cached uint32
            "03000000" "01000000" "2758f89400000000")

    def test_truncated_state_raises(self):
        blob = Rng(0).state_bytes()
        with pytest.raises(FormatError):
            Rng.from_state_bytes(blob[:10])


class TestPpm:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(10):
            arr = rng.integers(0, 256, (5 + k, 7, 3), dtype=np.uint8)
            path = tmp_path / f"img_{k}.ppm"
            save_ppm(path, arr)
            back = load_ppm(path)
            np.testing.assert_array_equal(back, arr)

    def test_canonical_header_bytes(self, tmp_path):
        arr = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        path = tmp_path / "img.ppm"
        save_ppm(path, arr)
        raw = path.read_bytes()
        assert raw == b"P6\n2 2\n255\n" + arr.tobytes()

    def test_single_channel_saved_as_gray_rgb(self, tmp_path):
        arr = np.array([[[7]], [[9]]], dtype=np.uint8)
        path = tmp_path / "gray.ppm"
        save_ppm(path, arr)
        back = load_ppm(path)
        assert back.shape[2] == 3
        np.testing.assert_array_equal(back[..., 0], back[..., 1])
        np.testing.assert_array_equal(back[..., 0], arr[..., 0])

    def test_load_skips_comments_and_whitespace(self, tmp_path):
        payload = bytes(range(12))
        raw = b"P6 # comment\n# another\n 2\t2 # size\n255\n" + payload
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        img = load_ppm(path)
        assert img.shape[:2] == (2, 2)
        assert img.tobytes() == payload

    def test_declared_2x2_needs_12_payload_bytes(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        assert load_ppm(path).shape == (2, 2, 3)

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            (b"P5\n2 2\n255\n" + bytes(4), "magic"),
            (b"P6\n2 2\n65535\n" + bytes(24), "maxval"),
            (b"P6\n0 2\n255\n", "dimensions"),
            (b"P6\n2 2\n255\n" + bytes(5), "truncated"),
            (b"P6\n2 2\n", "header"),
        ],
    )
    def test_malformed_files_name_the_field(self, tmp_path, raw, fragment):
        path = tmp_path / "bad.ppm"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=fragment):
            load_ppm(path)

    @pytest.mark.parametrize(
        "header",
        [b"+1 1 255", b"0_1 1 255", b"1 1 2_55", b"1 -0 255", b"1 1 +255",
         "\u0661 1 255".encode(), "1 \uff11 255".encode(),
         pytest.param(b"1 1 " + b"0" * 5000 + b"255", id="5003-digit maxval")],
    )
    def test_header_numbers_are_ascii_decimal_digits(self, tmp_path, header):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n" + header + b"\n" + bytes(3))
        with pytest.raises(FormatError, match="decimal integer"):
            load_ppm(path)

