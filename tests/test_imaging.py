import numpy as np
import pytest

from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import Rng, load_ppm, require_square, save_ppm


class TestImage:
    """Images are (H, W, C) uint8 arrays; `save_ppm` rejects anything else
    before it opens the file."""

    @staticmethod
    def rejected(tmp_path, data, match=None):
        path = tmp_path / "out.ppm"
        with pytest.raises(ValueError, match=match):
            save_ppm(path, data)
        assert not path.exists()

    def test_rejects_out_of_range_values(self, tmp_path):
        self.rejected(tmp_path, np.array([[[300, 0, 0]]], dtype=np.int64))
        self.rejected(tmp_path, np.array([[[-1.0, 0.0, 0.0]]]))

    def test_rejects_float_and_nan_instead_of_truncating(self, tmp_path):
        for bad in ([[[1.7, 0.0, 0.0]]], [[[np.nan, 0.0, 0.0]]]):
            self.rejected(tmp_path, np.array(bad), match="uint8")

    def test_rejects_bad_channel_count(self, tmp_path):
        self.rejected(tmp_path, np.zeros((2, 2, 4), dtype=np.uint8))
        self.rejected(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8))

    def test_rejects_other_dimensions_and_dtypes(self, tmp_path):
        # a 2-D array gains no channel axis and in-range integers are not
        # converted: the caller passes the image it means
        self.rejected(tmp_path, np.zeros((4, 6), dtype=np.uint8), match="uint8")
        self.rejected(tmp_path, np.zeros((1, 4, 6, 3), dtype=np.uint8))
        self.rejected(tmp_path, np.array([[[0, 128, 255]]], dtype=np.int64))
        self.rejected(tmp_path, [[[0, 128, 255]]])

    def test_is_square(self):
        assert require_square(np.zeros((3, 3, 1), dtype=np.uint8)) == 3
        with pytest.raises(ConfigError):
            require_square(np.zeros((3, 4, 1), dtype=np.uint8))

    def test_require_square_raises_config_error(self):
        with pytest.raises(ConfigError):
            require_square(np.zeros((3, 4, 1), dtype=np.uint8))


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
            (b"P6\n1 1\n255#xyz", "whitespace byte after maxval"),
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

