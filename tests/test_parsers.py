"""Property tests: every external input parses or fails with its documented error.

Hostile inputs are derived from valid files by overwriting, cutting,
inserting and deleting bytes (lines, for config text). Binary formats must
raise FormatError (exit 3) and config text ConfigError (exit 2); no raw
numpy or struct exception may escape. Hypothesis runs derandomized with a
bounded example count, so the suite stays deterministic and fast.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpsbench.buffer import PixelBudget, ReplayBuffer
from gpsbench.config import ExperimentConfig, parse_config
from gpsbench.errors import ConfigError, FormatError
from gpsbench.imaging import Rng, load_ppm, save_ppm

BOUNDED = settings(derandomize=True, database=None, max_examples=200, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


# Edge values written into header fields (reduced modulo the field width).
EDGE_VALUES = [0, 1, 2, 3, 7, 255, 2 ** 15, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]


@st.composite
def mutated(draw, valid_blobs, fields=()):
    """A valid blob with one kind of damage: header fields set to edge values,
    a few bytes overwritten, or a cut, insertion or deletion.

    `fields` lists the (offset, width) of little-endian header integers.
    Byte positions favour bytes 4 to 63, where the headers are.
    """
    blob = bytearray(draw(st.sampled_from(valid_blobs)))
    position = st.one_of(st.integers(4, 63), st.integers(0, len(blob) - 1))
    at = min(draw(position), len(blob))
    kinds = (["field"] if fields else []) + ["bytes", "cut", "insert", "delete"]
    edit = draw(st.sampled_from(kinds))
    if edit == "field":
        for offset, width in draw(st.lists(st.sampled_from(fields), min_size=1, max_size=2)):
            value = draw(st.sampled_from(EDGE_VALUES)) % 2 ** (8 * width)
            blob[offset : offset + width] = value.to_bytes(width, "little")
    elif edit == "bytes":
        for _ in range(draw(st.integers(1, 3))):
            blob[min(draw(position), len(blob) - 1)] = draw(st.integers(0, 255))
    elif edit == "cut":
        del blob[at:]
    elif edit == "insert":
        blob[at:at] = draw(st.binary(min_size=1, max_size=8))
    elif edit == "delete":
        del blob[at : at + draw(st.integers(1, 8))]
    return bytes(blob)


def _snapshots():
    """A full factor-2 buffer and a partly filled factor-1 one."""
    rng = Rng(0)
    out = []
    for factor, offers in ((2, 40), (1, 1)):
        buf, buf_rng = ReplayBuffer(PixelBudget(2, 4), factor=factor), rng.split(len(out))
        side = buf.exemplar_side
        for k in range(offers):
            pixels = rng.split(9, len(out), k).integers(0, 256, (side, side, 3))
            buf.offer(pixels.astype(np.uint8), k % 3, buf_rng)
        out.append(buf.snapshot())
    return out


SNAPSHOTS = _snapshots()


# version, factor, image count, resolution, channels, seen count; then the
# first slot label
SNAPSHOT_FIELDS = [(4, 2), (6, 2), (8, 4), (12, 4), (16, 1), (17, 8), (25, 4)]


def with_edge_values(valid, fields):
    """Every copy of `valid` that has one field set to one edge value."""
    for offset, width in fields:
        for value in EDGE_VALUES:
            blob = bytearray(valid)
            blob[offset : offset + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
            yield bytes(blob)


def check_snapshot(blob):
    try:
        buf = ReplayBuffer.restore(blob)
    except FormatError:
        return
    assert buf.snapshot() == blob


def test_snapshot_header_edge_values():
    for valid in SNAPSHOTS:
        for blob in with_edge_values(valid, SNAPSHOT_FIELDS):
            check_snapshot(blob)


@BOUNDED
@given(mutated(SNAPSHOTS, SNAPSHOT_FIELDS))
def test_snapshot_restores_exactly_or_is_format_error(blob):
    check_snapshot(blob)


PPM = (b"P6\n# a comment\n3 2\n255\n"
       + np.arange(18, dtype=np.uint8).tobytes())


@BOUNDED
@given(mutated([PPM, b"P6 1 1 255 " + bytes(3)]))
def test_ppm_loads_or_is_format_error(tmp_path, blob):
    path = tmp_path / "image.ppm"
    path.write_bytes(blob)
    try:
        pixels = load_ppm(path)
    except FormatError:
        return
    assert pixels.dtype == np.uint8 and pixels.ndim == 3 and pixels.shape[2] == 3
    save_ppm(path, pixels)
    np.testing.assert_array_equal(load_ppm(path), pixels)


def header_token(raw):
    """`raw` without the bytes that end a PPM header token: bytes.isspace() and '#'."""
    return bytes(c for c in raw if c not in b" \t\n\v\f\r#")


DIGITS = st.text("0123456789", max_size=3).map(str.encode)
JUNK = st.one_of(st.binary(min_size=1, max_size=4), st.text(min_size=1, max_size=2).map(str.encode))
NON_DIGIT_TOKENS = st.builds(lambda a, b, c: header_token(a + b + c), DIGITS, JUNK, DIGITS).filter(
    lambda token: token and not token.isdigit())


@BOUNDED
@given(st.integers(0, 2), NON_DIGIT_TOKENS)
def test_ppm_non_digit_header_token_is_format_error(tmp_path, field, token):
    tokens = [b"1", b"1", b"255"]
    tokens[field] = token
    path = tmp_path / "image.ppm"
    path.write_bytes(b"P6\n" + b" ".join(tokens) + b"\n" + bytes(3))
    with pytest.raises(FormatError, match="decimal integer"):
        load_ppm(path)


def default_line(name):
    """`name = value` with the field's default, as a config file spells it."""
    value = getattr(ExperimentConfig(), name)
    return f"{name} = {','.join(map(str, value)) if isinstance(value, tuple) else value}"


KEYS = [f.name for f in fields(ExperimentConfig)]
VALID_LINES = [default_line(key) for key in KEYS]
VALUES = ["0", "1", "-1", "3", "2.5", "nan", "inf", "-inf", "1e999", "true", "no", "",
          "0,1", "1,,2", "samples", "images", "gps", "full", "none", "ncm", "softmax",
          "synthetic", "cifar100", "image_dir", "# only a comment"]
LINES = st.one_of(
    st.sampled_from(VALID_LINES),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS + ["bogus"]),
              st.one_of(st.sampled_from(VALUES), st.text(max_size=8))),
    st.text(max_size=16),
)


@pytest.mark.parametrize("line", ["tasks = 1_0", "seeds = 0_1,2", "tasks = \u0663",
                                  "learning_rate = 1_0.5"])
def test_config_number_with_underscore_or_non_ascii_digit_is_config_error(line):
    # int() and float() take these as 10, (1, 2), 3 and 10.5
    key = line.split(" = ")[0]
    with pytest.raises(ConfigError, match=f"bad value for {key}: expected an ASCII number"):
        parse_config(line)


NUMBER_TEXT = st.text(st.one_of(st.sampled_from("0123456789_.-e"),
                                st.characters(categories=["Nd"])), min_size=1, max_size=6)


@BOUNDED
@given(st.sampled_from(["tasks", "seeds", "learning_rate"]),
       NUMBER_TEXT.filter(lambda text: not text.isascii() or "_" in text))
def test_config_number_is_ascii_without_underscore(key, text):
    with pytest.raises(ConfigError, match=f"bad value for {key}"):
        parse_config(f"{key} = {text}")


@BOUNDED
@given(st.lists(LINES, max_size=12))
def test_config_text_validates_or_is_config_error(lines):
    try:
        parse_config("\n".join(lines)).validate()
    except ConfigError:
        pass
