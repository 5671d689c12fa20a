"""BMP reader/writer tests against hand-assembled files."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestego import (
    MalformedFile,
    RgbImage,
    StegoError,
    UnsupportedFormat,
    ZeroDimension,
    read_bmp,
    write_bmp,
)
from helpers import make_bmp, patched

# DIB field offsets from the start of the file
_OFF_WIDTH = 18
_OFF_HEIGHT = 22
_OFF_PLANES = 26


def test_single_blue_pixel_is_stored_bgr():
    # Raw bytes written out longhand: pixel bytes (0xFF, 0x00, 0x00) in file
    # order decode to pure blue because the file channel order is BGR.
    file_header = struct.pack("<2sIHHI", b"BM", 58, 0, 0, 54)
    dib = struct.pack("<IiiHHIIiiII", 40, 1, 1, 1, 24, 0, 4, 0, 0, 0, 0)
    image = read_bmp(file_header + dib + bytes([0xFF, 0x00, 0x00, 0x00]))
    assert image.width == 1 and image.height == 1
    assert tuple(image.pixels[0, 0]) == (0x00, 0x00, 0xFF)


def test_bottom_up_rows_are_flipped():
    pixels = np.zeros((2, 3, 3), dtype=np.uint8)
    pixels[0, :, 0] = 10  # top row in memory: dim red
    pixels[1, :, 1] = 20  # bottom row in memory: dim green
    data = make_bmp(pixels)
    # anchor the fixture itself: the first file row is the bottom image row,
    # stored as BGR triples plus three padding bytes (stride 12 for width 3)
    assert data[54:66] == bytes([0, 20, 0] * 3 + [0, 0, 0])
    assert read_bmp(data) == RgbImage(pixels)


def test_top_down_negative_height():
    rng = np.random.default_rng(7)
    pixels = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
    image = read_bmp(make_bmp(pixels, top_down=True))
    assert np.array_equal(image.pixels, pixels)


@pytest.mark.parametrize("top_down", [False, True])
def test_read_pixels_are_contiguous_and_owned(top_down):
    # the detector runs several times slower on a strided array, and a view
    # would keep the file's bytes alive with the image
    pixels = np.random.default_rng(8).integers(0, 256, (3, 5, 3), dtype=np.uint8)
    image = read_bmp(make_bmp(pixels, top_down=top_down))
    assert image.pixels.flags.c_contiguous and image.pixels.flags.owndata
    assert np.array_equal(image.pixels, pixels)


def test_gap_between_headers_and_pixels():
    pixels = np.full((2, 2, 3), 77, dtype=np.uint8)
    image = read_bmp(make_bmp(pixels, gap=12))
    assert np.array_equal(image.pixels, pixels)


def test_v4_and_v5_headers_accepted():
    pixels = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    for dib_size in (108, 124):
        image = read_bmp(make_bmp(pixels, dib_size=dib_size))
        assert np.array_equal(image.pixels, pixels)


def test_fixture_corpus_rewrite_round_trip():
    # Hand-built files covering every stride remainder (widths 1,2,3,5 plus
    # a multiple of four), both row orders, and an extended header. Decoding,
    # re-encoding and decoding again must reproduce the same pixels.
    rng = np.random.default_rng(1234)
    fixtures = []
    for width, height in [(1, 1), (2, 3), (3, 2), (5, 4), (4, 5), (27, 3)]:
        fixtures.append(make_bmp(rng.integers(0, 256, (height, width, 3), dtype=np.uint8)))
    fixtures.append(make_bmp(rng.integers(0, 256, (3, 5, 3), dtype=np.uint8), top_down=True))
    fixtures.append(make_bmp(rng.integers(0, 256, (2, 2, 3), dtype=np.uint8), dib_size=108))
    fixtures.append(make_bmp(rng.integers(0, 256, (4, 3, 3), dtype=np.uint8), gap=7))
    for data in fixtures:
        first = read_bmp(data)
        assert read_bmp(write_bmp(first)) == first


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_write_read_round_trip(width, height, seed):
    rng = np.random.default_rng(seed)
    image = RgbImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))
    assert read_bmp(write_bmp(image)) == image


def test_writer_layout_for_1x1():
    data = write_bmp(RgbImage(np.zeros((1, 1, 3), dtype=np.uint8)))
    assert len(data) == 58  # 14 + 40 + one 4-byte row
    assert data[:2] == b"BM"
    assert struct.unpack_from("<I", data, 2)[0] == 58  # file size
    assert struct.unpack_from("<I", data, 10)[0] == 54  # pixel offset
    assert struct.unpack_from("<I", data, 14)[0] == 40  # plain info header
    assert data[54:] == b"\x00\x00\x00\x00"


def test_writer_pads_rows_with_zeros():
    for width in (1, 2, 3, 4):
        image = RgbImage(np.full((2, width, 3), 0xAB, dtype=np.uint8))
        data = write_bmp(image)
        stride = (3 * width + 3) // 4 * 4
        assert len(data) == 54 + 2 * stride
        for row in (54, 54 + stride):
            assert data[row : row + 3 * width] == b"\xab" * (3 * width)
            assert data[row + 3 * width : row + stride] == bytes(stride - 3 * width)


def test_writer_is_deterministic():
    rng = np.random.default_rng(99)
    image = RgbImage(rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8))
    assert write_bmp(image) == write_bmp(image)


def test_rejects_bad_signature():
    data = make_bmp(np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(MalformedFile):
        read_bmp(b"PNG" + data[3:])
    with pytest.raises(MalformedFile):
        read_bmp(b"")


def test_rejects_truncated_files():
    data = make_bmp(np.zeros((3, 3, 3), dtype=np.uint8))
    with pytest.raises(MalformedFile, match="shorter than the 14-byte file header"):
        read_bmp(data[:10])  # inside the file header
    with pytest.raises(MalformedFile, match="truncated before the DIB header"):
        read_bmp(data[:16])  # past the file header, inside the DIB size field
    with pytest.raises(MalformedFile, match="truncated inside the DIB header"):
        read_bmp(data[:30])  # inside the DIB header
    with pytest.raises(MalformedFile, match="pixel data truncated"):
        read_bmp(data[:-1])  # one pixel byte short


def test_rejects_other_bit_depths():
    for depth in (1, 8, 16, 32):
        with pytest.raises(UnsupportedFormat):
            read_bmp(make_bmp(np.zeros((1, 1, 3), dtype=np.uint8), bit_count=depth))


def test_rejects_compression():
    with pytest.raises(UnsupportedFormat):
        read_bmp(make_bmp(np.zeros((1, 1, 3), dtype=np.uint8), compression=1))  # RLE8


def test_rejects_color_table():
    with pytest.raises(UnsupportedFormat):
        read_bmp(make_bmp(np.zeros((1, 1, 3), dtype=np.uint8), colors_used=16))


def test_rejects_alpha_mask():
    with pytest.raises(UnsupportedFormat):
        read_bmp(make_bmp(np.zeros((1, 1, 3), dtype=np.uint8), dib_size=108, alpha_mask=0xFF000000))


def test_rejects_core_header():
    # 12-byte BITMAPCOREHEADER and anything else unknown
    data = make_bmp(np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(UnsupportedFormat):
        read_bmp(patched(data, 14, "<I", 12))


def test_rejects_plane_count_other_than_one():
    with pytest.raises(MalformedFile):
        read_bmp(make_bmp(np.zeros((1, 1, 3), dtype=np.uint8), planes=2))


def test_rejects_zero_dimensions():
    data = make_bmp(np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(ZeroDimension):
        read_bmp(patched(data, _OFF_WIDTH, "<i", 0))
    with pytest.raises(ZeroDimension):
        read_bmp(patched(data, _OFF_HEIGHT, "<i", 0))


@pytest.mark.parametrize("array,error", [
    (np.zeros((4, 4), dtype=np.uint8), UnsupportedFormat),  # 2-D
    (np.zeros((4, 4, 4), dtype=np.uint8), UnsupportedFormat),  # 4 channels
    (np.zeros((4, 4, 3)), UnsupportedFormat),  # float64
    (np.zeros((4, 4, 3), dtype=np.int16), UnsupportedFormat),
    (np.zeros((0, 4, 3), dtype=np.uint8), ZeroDimension),
], ids=["2-d", "4-channels", "float64", "int16", "zero-size"])
def test_in_memory_pixels_raise_typed_errors(array, error):
    with pytest.raises(error):
        RgbImage(array)


def test_rejects_negative_width():
    data = make_bmp(np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(MalformedFile):
        read_bmp(patched(data, _OFF_WIDTH, "<i", -1))


def test_rejects_pixel_offset_inside_headers():
    data = make_bmp(np.zeros((1, 1, 3), dtype=np.uint8))
    with pytest.raises(MalformedFile):
        read_bmp(patched(data, 10, "<I", 20))


# (offset, size) of every BMP header field a reader acts on, the v4/v5 alpha mask last
_HEADER_FIELDS = [(2, 4), (10, 4), (14, 4), (18, 4), (22, 4), (26, 2), (28, 2), (30, 4),
                  (34, 4), (46, 4), (66, 4)]
_VALID_FILES = [
    make_bmp(np.arange(60, dtype=np.uint8).reshape(4, 5, 3)),
    make_bmp(np.arange(42, dtype=np.uint8).reshape(7, 2, 3), top_down=True, dib_size=108),
    write_bmp(RgbImage(np.full((3, 6, 3), 200, dtype=np.uint8))),
]
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(1, 2**16)),  # bytes cut off the end
    st.tuples(st.just("set"), st.sampled_from(_HEADER_FIELDS),
              st.sampled_from([0, -1, 2**31 - 1])),
    st.tuples(st.just("add"), st.sampled_from(_HEADER_FIELDS), st.integers(-8, 8)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_VALID_FILES), st.lists(_MUTATION, min_size=1, max_size=4))
def test_mutated_files_raise_only_stego_errors(data, mutations):
    buf = bytearray(data)
    for kind, *args in mutations:
        if kind == "flip" and buf:
            position, bit = args
            buf[position % len(buf)] ^= 1 << bit
        elif kind == "cut":
            del buf[max(len(buf) - args[0], 0):]
        elif kind in ("set", "add"):
            (offset, size), value = args
            if offset + size <= len(buf):
                if kind == "add":
                    value += int.from_bytes(buf[offset : offset + size], "little")
                buf[offset : offset + size] = (value % 2 ** (8 * size)).to_bytes(size, "little")
    try:
        read_bmp(bytes(buf))
    except StegoError:
        pass
