"""Wire format, bit packing, and the embed/extract round trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestego import (
    BadMagic,
    CannyParams,
    CapacityExceeded,
    CorruptHeader,
    ImageTooNarrow,
    ImageTooSmall,
    RgbImage,
    TruncatedPayload,
    UnsupportedVersion,
    capacity_bytes,
    detect_edges,
    embed,
    extract,
    read_header,
)
from edgestego import codec
from edgestego.codec import StegoHeader, _from_fields, _to_fields
from helpers import random_image, write_row0_bits

PARAMS = CannyParams(15, 5, 40)


# ------------------------------------------------------------- bit plumbing


def test_pack_bits_is_msb_first():
    assert _to_fields(b"\x48", 1, 8).tolist() == [0, 1, 0, 0, 1, 0, 0, 0]
    assert _to_fields(b"\xff\x00", 1, 16).tolist() == [1] * 8 + [0] * 8
    assert _to_fields(b"", 1, 0).size == 0


def test_payload_fields_fill_channels_msb_first_and_pad_with_zeros():
    # 1010 0101 0000 1111 -> 101 001 010 000 111 1(00)
    fields = _to_fields(b"\xA5\x0F", 3, 6)
    assert fields.reshape(-1, 3).tolist() == [[5, 1, 2], [0, 7, 4]]
    assert _from_fields(fields, 3, 2) == b"\xA5\x0F"


@given(st.binary(max_size=64), st.sampled_from([1, 3]))
def test_fields_round_trip(data, width):
    count = -(-8 * len(data) // width)
    assert _from_fields(_to_fields(data, width, count), width, len(data)) == data


# ------------------------------------------------------------------- header


def test_header_round_trip():
    header = StegoHeader(PARAMS, 123456)
    raw = header.to_bytes()
    assert len(raw) == 10
    assert StegoHeader.from_bytes(raw) == header


def test_header_byte_layout():
    raw = StegoHeader(CannyParams(20, 7, 99), 0x01020304).to_bytes()
    # magic "SG", version, sigma tenths, low, high, length big-endian
    assert raw == bytes([0x53, 0x47, 1, 20, 7, 99, 0x01, 0x02, 0x03, 0x04])


def test_header_rejects_bad_fields():
    good = StegoHeader(PARAMS, 9).to_bytes()
    with pytest.raises(BadMagic):
        StegoHeader.from_bytes(b"\x00\x00" + good[2:])
    with pytest.raises(UnsupportedVersion):
        StegoHeader.from_bytes(good[:2] + b"\x02" + good[3:])
    with pytest.raises(CorruptHeader):
        StegoHeader.from_bytes(good[:3] + b"\x63" + good[4:])  # sigma tenths 99
    with pytest.raises(CorruptHeader):
        # low 50 above high 40
        StegoHeader.from_bytes(good[:4] + bytes([50, 40]) + good[6:])


# ------------------------------------------------------------ embed/extract


def test_round_trip_fixed_case():
    image = random_image(0, 32, 32)
    payload = bytes(range(50))
    carrier = embed(image, payload, PARAMS)
    assert extract(carrier) == (payload, PARAMS)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(10, 20, 30), (15, 5, 40), (20, 20, 30), (30, 0, 255)]),
)
def test_round_trip_randomized(seed, triple):
    rng = np.random.default_rng(seed)
    width, height = (int(v) for v in rng.integers(27, 49, size=2))
    image = RgbImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    params = CannyParams(*triple)
    cap = capacity_bytes(detect_edges(image, params))
    payload = rng.integers(0, 256, int(rng.integers(0, cap + 1)), dtype=np.uint8).tobytes()
    recovered, recovered_params = extract(embed(image, payload, params))
    assert recovered == payload
    assert recovered_params == params


def test_embed_leaves_the_input_alone():
    image = random_image(1, 30, 30)
    snapshot = image.pixels.copy()
    embed(image, b"xyz", PARAMS)
    assert np.array_equal(image.pixels, snapshot)


def test_embed_touches_only_licensed_bits():
    image = random_image(2, 36, 36)
    edges = detect_edges(image, PARAMS)
    cap = capacity_bytes(edges)
    rng = np.random.default_rng(3)
    carrier = embed(image, rng.integers(0, 256, cap, dtype=np.uint8).tobytes(), PARAMS)

    changed = image.pixels ^ carrier.pixels
    # bits 3..7 are sacred everywhere
    assert not np.any(changed & 0xF8)
    # row 0: only bit 0 of the first 80 channel slots (27 pixels, last blue free)
    row0 = changed[0].reshape(-1)
    assert not np.any(row0[:80] & 0xFE)
    assert not np.any(row0[80:])
    # other rows: only the three payload bits of actual edge pixels
    assert not np.any(changed[1:][~edges.membership[1:]])
    assert int(np.abs(image.pixels.astype(int) - carrier.pixels.astype(int)).max()) <= 7


def test_zero_length_payload_only_writes_the_header():
    image = random_image(4, 30, 30)
    params = CannyParams(20, 20, 30)
    carrier = embed(image, b"", params)
    changed = image.pixels ^ carrier.pixels
    assert not np.any(changed[1:])
    assert extract(carrier) == (b"", params)


def test_header_survives_even_with_row_zero_edges():
    # gradient-heavy top row: the detector may flag row-0 pixels, but the
    # header must still parse and the payload must still round-trip
    rng = np.random.default_rng(5)
    pixels = rng.integers(0, 256, (30, 40, 3), dtype=np.uint8)
    pixels[0] = np.repeat(
        rng.integers(0, 256, (10, 3), dtype=np.uint8), 4, axis=0
    )  # busy stripes
    image = RgbImage(pixels)
    payload = b"top row stress"
    carrier = embed(image, payload, PARAMS)
    assert read_header(carrier).payload_len == len(payload)
    assert extract(carrier) == (payload, PARAMS)


def test_capacity_boundary():
    image = random_image(6, 40, 40)
    cap = capacity_bytes(detect_edges(image, PARAMS))
    assert cap > 0
    extracted, _ = extract(embed(image, bytes(cap), PARAMS))  # exactly full fits
    assert extracted == bytes(cap)
    with pytest.raises(CapacityExceeded) as excinfo:
        embed(image, bytes(cap + 1), PARAMS)
    assert excinfo.value.required == cap + 1
    assert excinfo.value.available == cap


def test_payload_limit_reports_what_the_image_holds(monkeypatch):
    # with the 32-bit length limit lowered below the payload, an image that
    # holds less than the limit still reports its own capacity, and one that
    # holds more reports the limit
    image = RgbImage(np.random.default_rng(31).integers(0, 256, (36, 40, 3), dtype=np.uint8))
    for limit, payload, available in ((1000, 2000, 545), (10, 20, 10)):
        monkeypatch.setattr(codec, "MAX_PAYLOAD_BYTES", limit)
        with pytest.raises(CapacityExceeded) as excinfo:
            embed(image, bytes(payload), PARAMS)
        assert excinfo.value.available == available
    assert capacity_bytes(detect_edges(image, PARAMS)) == 545


def test_carrier_reproduces_cover_edge_map():
    image = random_image(7, 34, 31)
    carrier = embed(image, b"\xa5" * 40, PARAMS)
    assert detect_edges(carrier, PARAMS) == detect_edges(image, PARAMS)


def test_geometry_rejections():
    with pytest.raises(ImageTooSmall):
        embed(RgbImage(np.zeros((2, 40, 3), dtype=np.uint8)), b"", PARAMS)
    narrow = RgbImage(np.zeros((40, 20, 3), dtype=np.uint8))
    with pytest.raises(ImageTooNarrow):
        embed(narrow, b"", PARAMS)
    with pytest.raises(ImageTooNarrow):
        extract(narrow)
    with pytest.raises(ImageTooNarrow):
        read_header(narrow)


def test_extract_from_plain_image_is_bad_magic():
    # all-zero LSBs decode to magic 0x0000
    with pytest.raises(BadMagic):
        extract(RgbImage(np.zeros((30, 30, 3), dtype=np.uint8)))


def test_extract_rejects_foreign_version():
    carrier = embed(random_image(8, 30, 30), b"hi", PARAMS)
    raw = bytearray(StegoHeader(PARAMS, 2).to_bytes())
    raw[2] = 9  # version field
    pixels = carrier.pixels.copy()
    write_row0_bits(pixels, bytes(raw))
    with pytest.raises(UnsupportedVersion):
        extract(RgbImage(pixels))


def test_extract_rejects_corrupt_params():
    carrier = embed(random_image(9, 30, 30), b"hi", PARAMS)
    raw = bytearray(StegoHeader(PARAMS, 2).to_bytes())
    raw[3] = 99  # sigma tenths way out of range
    pixels = carrier.pixels.copy()
    write_row0_bits(pixels, bytes(raw))
    with pytest.raises(CorruptHeader):
        extract(RgbImage(pixels))


def test_extract_detects_overlong_length_claim():
    image = random_image(10, 36, 36)
    carrier = embed(image, b"abc", PARAMS)
    cap = capacity_bytes(detect_edges(carrier, PARAMS))
    pixels = carrier.pixels.copy()
    write_row0_bits(pixels, StegoHeader(PARAMS, cap + 1).to_bytes())
    with pytest.raises(TruncatedPayload):
        extract(RgbImage(pixels))
