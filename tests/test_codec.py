"""Wire format, bit packing, and the embed/extract round trip."""

import tracemalloc

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
    write_bmp,
)
from edgestego import codec
from edgestego.carrier import _BLOCK_PIXELS, capacity_of, carrier_count, carriers_for
from edgestego.codec import StegoHeader, _from_fields, _to_fields
from helpers import random_image, write_row0_bits
import oracles

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


def test_fields_past_the_data_are_zero():
    # zero padding holds with no data at all: np.unpackbits with count= does not
    # zero-fill the output of an empty input
    assert _to_fields(b"", 1, 80).tolist() == [0] * 80
    assert _to_fields(b"", 3, 8).tolist() == [0] * 8


@given(st.binary(max_size=64), st.sampled_from([1, 3]), st.data())
def test_fields_match_the_bit_string_reference(data, width, draw):
    # counts that cut, pad or end mid-group, and the 80 header slots
    count = draw.draw(st.integers(0, (8 * len(data) + 16) // width) | st.just(80))
    assert _to_fields(data, width, count).tolist() == oracles.fields_reference(data, width, count)


@given(st.sampled_from([1, 3]), st.data())
def test_bytes_from_fields_match_the_bit_string_reference(width, draw):
    # whole channel bytes, as in the header row: bits above width must be masked
    count = draw.draw(st.integers(0, 200) | st.just(80))
    fields = draw.draw(st.lists(st.integers(0, 255), min_size=count, max_size=count))
    size = draw.draw(st.integers(0, -(-width * count // 8)))
    expected = oracles.bytes_from_fields_reference(fields, width, size)
    assert _from_fields(np.array(fields, dtype=np.uint8), width, size) == expected


def test_field_packing_holds_no_array_of_one_byte_per_bit():
    # one uint32 word per 3-byte group beside the fields or bytes themselves
    data = np.random.default_rng(0).integers(0, 256, 100_000, dtype=np.uint8).tobytes()
    peaks = []
    tracemalloc.start()
    try:
        fields = _to_fields(data, 3, 3 * -(-8 * len(data) // 9))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _from_fields(fields, 3, len(data))
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 7 * len(data)
    assert peaks[1] <= 7 * len(data)


def _embed_and_extract_peaks(image, params):
    """Traced peaks of embed and of extract above the carrier, with a near-capacity payload."""
    rng = np.random.default_rng(0)
    size = capacity_bytes(detect_edges(image, params)) - 100
    payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    tracemalloc.start()
    try:
        carrier = embed(image, payload, params)
        embed_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        extracted = extract(carrier)
        extract_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extracted == (payload, params)
    return embed_peak, extract_peak, carrier.pixels.nbytes


def test_embed_and_extract_peaks_on_a_dense_cover():
    # about 40% of a noise cover's pixels are edges. Past the detector, embed
    # holds its output (3 B/px), the 1 B/px edge map and one row block's intp
    # index and 3-bit fields (4.56 B/px), never the whole payload's fields
    # (5.80 B/px) nor an index of every carrier (6.39 B/px with a 4-byte one,
    # 8.46 B/px with an intp one); extract peaks in the detector's Sobel stage
    rng = np.random.default_rng(0)
    image = RgbImage(rng.integers(0, 256, (1024, 1024, 3), dtype=np.uint8))
    params = CannyParams(10, 5, 40)
    embed_peak, extract_peak, carrier_bytes = _embed_and_extract_peaks(image, params)
    assert embed_peak <= 4.8 * 1024 * 1024
    assert extract_peak <= 4.4 * 1024 * 1024
    # so embed, holding the edge map, never sets a peak above the extract that follows
    assert embed_peak <= carrier_bytes + extract_peak


def test_embed_peaks_below_extract_on_a_sparse_cover():
    # 64-pixel tiles of flat colour: edges only along the tile seams
    tiles = np.random.default_rng(1).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    image = RgbImage(np.ascontiguousarray(tiles.repeat(64, axis=0).repeat(64, axis=1)))
    params = CannyParams(30, 5, 40)
    assert carrier_count(detect_edges(image, params)) < 0.1 * 1024 * 1024
    embed_peak, extract_peak, carrier_bytes = _embed_and_extract_peaks(image, params)
    assert embed_peak <= carrier_bytes + extract_peak


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


@pytest.mark.parametrize("call", ["embed", "extract", "detect_edges"])
def test_embed_leaves_the_input_alone(call):
    # the detector's stages write over their input, but that input is the
    # masked gray detect_edges makes for itself, never the image's pixels
    image = random_image(1, 30, 30)
    if call == "extract":
        image = embed(image, b"xyz", PARAMS)
    snapshot = image.pixels.copy()
    {"embed": lambda: embed(image, b"xyz", PARAMS), "extract": lambda: extract(image),
     "detect_edges": lambda: detect_edges(image, PARAMS)}[call]()
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


def test_early_stop_leaves_errors_and_reports_whole_image():
    # a box near the top and one below on a flat cover: a small payload's
    # carriers end above a row with no weak pixel, so the detector stops there;
    # a payload one byte over capacity needs more carriers than the strong
    # pixels, so its map covers every row, as does embed's given a report
    pixels = np.full((96, 64, 3), 100, dtype=np.uint8)
    pixels[8:24, 16:48] = 200
    pixels[60:80, 8:40] = 30
    image = RgbImage(pixels)
    carriers = carrier_count(detect_edges(image, PARAMS))
    cap = capacity_of(carriers)
    payload = bytes(range(40))
    stopped = detect_edges(image, PARAMS, carriers_for(len(payload)))
    assert stopped.height < 48 and carrier_count(stopped) < carriers
    report = {}
    carrier = embed(image, payload, PARAMS, report)
    assert report["carriers"] == carriers
    assert carrier == embed(image, payload, PARAMS)
    assert extract(carrier) == (payload, PARAMS)
    with pytest.raises(CapacityExceeded) as excinfo:
        embed(image, bytes(cap + 1), PARAMS)
    assert (excinfo.value.required, excinfo.value.available) == (cap + 1, cap)
    pixels = carrier.pixels.copy()
    write_row0_bits(pixels, StegoHeader(PARAMS, cap + 1).to_bytes())
    with pytest.raises(TruncatedPayload, match=f"the carrier holds {cap}$"):
        extract(RgbImage(pixels))


@pytest.mark.parametrize("block_pixels", [1, 7, 64, _BLOCK_PIXELS])
def test_block_seams_move_no_payload_bit(monkeypatch, block_pixels):
    # embed scatters and extract gathers one row block of carriers at a time;
    # every carrier, on either side of a seam, gets its own three 3-bit fields
    image = random_image(2, 36, 36)
    edges = detect_edges(image, PARAMS)
    payload = np.random.default_rng(3).integers(0, 256, capacity_bytes(edges),
                                                dtype=np.uint8).tobytes()
    monkeypatch.setattr("edgestego.carrier._BLOCK_PIXELS", block_pixels)
    carrier = embed(image, payload, PARAMS)
    n = -(-8 * len(payload) // 9)
    ys, xs = np.nonzero(edges.membership[1:])
    expected = image.pixels.copy()
    fields = np.array(oracles.fields_reference(payload, 3, 3 * n), dtype=np.uint8)
    expected[ys[:n] + 1, xs[:n]] = expected[ys[:n] + 1, xs[:n]] & 0xF8 | fields.reshape(n, 3)
    assert np.array_equal(carrier.pixels[1:], expected[1:])
    assert extract(carrier) == (payload, PARAMS)


def test_carrier_reproduces_cover_edge_map():
    image = random_image(7, 34, 31)
    carrier = embed(image, b"\xa5" * 40, PARAMS)
    assert detect_edges(carrier, PARAMS) == detect_edges(image, PARAMS)


# where a 48x60 image sits in an 80-wide array, as a view whose strides differ
_LAYOUTS = {
    "column-sliced": np.s_[:, 16:64],
    "negative-stride": np.s_[::-1, 63:15:-1],
    "channel-reversed": np.s_[:, 16:64, ::-1],
    "fortran-ordered": None,
}


def _laid_out(pixels, layout):
    """A non-C-contiguous array equal to ``pixels`` (60 rows of 48)."""
    if layout is None:
        return np.asfortranarray(pixels)
    wide = random_image(13, 80, 60).pixels
    wide[layout] = pixels
    return wide[layout]


@pytest.mark.parametrize("layout", _LAYOUTS.values(), ids=_LAYOUTS)
def test_non_contiguous_images_match_their_contiguous_copy(layout):
    # the walk feeds a reshape(-1).view("V3") gather and scatter, which must see
    # each pixel's three channels whatever the image's memory layout
    cover = RgbImage(random_image(11, 80, 60).pixels[:, 16:64].copy())
    view = RgbImage(_laid_out(cover.pixels, layout))
    assert not view.pixels.flags.c_contiguous and view == cover
    edges = detect_edges(cover, PARAMS)
    assert detect_edges(view, PARAMS) == edges
    payload = np.random.default_rng(12).integers(0, 256, capacity_bytes(edges) - 3,
                                                 dtype=np.uint8).tobytes()
    carrier, stego = embed(cover, payload, PARAMS), embed(view, payload, PARAMS)
    assert write_bmp(stego) == write_bmp(carrier)
    assert extract(stego) == extract(carrier) == (payload, PARAMS)
    assert extract(RgbImage(_laid_out(carrier.pixels, layout))) == (payload, PARAMS)


def test_geometry_rejections():
    with pytest.raises(ImageTooSmall):
        embed(RgbImage(np.zeros((2, 40, 3), dtype=np.uint8)), b"", PARAMS)
    narrow = random_image(9, 26, 30)  # one pixel short of the header row
    assert carrier_count(detect_edges(narrow, PARAMS)) > 0  # room for the payload, not the header
    for call in (
        lambda: embed(narrow, b"x", PARAMS),
        lambda: extract(narrow),
        lambda: read_header(narrow),
    ):
        with pytest.raises(ImageTooNarrow, match="^header row needs 27 pixels, image is 26 wide$"):
            call()
    # errors cannot import codec, so the remedy restates HEADER_PIXELS in words
    assert f"{codec.HEADER_PIXELS} pixels" in ImageTooNarrow.remedy
    assert f"at least {codec.HEADER_PIXELS} wide" in ImageTooNarrow.remedy


def test_header_row_fits_a_cover_exactly_27_pixels_wide():
    image = random_image(9, 27, 30)
    carrier = embed(image, b"edge", PARAMS)
    assert extract(carrier) == (b"edge", PARAMS)
    report = {}
    assert embed(image, b"edge", PARAMS, report) == carrier
    assert report == {"carriers": carrier_count(detect_edges(image, PARAMS))}


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
