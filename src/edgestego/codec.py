"""Payload framing and the embed/extract operations.

Wire format (a compatibility contract between conforming implementations):

* Header: 80 bits = magic 0x5347 (16) | version 1 (8) | sigma tenths (8) |
  low threshold (8) | high threshold (8) | payload byte count (32), every
  field most-significant-bit first. The bits occupy bit 0 of channels
  R, G, B of row-0 pixels (0,0), (1,0), ... - three bits per pixel, 27
  pixels, with the final pixel's blue channel left untouched.
* Payload: bytes serialized MSB-first, consumed 9 bits per carrier pixel:
  the first three bits land in R's bits 2,1,0, the next three in G's, the
  last three in B's. Carrier pixels are taken in row-major order from the
  recomputed edge map; a trailing partial group is zero-padded.

Both operations pass the detector the payload's carrier count, so its map
may stop at a row below the last carrier (see ``detect_edges``). They count
the carriers of the rows detected, then scatter or gather only the payload's
along the walk of ``carrier.carrier_blocks`` (see ``carrier``). A map that
stops early holds the payload, so a capacity or truncation error always
reports the whole image's capacity. ``embed`` given a ``report`` detects
every row.

Extraction re-runs the detector on the carrier itself. That recovers the
embedder's exact edge map because the detector masks channel bits 0..2
before looking at anything, and both header and payload live entirely in
those bits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .canny import CannyParams, check_min_size, detect_edges
from .carrier import capacity_of, carrier_blocks, carrier_count, carriers_for
from .errors import (
    BadMagic,
    CapacityExceeded,
    CorruptHeader,
    ImageTooNarrow,
    ParamOutOfRange,
    TruncatedPayload,
    UnsupportedVersion,
)
from .image import RgbImage

HEADER_MAGIC = 0x5347  # "SG"
HEADER_VERSION = 1
MAX_PAYLOAD_BYTES = 2**32 - 1

_HEADER_STRUCT = struct.Struct(">HBBBBI")
HEADER_BITS = 8 * _HEADER_STRUCT.size
HEADER_PIXELS = -(-HEADER_BITS // 3)  # bit 0 of each channel holds one


@dataclass(frozen=True)
class StegoHeader:
    """The self-describing in-image record: detector params plus payload length."""

    params: CannyParams
    payload_len: int

    def to_bytes(self) -> bytes:
        return _HEADER_STRUCT.pack(
            HEADER_MAGIC,
            HEADER_VERSION,
            self.params.sigma_tenths,
            self.params.low_threshold,
            self.params.high_threshold,
            self.payload_len,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StegoHeader":
        magic, version, sigma_tenths, low, high, payload_len = _HEADER_STRUCT.unpack(raw)
        if magic != HEADER_MAGIC:
            raise BadMagic(f"expected magic 0x{HEADER_MAGIC:04X}, found 0x{magic:04X}")
        if version != HEADER_VERSION:
            raise UnsupportedVersion(f"header version {version}, expected {HEADER_VERSION}")
        try:
            params = CannyParams(sigma_tenths, low, high)
        except ParamOutOfRange as exc:
            raise CorruptHeader(str(exc)) from exc
        return cls(params, payload_len)


def _to_fields(data: bytes, width: int, count: int) -> np.ndarray:
    """``count`` fields of ``width`` bits read from ``data`` MSB-first; the last is zero-padded."""
    words = np.zeros(-(-count // 8), dtype=np.uint32)  # width bytes, big-endian: eight fields
    groups = np.frombuffer(data, dtype=np.uint8)[: width * words.size]
    for k in range(width):  # a missing trailing byte stays zero
        words <<= 8
        column = groups[k::width]
        words[: column.size] |= column
    fields = np.empty((words.size, 8), dtype=np.uint8)
    for j in reversed(range(8)):  # the low byte of each shifted word
        fields[:, j] = words
        words >>= width
    fields &= (1 << width) - 1
    return fields.reshape(-1)[:count]


def _from_fields(fields: np.ndarray, width: int, size: int) -> bytes:
    """The first ``size`` bytes of the low ``width`` bits of ``fields``, read MSB-first."""
    words = np.zeros(-(-fields.size // 8), dtype=np.uint32)  # eight fields: width bytes
    for j in range(8):  # a missing trailing field counts as zero
        words <<= width
        column = fields[j::8]
        words[: column.size] |= column & ((1 << width) - 1)
    groups = np.empty((words.size, width), dtype=np.uint8)
    for k in reversed(range(width)):
        groups[:, k] = words
        words >>= 8
    return groups.reshape(-1)[:size].tobytes()


def check_geometry(image: RgbImage):
    """Raise unless ``image`` fits the 3x3 detector window and the header row."""
    check_min_size(image)
    if image.width < HEADER_PIXELS:
        raise ImageTooNarrow(
            f"header row needs {HEADER_PIXELS} pixels, image is {image.width} wide"
        )


def read_header(carrier: RgbImage) -> StegoHeader:
    """Parse and validate the embedded header without touching the payload."""
    check_geometry(carrier)
    row = carrier.pixels[0].reshape(-1)
    return StegoHeader.from_bytes(_from_fields(row[:HEADER_BITS], 1, HEADER_BITS // 8))


def embed(image: RgbImage, payload: bytes, params: CannyParams, report=None) -> RgbImage:
    """Hide ``payload`` in the edge pixels of ``image``; returns a new image.

    Only bit 0 of the 27 header pixels in row 0 and bits 0..2 of the carrier
    pixels that actually receive payload are modified. A ``report`` dict, if
    given, receives the cover's carrier count under ``"carriers"``; the
    detector then runs on every row.
    """
    check_geometry(image)  # before the detector, which a too-narrow cover would waste
    n = carriers_for(len(payload))  # whole carriers, one 3-bit field per channel
    edges = detect_edges(image, params, None if report is not None else n)
    carriers = carrier_count(edges)
    if report is not None:
        report["carriers"] = carriers
    capacity = min(capacity_of(carriers), MAX_PAYLOAD_BYTES)  # the header's 32-bit length
    if len(payload) > capacity:
        raise CapacityExceeded(required=len(payload), available=capacity)
    out = image.pixels.copy()
    header = StegoHeader(params, len(payload)).to_bytes()
    row = out[0].reshape(-1)  # 80 header bits for the first 80 channel slots
    row[:HEADER_BITS] = (row[:HEADER_BITS] & 0xFE) | _to_fields(header, 1, HEADER_BITS)

    pixels, data = out.reshape(-1).view("V3"), memoryview(payload)  # one 3-byte item per pixel
    for start, index in carrier_blocks(edges, n):
        first = start - start % 8  # 8 carriers take 9 whole bytes: pack from start's group
        fields = _to_fields(data[9 * first // 8 :], 3, 3 * (start + index.size - first))
        channels = np.take(pixels, index).view(np.uint8)  # masked and filled in place
        channels &= 0xF8
        channels |= fields[3 * (start - first) :]
        np.put(pixels, index, channels.view(pixels.dtype))
    return RgbImage(out)


def extract(carrier: RgbImage) -> tuple[bytes, CannyParams]:
    """Recover (payload, params) from a carrier produced by :func:`embed`."""
    header = read_header(carrier)
    n = carriers_for(header.payload_len)
    edges = detect_edges(carrier, header.params, n)
    capacity = capacity_of(carrier_count(edges))
    if header.payload_len > capacity:
        raise TruncatedPayload(
            f"header claims {header.payload_len} bytes but the carrier holds {capacity}"
        )

    pixels = carrier.pixels.reshape(-1).view("V3")
    channels = np.empty(n, dtype=pixels.dtype)
    for start, index in carrier_blocks(edges, n):
        np.take(pixels, index, out=channels[start : start + index.size])
    return _from_fields(channels.view(np.uint8), 3, header.payload_len), header.params
