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
from .carrier import BITS_PER_CARRIER, capacity_of, carrier_arrays
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
HEADER_BITS = 80
HEADER_PIXELS = 27  # ceil(80 / 3)
MAX_PAYLOAD_BYTES = 2**32 - 1

_HEADER_STRUCT = struct.Struct(">HBBBBI")


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
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=width * count)
    fields = np.zeros(count, dtype=np.uint8)
    for column in bits.reshape(count, width).T:  # most significant bit first
        fields <<= 1
        fields |= column
    return fields


def _from_fields(fields: np.ndarray, width: int, size: int) -> bytes:
    """The first ``size`` bytes of the low ``width`` bits of ``fields``, read MSB-first."""
    bits = np.empty((fields.size, width), dtype=np.uint8)
    for k in range(width):
        np.right_shift(fields, width - 1 - k, out=bits[:, k])
    bits &= 1
    return np.packbits(bits.reshape(-1)[: 8 * size]).tobytes()


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


def embed(image: RgbImage, payload: bytes, params: CannyParams) -> RgbImage:
    """Hide ``payload`` in the edge pixels of ``image``; returns a new image.

    Only bit 0 of the 27 header pixels in row 0 and bits 0..2 of the carrier
    pixels that actually receive payload are modified.
    """
    return embed_at(image, payload, params, carrier_arrays(detect_edges(image, params)))


def embed_at(image: RgbImage, payload: bytes, params: CannyParams,
             carriers: np.ndarray) -> RgbImage:
    """:func:`embed` for a caller that already ran the detector.

    ``carriers`` must be ``carrier_arrays(detect_edges(image, params))``.
    """
    check_geometry(image)
    capacity = min(capacity_of(carriers.size), MAX_PAYLOAD_BYTES)  # the header's 32-bit length
    if len(payload) > capacity:
        raise CapacityExceeded(required=len(payload), available=capacity)

    out = image.pixels.copy()
    header = StegoHeader(params, len(payload)).to_bytes()
    row = out[0].reshape(-1)  # 80 header bits for the first 80 channel slots
    row[:HEADER_BITS] = (row[:HEADER_BITS] & 0xFE) | _to_fields(header, 1, HEADER_BITS)

    n = -(-8 * len(payload) // BITS_PER_CARRIER)  # whole carriers, one 3-bit field per channel
    fields = _to_fields(payload, 3, 3 * n)  # before the gather: its bit temporaries are freed
    pixels, used = out.reshape(-1).view("V3"), carriers[:n]  # one 3-byte item per pixel
    channels = (np.take(pixels, used).view(np.uint8) & 0xF8) | fields
    np.put(pixels, used, channels.view(pixels.dtype))
    return RgbImage(out)


def extract(carrier: RgbImage) -> tuple[bytes, CannyParams]:
    """Recover (payload, params) from a carrier produced by :func:`embed`."""
    header = read_header(carrier)
    carriers = carrier_arrays(detect_edges(carrier, header.params))
    capacity = capacity_of(carriers.size)
    if header.payload_len > capacity:
        raise TruncatedPayload(
            f"header claims {header.payload_len} bytes but the carrier holds {capacity}"
        )

    n = -(-8 * header.payload_len // BITS_PER_CARRIER)
    channels = np.take(carrier.pixels.reshape(-1).view("V3"), carriers[:n]).view(np.uint8)
    return _from_fields(channels, 3, header.payload_len), header.params
