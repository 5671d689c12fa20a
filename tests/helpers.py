"""Shared test utilities: a hand-rolled BMP assembler and small builders."""

import struct

import numpy as np

from edgestego import RgbImage
from edgestego.canny import _sobel


def make_bmp(pixels, *, top_down=False, dib_size=40, gap=0, bit_count=24,
             compression=0, colors_used=0, planes=1, alpha_mask=0):
    """Assemble a BMP byte string from an RGB pixel array, independent of
    the package's writer.

    ``gap`` inserts extra bytes between the headers and the pixel data (the
    pixel offset field accounts for them). ``dib_size`` of 108/124 emits the
    extended headers zero-filled past the first 40 bytes.
    """
    pixels = np.asarray(pixels, dtype=np.uint8)
    height, width, _ = pixels.shape
    stride = (3 * width + 3) // 4 * 4
    pixel_offset = 14 + dib_size + gap

    dib = struct.pack(
        "<IiiHHIIiiII",
        dib_size,
        width,
        -height if top_down else height,
        planes,
        bit_count,
        compression,
        stride * height,
        0,
        0,
        colors_used,
        0,
    )
    dib += bytes(dib_size - 40)
    if alpha_mask:
        dib = dib[:52] + struct.pack("<I", alpha_mask) + dib[56:]

    rows = bytearray()
    row_order = range(height) if top_down else range(height - 1, -1, -1)
    for y in row_order:
        for x in range(width):
            r, g, b = pixels[y, x]
            rows += bytes((b, g, r))
        rows += bytes(stride - 3 * width)

    file_header = struct.pack("<2sIHHI", b"BM", pixel_offset + stride * height, 0, 0, pixel_offset)
    return bytes(file_header) + dib + bytes(gap) + bytes(rows)


def patched(data, offset, fmt, value):
    """Copy of ``data`` with one header field overwritten."""
    buf = bytearray(data)
    struct.pack_into(fmt, buf, offset, value)
    return bytes(buf)


def random_image(seed, width, height):
    rng = np.random.default_rng(seed)
    return RgbImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def write_row0_bits(pixels, raw):
    """Plant ``raw`` bytes into bit 0 of row-0 channels, MSB first.

    Used to forge or corrupt headers without going through the codec.
    """
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    flat = pixels[0].reshape(-1)
    flat[: bits.size] = (flat[: bits.size] & 0xFE) | bits


def sobel(values):
    """The detector's int16 Sobel (gx, gy) of a 2-D uint8 array, borders clamped."""
    return _sobel(np.pad(values, 1, mode="edge").astype(np.int16))

