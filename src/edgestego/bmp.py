"""Bit-exact reading and writing of 24-bit uncompressed BMP files.

Only BI_RGB 24-bit files are handled, because the payload lives in pixel
LSBs and must survive a byte-exact round trip. Anything that could force a
color conversion (palettes, alpha masks, other bit depths, compression) is
rejected instead of coerced.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import MalformedFile, UnsupportedFormat
from .image import RgbImage

FILE_HEADER_SIZE = 14
INFO_HEADER_SIZE = 40
# BITMAPINFOHEADER plus the two extended variants that keep the same 40-byte prefix.
_ACCEPTED_DIB_SIZES = (40, 108, 124)
_BI_RGB = 0


def _row_stride(width: int) -> int:
    return (3 * width + 3) // 4 * 4


def read_bmp(data: bytes) -> RgbImage:
    """Decode a 24-bit BI_RGB BMP byte sequence into an RgbImage.

    Handles both bottom-up (positive height) and top-down (negative height)
    row order and consumes the 4-byte row padding. File bytes are BGR;
    memory order is RGB.
    """
    if len(data) < FILE_HEADER_SIZE:
        raise MalformedFile("file shorter than the 14-byte file header")
    magic, _file_size, _res1, _res2, pixel_offset = struct.unpack_from("<2sIHHI", data, 0)
    if magic != b"BM":
        raise MalformedFile("missing 'BM' signature")

    if len(data) < FILE_HEADER_SIZE + 4:
        raise MalformedFile("file truncated before the DIB header")
    (dib_size,) = struct.unpack_from("<I", data, FILE_HEADER_SIZE)
    if dib_size not in _ACCEPTED_DIB_SIZES:
        raise UnsupportedFormat(f"unsupported DIB header size {dib_size}")
    if len(data) < FILE_HEADER_SIZE + dib_size:
        raise MalformedFile("file truncated inside the DIB header")

    width, height, planes, bit_count, compression = struct.unpack_from(
        "<iiHHI", data, FILE_HEADER_SIZE + 4
    )
    (colors_used,) = struct.unpack_from("<I", data, FILE_HEADER_SIZE + 32)

    if planes != 1:
        raise MalformedFile(f"plane count must be 1, got {planes}")
    if bit_count != 24:
        raise UnsupportedFormat(f"bit depth must be 24, got {bit_count}")
    if compression != _BI_RGB:
        raise UnsupportedFormat(f"compression must be BI_RGB (0), got {compression}")
    if colors_used != 0:
        raise UnsupportedFormat("color table present")
    if dib_size >= 56:
        (alpha_mask,) = struct.unpack_from("<I", data, FILE_HEADER_SIZE + 52)
        if alpha_mask != 0:
            raise UnsupportedFormat("alpha channel mask present")

    if width < 0:
        raise MalformedFile(f"negative width {width}")
    top_down = height < 0
    abs_height = -height if top_down else height

    if pixel_offset < FILE_HEADER_SIZE + dib_size:
        raise MalformedFile("pixel data offset overlaps the headers")
    stride = _row_stride(width)
    needed = pixel_offset + stride * abs_height
    if len(data) < needed:
        raise MalformedFile(f"pixel data truncated: need {needed} bytes, have {len(data)}")

    # a zero width or height reads no bytes here, and RgbImage raises ZeroDimension
    raw = np.frombuffer(data, dtype=np.uint8, count=stride * abs_height, offset=pixel_offset)
    rows = raw.reshape(abs_height, stride)[:, : 3 * width].reshape(abs_height, width, 3)
    if not top_down:
        rows = rows[::-1]  # bottom-up: file row 0 is the bottom image row
    # file stores BGR; one plane at a time, since a copy reversing the
    # 3-wide channel axis runs an inner loop 3 elements long
    rgb = np.empty((abs_height, width, 3), dtype=np.uint8)
    for c in range(3):
        rgb[..., c] = rows[..., 2 - c]
    return RgbImage(rgb)


def write_bmp(image: RgbImage) -> bytearray:
    """Encode an RgbImage as a canonical bottom-up 24-bit BI_RGB BMP.

    Output is byte-deterministic: fixed 40-byte info header, rows padded
    with zero bytes to a 4-byte boundary. The file is built in the
    ``bytearray`` returned, with no second copy of it.
    """
    width, height = image.width, image.height
    stride = _row_stride(width)
    image_size = stride * height
    pixel_offset = FILE_HEADER_SIZE + INFO_HEADER_SIZE

    data = bytearray(pixel_offset + image_size)  # zeroed, so the row padding is done
    struct.pack_into(
        "<2sIHHIIiiHHIIiiII",
        data,
        0,
        b"BM",
        pixel_offset + image_size,
        0,
        0,
        pixel_offset,
        INFO_HEADER_SIZE,
        width,
        height,  # positive: bottom-up
        1,
        24,
        _BI_RGB,
        image_size,
        2835,  # 72 DPI, both axes
        2835,
        0,
        0,
    )
    rows = np.frombuffer(data, dtype=np.uint8, offset=pixel_offset).reshape(height, stride)
    # splitting the contiguous last axis is a view, so this writes into ``data``,
    # one plane at a time, in the BGR order the file stores
    bgr = rows[:, : 3 * width].reshape(height, width, 3)
    for c in range(3):
        bgr[..., c] = image.pixels[::-1, :, 2 - c]
    return data
