"""edgestego: hide binary payloads in the edge pixels of 24-bit BMP images.

The payload is written into the three least significant bits of every color
channel of pixels that lie on detected edges. The detector runs on a
grayscale projection that masks those same bits first, so the receiver can
re-run it on the carrier image and land on the identical pixel set.
"""

from .bmp import read_bmp, write_bmp
from .canny import CannyParams, detect_edges
from .carrier import capacity_bytes, carrier_arrays
from .codec import embed, extract, read_header
from .errors import (
    BadMagic,
    CapacityExceeded,
    CorruptHeader,
    DimensionMismatch,
    ImageTooNarrow,
    ImageTooSmall,
    MalformedFile,
    ParamOutOfRange,
    StegoError,
    TruncatedPayload,
    UnsupportedFormat,
    UnsupportedVersion,
    ZeroDimension,
)
from .image import EdgeMap, RgbImage
from .metrics import diff, verify_stability

__version__ = "0.1.0"

__all__ = [
    "BadMagic",
    "CannyParams",
    "CapacityExceeded",
    "CorruptHeader",
    "DimensionMismatch",
    "EdgeMap",
    "ImageTooNarrow",
    "ImageTooSmall",
    "MalformedFile",
    "ParamOutOfRange",
    "RgbImage",
    "StegoError",
    "TruncatedPayload",
    "UnsupportedFormat",
    "UnsupportedVersion",
    "ZeroDimension",
    "capacity_bytes",
    "carrier_arrays",
    "detect_edges",
    "diff",
    "embed",
    "extract",
    "read_bmp",
    "read_header",
    "verify_stability",
    "write_bmp",
]
