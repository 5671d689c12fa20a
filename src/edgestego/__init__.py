"""edgestego: hide binary payloads in the edge pixels of 24-bit BMP images.

The payload is written into the three least significant bits of every color
channel of pixels that lie on detected edges. The detector runs on a
grayscale projection that masks those same bits first, so the receiver can
re-run it on the carrier image and land on the identical pixel set.
"""

from .bmp import read_bmp, write_bmp
from .canny import CannyParams, detect_edges
from .carrier import capacity_bytes
from .codec import embed, extract, read_header
from .errors import *  # noqa: F403 -- every error class is public API
from .image import EdgeMap, RgbImage
from .metrics import diff

__version__ = "0.1.0"
