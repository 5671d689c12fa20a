"""Carrier pixel selection and hiding-capacity arithmetic.

Edge pixels become payload carriers in row-major order (top-to-bottom,
left-to-right). The whole first row (y == 0) is reserved for the embedded
header and never carries payload, even where it contains edges. The
capacity needs only ``carrier_count``; ``carrier_arrays`` indexes just the
carriers asked for, and a caller holds that index for one operation.
"""

from __future__ import annotations

import numpy as np

from .image import EdgeMap

RESERVED_ROWS = 1  # row 0 holds the header
BITS_PER_CARRIER = 9  # 3 LSBs in each of the 3 channels
# carrier_arrays finds carriers this many pixels' rows at a time, so flatnonzero's
# int64 result is at most 512 KB, never 8 bytes per edge pixel of the image
_BLOCK_PIXELS = 2**16


def carrier_count(edges: EdgeMap) -> int:
    """Number of edge pixels outside the reserved row."""
    return int(np.count_nonzero(edges.membership[RESERVED_ROWS:]))


def carrier_arrays(edges: EdgeMap, limit: int | None = None) -> np.ndarray:
    """The first ``limit`` carriers (all when None) as flat indices y * width + x, ascending.

    The index has the narrowest unsigned type that holds height * width,
    uint32 or narrower for any image up to 2**32 pixels.
    """
    size = carrier_count(edges) if limit is None else min(limit, carrier_count(edges))
    index = np.empty(size, dtype=np.min_scalar_type(edges.membership.size))
    rows, done = max(1, _BLOCK_PIXELS // edges.width), 0
    for y0 in range(RESERVED_ROWS, edges.height, rows):
        if done == size:
            break
        found = np.flatnonzero(edges.membership[y0 : y0 + rows])[: size - done]
        found += y0 * edges.width
        index[done : done + found.size] = found
        done += found.size
    return index


def capacity_of(carriers: int) -> int:
    """Whole payload bytes that ``carriers`` carrier pixels hold."""
    return BITS_PER_CARRIER * carriers // 8


def capacity_bytes(edges: EdgeMap) -> int:
    """Whole payload bytes the carriers can hold: floor(9 * carriers / 8)."""
    return capacity_of(carrier_count(edges))
