"""Carrier pixel selection and hiding-capacity arithmetic.

Edge pixels become payload carriers in row-major order (top-to-bottom,
left-to-right). The whole first row (y == 0) is reserved for the embedded
header and never carries payload, even where it contains edges. The
capacity needs only ``carrier_count``; ``carrier_blocks`` walks just the
carriers asked for, one row block at a time, and no index of them all is held.
Each block comes with its offset, the count of carriers walked before it.
"""

from __future__ import annotations

import numpy as np

from .image import EdgeMap

RESERVED_ROWS = 1  # row 0 holds the header
BITS_PER_CARRIER = 9  # 3 LSBs in each of the 3 channels
# carrier_blocks finds carriers this many pixels' rows at a time, so a block's
# intp index is at most 512 KB, never 8 bytes per edge pixel of the image
_BLOCK_PIXELS = 2**16


def carrier_count(edges: EdgeMap) -> int:
    """Number of edge pixels outside the reserved row."""
    return int(np.count_nonzero(edges.membership[RESERVED_ROWS:]))


def carrier_blocks(edges: EdgeMap, limit: int):
    """Yield ``(start, index)`` per ``_BLOCK_PIXELS`` row block until ``limit`` carriers are
    out: ``index`` lists the block's as ascending intp y * width + x, ``start`` is its offset."""
    rows = max(1, _BLOCK_PIXELS // edges.width)
    start = 0
    for y0 in range(RESERVED_ROWS, edges.height, rows):
        if start >= limit:
            return
        index = np.flatnonzero(edges.membership[y0 : y0 + rows])[: limit - start]
        index += y0 * edges.width
        yield start, index
        start += index.size


def capacity_of(carriers: int) -> int:
    """Whole payload bytes that ``carriers`` carrier pixels hold."""
    return BITS_PER_CARRIER * carriers // 8


def carriers_for(size: int) -> int:
    """Carrier pixels that ``size`` payload bytes take: ceil(8 * size / 9)."""
    return -(-8 * size // BITS_PER_CARRIER)


def capacity_bytes(edges: EdgeMap) -> int:
    """Whole payload bytes the carriers can hold: floor(9 * carriers / 8)."""
    return capacity_of(carrier_count(edges))
