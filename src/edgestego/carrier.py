"""Carrier pixel selection and hiding-capacity arithmetic.

Edge pixels become payload carriers in row-major order (top-to-bottom,
left-to-right). The whole first row (y == 0) is reserved for the embedded
header and never carries payload, even where it contains edges.
"""

from __future__ import annotations

import numpy as np

from .image import EdgeMap

RESERVED_ROWS = 1  # row 0 holds the header
BITS_PER_CARRIER = 9  # 3 LSBs in each of the 3 channels


def carrier_arrays(edges: EdgeMap) -> np.ndarray:
    """Every edge pixel outside the reserved row as a flat index y * width + x, ascending."""
    index = np.flatnonzero(edges.membership[RESERVED_ROWS:])
    index += RESERVED_ROWS * edges.width
    return index


def capacity_of(carriers: int) -> int:
    """Whole payload bytes that ``carriers`` carrier pixels hold."""
    return BITS_PER_CARRIER * carriers // 8


def capacity_bytes(edges: EdgeMap) -> int:
    """Whole payload bytes the carriers can hold: floor(9 * carriers / 8)."""
    return capacity_of(carrier_arrays(edges).size)
