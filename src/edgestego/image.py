"""In-memory pixel grids shared by every stage of the pipeline.

Coordinates are (x, y) with the origin at the top-left corner, x growing
rightward and y growing downward. Arrays are indexed [y, x].
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroDimension


class _Grid:
    """A validated array of shape ``_shape`` stored under the subclass's ``_field``."""

    _field: str
    _dtype: type = np.uint8
    _shape: tuple = ("height", "width")
    _noun = "image"

    def __init__(self, array: np.ndarray):
        array = np.asarray(array)
        if array.ndim != len(self._shape) or array.shape[2:] != self._shape[2:]:
            shape = ", ".join(map(str, self._shape))
            raise ValueError(f"expected ({shape}) {self._field}, got {array.shape}")
        if array.dtype != self._dtype:
            raise ValueError(f"expected {np.dtype(self._dtype)} {self._field}, got {array.dtype}")
        if array.shape[0] == 0 or array.shape[1] == 0:
            raise ZeroDimension(f"{self._noun} must be at least 1x1")
        setattr(self, self._field, array)

    @property
    def width(self) -> int:
        return getattr(self, self._field).shape[1]

    @property
    def height(self) -> int:
        return getattr(self, self._field).shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return bool(np.array_equal(getattr(self, self._field), getattr(other, self._field)))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.width}x{self.height})"


class RgbImage(_Grid):
    """A 24-bit image: ``pixels`` is a (height, width, 3) uint8 array in RGB order."""

    _field = "pixels"
    _shape = ("height", "width", 3)


class GrayImage(_Grid):
    """A single-channel image: ``values`` is a (height, width) uint8 array."""

    _field = "values"


class EdgeMap(_Grid):
    """Per-pixel edge membership: ``membership`` is a (height, width) bool array."""

    _field = "membership"
    _dtype = np.bool_
    _noun = "edge map"

    @property
    def count(self) -> int:
        """Number of pixels flagged as edges."""
        return int(np.count_nonzero(self.membership))

    def __repr__(self) -> str:
        return f"EdgeMap({self.width}x{self.height}, {self.count} edges)"
