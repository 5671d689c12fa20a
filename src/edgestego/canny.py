"""Deterministic five-stage Canny edge detector over a masked grayscale projection.

The detector is the shared secret between the two communicating parties, so
every stage is pinned down exactly: floating point appears only inside the
Gaussian kernel and the smoothing passes, and every stage boundary rounds
back to integers. Crucially, the grayscale projection zeroes the three LSBs
of every channel first, which makes the whole pipeline invariant under any
payload written into those bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ImageTooSmall, ParamOutOfRange
from .image import EdgeMap, GrayImage, RgbImage

SIGMA_TENTHS_MIN = 10
SIGMA_TENTHS_MAX = 30

_CHANNEL_MASK = 0xF8  # keep bits 7..3, zero the three payload bits


@dataclass(frozen=True)
class CannyParams:
    """The three shared detector parameters.

    ``sigma_tenths`` stores the Gaussian standard deviation in tenths
    (10..30, i.e. 1.0..3.0) so it survives an 8-bit header field losslessly.
    """

    sigma_tenths: int
    low_threshold: int
    high_threshold: int

    def __post_init__(self):
        if not SIGMA_TENTHS_MIN <= self.sigma_tenths <= SIGMA_TENTHS_MAX:
            # in tenths, not sigma: a CLI value too large for a float still formats
            raise ParamOutOfRange(f"sigma must be 1.0..3.0, got {self.sigma_tenths} tenths")
        for name, value in (("low", self.low_threshold), ("high", self.high_threshold)):
            if not 0 <= value <= 255:
                raise ParamOutOfRange(f"{name} threshold must be 0..255, got {value}")
        if self.low_threshold > self.high_threshold:
            raise ParamOutOfRange(
                f"low threshold {self.low_threshold} exceeds high {self.high_threshold}"
            )

    @property
    def sigma(self) -> float:
        return self.sigma_tenths / 10.0

    @classmethod
    def from_sigma(cls, sigma: float, low_threshold: int, high_threshold: int) -> "CannyParams":
        """Build params from a real sigma; it must be an exact multiple of 0.1."""
        tenths = round(sigma * 10)
        if abs(tenths - sigma * 10) > 1e-9:
            raise ParamOutOfRange(f"sigma must be a multiple of 0.1, got {sigma}")
        return cls(tenths, low_threshold, high_threshold)


def check_min_size(image: RgbImage):
    """Raise ImageTooSmall unless ``image`` covers the 3x3 Sobel window."""
    if image.width < 3 or image.height < 3:
        raise ImageTooSmall(f"need at least 3x3 pixels, got {image.width}x{image.height}")


def _round_half_up(values: np.ndarray) -> np.ndarray:
    return np.floor(values + 0.5)


def to_masked_gray(image: RgbImage) -> GrayImage:
    """Project to 8-bit grayscale after zeroing the three LSBs of each channel.

    The masking makes the result (and therefore the whole detector) identical
    for any two images that differ only in channel bits 0..2.
    """
    masked = (image.pixels & _CHANNEL_MASK).astype(np.float64)
    gray = 0.299 * masked[:, :, 0] + 0.587 * masked[:, :, 1] + 0.114 * masked[:, :, 2]
    gray = np.clip(_round_half_up(gray), 0, 255)
    return GrayImage(gray.astype(np.uint8))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps for ``sigma`` in [1.0, 3.0], radius ceil(3*sigma)."""
    if not 1.0 <= sigma <= 3.0:
        raise ParamOutOfRange(f"sigma must be 1.0..3.0, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _correlate1d_clamped(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Single-axis correlation with clamp-to-edge borders, fixed summation order."""
    length = values.shape[axis]
    radius = len(kernel) // 2
    index = np.arange(length)
    out = np.zeros_like(values)
    for tap, coeff in enumerate(kernel):
        source = np.clip(index + (tap - radius), 0, length - 1)
        out += coeff * np.take(values, source, axis=axis)
    return out


def smooth(gray: GrayImage, params: CannyParams) -> GrayImage:
    """Separable Gaussian blur: horizontal pass, vertical pass, round to 8 bits."""
    kernel = gaussian_kernel(params.sigma)
    acc = _correlate1d_clamped(gray.values.astype(np.float64), kernel, axis=1)
    acc = _correlate1d_clamped(acc, kernel, axis=0)
    return GrayImage(np.clip(_round_half_up(acc), 0, 255).astype(np.uint8))


def sobel(smoothed: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel derivatives with clamp-to-edge borders.

    Returns integer (gx, gy); gx grows with intensity increasing rightward,
    gy with intensity increasing upward.
    """
    v = smoothed.values.astype(np.int32)
    p = np.pad(v, 1, mode="edge")
    tl, tc, tr = p[:-2, :-2], p[:-2, 1:-1], p[:-2, 2:]
    ml, mr = p[1:-1, :-2], p[1:-1, 2:]
    bl, bc, br = p[2:, :-2], p[2:, 1:-1], p[2:, 2:]
    gx = (tr + 2 * mr + br) - (tl + 2 * ml + bl)
    gy = (tl + 2 * tc + tr) - (bl + 2 * bc + br)
    return gx, gy


def gradients(smoothed: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Sobel magnitude rescaled to 0..255 plus the quantized gradient direction.

    Returns uint8 (magnitude, direction); ``direction`` holds the bin angle in
    degrees, the nearest of 0/45/90/135 (boundaries at odd multiples of 22.5).
    Magnitudes are rounded, then rescaled against the image maximum so the
    two thresholds live on a fixed 0..255 scale.
    """
    gx, gy = sobel(smoothed)
    raw = _round_half_up(np.sqrt(gx.astype(np.float64) ** 2 + gy.astype(np.float64) ** 2))
    raw = raw.astype(np.int64)

    angle = np.mod(np.degrees(np.arctan2(gy, gx)), 180.0)
    direction = np.select(
        [
            (angle >= 22.5) & (angle < 67.5),
            (angle >= 67.5) & (angle < 112.5),
            (angle >= 112.5) & (angle < 157.5),
        ],
        [45, 90, 135],
        default=0,
    ).astype(np.uint8)

    peak = int(raw.max())
    if peak == 0:
        scaled = np.zeros_like(raw)
    else:
        # exact round-half-up of 255*raw/peak in integer arithmetic
        scaled = (510 * raw + peak) // (2 * peak)
    return scaled.astype(np.uint8), direction


def non_max_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Zero every pixel that is not >= both neighbors along its direction bin.

    Out-of-bounds neighbors count as magnitude 0, so border pixels can survive.
    """
    p = np.pad(magnitude, 1, mode="constant", constant_values=0)
    left, right = p[1:-1, :-2], p[1:-1, 2:]
    up, down = p[:-2, 1:-1], p[2:, 1:-1]
    up_left, up_right = p[:-2, :-2], p[:-2, 2:]
    down_left, down_right = p[2:, :-2], p[2:, 2:]

    conds = [direction == 0, direction == 45, direction == 90, direction == 135]
    first = np.select(conds, [left, up_right, up, up_left])
    second = np.select(conds, [right, down_left, down, down_right])
    keep = (magnitude >= first) & (magnitude >= second)
    return np.where(keep, magnitude, 0).astype(magnitude.dtype)


def hysteresis(thinned: np.ndarray, params: CannyParams) -> EdgeMap:
    """Double thresholding plus 8-connected edge linking.

    Strong pixels (magnitude >= high) are always edges; weak pixels
    (low <= magnitude < high) are edges only when reachable from a strong
    pixel through a chain of 8-connected weak/strong pixels. Reachability is
    order-independent, so so is the result.
    """
    strong = thinned >= params.high_threshold
    weak = (thinned >= params.low_threshold) & ~strong
    candidate = strong | weak
    if not strong.any():
        return EdgeMap(np.zeros_like(candidate))

    labels, n_components = ndimage.label(candidate, structure=np.ones((3, 3), dtype=bool))
    keep = np.zeros(n_components + 1, dtype=bool)
    keep[np.unique(labels[strong])] = True
    keep[0] = False
    return EdgeMap(keep[labels])


def detect_edges(image: RgbImage, params: CannyParams) -> EdgeMap:
    """Run the full five-stage detector on the masked grayscale projection.

    Pure and deterministic: equal image/params give bit-identical edge maps,
    and images differing only in channel bits 0..2 give the same map.
    """
    check_min_size(image)
    smoothed = smooth(to_masked_gray(image), params)
    thinned = non_max_suppression(*gradients(smoothed))
    return hysteresis(thinned, params)
