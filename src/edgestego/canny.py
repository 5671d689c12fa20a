"""Deterministic five-stage Canny edge detector over a masked grayscale projection.

The detector is the shared secret between the two communicating parties, so
every stage is pinned down exactly. Floating point appears only in the
Gaussian taps, the smoothing sums (taps added in a fixed order) and one
correctly rounded IEEE square root per pixel; the gray projection is integer
arithmetic, directions are binned by integer tests and every stage rounds
back to integers. The gray projection zeroes the three LSBs of every
channel first, so the whole pipeline is invariant under any payload written
into those bits. Every stage works on blocks of ``_BLOCK_ROWS`` rows, gathers
included, so its temporaries stay in cache; no value depends on blocking.
Only the hysteresis labelling spans the image, and it labels just the weak
pixels, in a copy of the rows that hold them: strong pixels are edges
whatever their neighbours, so they need no label.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmall, ParamOutOfRange
from .image import EdgeMap, GrayImage, RgbImage

SIGMA_TENTHS_MIN = 10
SIGMA_TENTHS_MAX = 30
# A float64 block 2048 pixels wide is 512 KiB: it and its temporaries fit in L2.
_BLOCK_ROWS = 32


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
        for name, value in vars(self).items():
            try:
                operator.index(value)  # Python and numpy integers pass; floats and text do not
            except TypeError:
                raise ParamOutOfRange(f"{name} must be an integer, got {value!r}") from None
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


def check_min_size(image: RgbImage):
    """Raise ImageTooSmall unless ``image`` covers the 3x3 Sobel window."""
    if image.width < 3 or image.height < 3:
        raise ImageTooSmall(f"need at least 3x3 pixels, got {image.width}x{image.height}")


def _row_blocks(height: int):
    for y0 in range(0, height, _BLOCK_ROWS):
        yield y0, min(y0 + _BLOCK_ROWS, height)


def to_masked_gray(image: RgbImage) -> GrayImage:
    """Project to 8-bit grayscale after zeroing the three LSBs of each channel.

    The masking makes the result (and therefore the whole detector) identical
    for any two images that differ only in channel bits 0..2. The projection
    is 0.299/0.587/0.114 luminance rounded half up, computed exactly in
    integers as (299r + 587g + 114b + 500) // 1000 of the masked channels.
    """
    gray = np.empty((image.height, image.width), dtype=np.uint8)
    acc = np.empty((_BLOCK_ROWS, image.width), dtype=np.uint32)
    for y0, y1 in _row_blocks(image.height):
        block, luma = image.pixels[y0:y1] & 0xF8, acc[: y1 - y0]
        # one channel at a time, so the only uint32 temporaries are 2-D
        np.multiply(block[..., 0], 299, out=luma, dtype=np.uint32)
        luma += block[..., 1] * np.uint32(587)
        luma += block[..., 2] * np.uint32(114)
        luma += 500
        np.floor_divide(luma, 1000, out=gray[y0:y1], casting="unsafe")  # at most 248
    return GrayImage(gray)


def gaussian_kernel(params: CannyParams) -> np.ndarray:
    """Normalized 1-D Gaussian taps for ``params.sigma``, radius ceil(3*sigma)."""
    sigma = params.sigma
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets * offsets) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _correlate(window, kernel: np.ndarray, out: np.ndarray, tmp: np.ndarray):
    """Set ``out`` to the sum of kernel[t] * window(t), adding the taps in order."""
    # the first product is stored as is: it equals 0.0 plus itself
    np.multiply(window(0), kernel[0], out=out)
    for tap in range(1, len(kernel)):
        np.multiply(window(tap), kernel[tap], out=tmp)
        out += tmp


def smooth(gray: GrayImage, params: CannyParams) -> GrayImage:
    """Separable Gaussian blur: horizontal pass, vertical pass, round to 8 bits.

    Borders clamp to the edge and each pass adds its taps in kernel order, so
    every output pixel is one fixed float64 expression. ``rows`` holds the
    horizontal sums a block's vertical pass reads; the last 2*radius of them
    carry over to the next block.
    """
    kernel = gaussian_kernel(params)
    span, width = len(kernel) - 1, gray.width
    padded = np.pad(gray.values, span // 2, mode="edge")
    source = np.empty((_BLOCK_ROWS + span, width + span))
    rows, tmp = np.empty((2, _BLOCK_ROWS + span, width))
    acc = np.empty((_BLOCK_ROWS, width))
    out = np.empty((gray.height, width), dtype=np.uint8)
    for y0, y1 in _row_blocks(gray.height):
        n, done = y1 - y0, span if y0 else 0
        rows[:done] = rows[_BLOCK_ROWS : _BLOCK_ROWS + done]  # overlap with the full block before
        src = source[: n + span - done]
        src[...] = padded[y0 + done : y1 + span]
        _correlate(lambda t: src[:, t : t + width], kernel, rows[done : n + span], tmp[: len(src)])
        block = acc[:n]
        _correlate(lambda t: rows[t : t + n], kernel, block, tmp[:n])
        # taps > 0 summing to 1 keep this in [0.5, 255.5 + 1e-12]: the cast rounds, no clip
        np.add(block, 0.5, out=out[y0:y1], casting="unsafe")
    return GrayImage(out)


def _sobel(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer Sobel (gx, gy) of the interior rows of an edge-padded window.

    gx grows with intensity increasing rightward, gy with intensity
    increasing upward.
    """
    dx = window[:, 2:] - window[:, :-2]
    sy = window[:, :-2] + 2 * window[:, 1:-1] + window[:, 2:]
    return dx[:-2] + 2 * dx[1:-1] + dx[2:], sy[:-2] - sy[2:]


def _direction_bins(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """The nearest of 0/45/90/135 degrees to the direction of (gx, gy), exactly.

    With x = |gx| and y = |gy|, the direction is within 22.5 degrees of the
    horizontal when y < (sqrt(2) - 1) x, that is (x + y)**2 < 2 x**2, and of
    the vertical when (x + y)**2 < 2 y**2. No nonzero integer pair lies on
    these irrational bounds; (0, 0) meets the first with equality and bins
    to 0. Otherwise neither is 0, and whether their signs differ picks the
    diagonal.
    """
    s = np.abs(gx)
    s += np.abs(gy)
    s *= s
    bins = 45 + 90 * ((gx ^ gy) < 0).view(np.uint8)  # 135 where the signs differ, else 45
    bins -= (s < 2 * gy * gy) * (bins - 90)  # the uint8 difference wraps, so this sets 90
    bins *= s > 2 * gx * gx  # and this sets 0
    return bins


def gradients(smoothed: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """Sobel magnitude rescaled to 0..255 plus the quantized gradient direction.

    Returns uint8 (magnitude, direction); ``direction`` holds the bin angle in
    degrees, the nearest of 0/45/90/135 (boundaries at odd multiples of 22.5).
    Magnitudes are rounded, then rescaled against the image maximum so the
    two thresholds live on a fixed 0..255 scale.
    """
    padded = np.pad(smoothed.values, 1, mode="edge")
    raw = np.empty(smoothed.values.shape, dtype=np.uint16)  # at most sqrt(2) * 1020
    direction = np.empty_like(smoothed.values)
    root = np.empty((_BLOCK_ROWS, smoothed.width))
    for y0, y1 in _row_blocks(smoothed.height):
        gx, gy = _sobel(padded[y0 : y1 + 2].astype(np.int32))
        # gx**2 + gy**2 <= 2 * 1020**2 is exact in int32 and float64
        block = np.sqrt(gx * gx + gy * gy, out=root[: y1 - y0])
        block += 0.5
        raw[y0:y1] = block  # the cast truncates: round half up
        direction[y0:y1] = _direction_bins(gx, gy)

    # round-half-up of 255*raw/peak in integer arithmetic; 510 * 1443 + 1443
    # fits in uint32, and a flat image (peak 0) maps to all zeros
    peak = max(int(raw.max()), 1)
    magnitude = np.empty_like(smoothed.values)
    acc = np.empty((_BLOCK_ROWS, smoothed.width), dtype=np.uint32)
    for y0, y1 in _row_blocks(smoothed.height):
        scaled = np.multiply(raw[y0:y1], 510, out=acc[: y1 - y0], dtype=np.uint32)
        scaled += peak
        np.floor_divide(scaled, 2 * peak, out=magnitude[y0:y1], casting="unsafe")  # at most 255
    return magnitude, direction


def non_max_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Zero every pixel that is not >= both neighbors along its direction bin.

    Out-of-bounds neighbors count as magnitude 0, so border pixels can survive.
    """
    p = np.pad(magnitude, 1)  # zeros
    width = magnitude.shape[1]
    out = np.empty_like(magnitude)
    for y0, y1 in _row_blocks(magnitude.shape[0]):
        m, d = magnitude[y0:y1], direction[y0:y1]
        keep = np.zeros(m.shape, dtype=bool)
        # each bin's two neighbors as (row, column) offsets into the padded copy
        for angle, (r0, c0), (r1, c1) in ((0, (1, 0), (1, 2)), (45, (0, 2), (2, 0)),
                                          (90, (0, 1), (2, 1)), (135, (0, 0), (2, 2))):
            keep |= ((d == angle) & (m >= p[y0 + r0 : y1 + r0, c0 : c0 + width])
                     & (m >= p[y0 + r1 : y1 + r1, c1 : c1 + width]))
        np.multiply(m, keep, out=out[y0:y1])
    return out


def hysteresis(thinned: np.ndarray, params: CannyParams) -> EdgeMap:
    """Double thresholding plus 8-connected edge linking.

    Strong pixels (magnitude >= high) are always edges; weak pixels
    (low <= magnitude < high) are edges only when reachable from a strong
    pixel through a chain of 8-connected weak/strong pixels. The first strong
    pixel on such a chain ends a run of weak ones, so a weak pixel is an edge
    exactly when its weak-only component touches a strong pixel: only the
    weak pixels are labelled, and the strong mask is the output as it is.
    Reachability is order-independent, so so is the result.
    """
    from scipy import ndimage  # here, so commands that detect nothing skip its ~0.3 s import

    weak = thinned >= params.low_threshold
    weak ^= thinned >= params.high_threshold
    holds = weak.any(axis=1)
    # each row holding a weak pixel and the row after it: where two kept rows
    # meet that were not adjacent, the first is blank, so the compacted copy
    # joins and splits no component
    rows = np.flatnonzero(holds | np.r_[False, holds[:-1]])
    compact = weak[rows]
    del weak  # the int32 labels are the peak; no full-size mask is held beside them
    labels, n_components = ndimage.label(compact, np.ones((3, 3), bool))
    del compact

    edges = thinned >= params.high_threshold
    last = len(edges) - 1
    keep = np.zeros(n_components + 1, dtype=bool)
    for i0, i1 in _row_blocks(len(rows)):
        r, block = rows[i0:i1], labels[i0:i1]
        # a strong pixel in the 3x3 window of each kept pixel: the rows above
        # and below (clipped at the border), then one column either way
        near = edges[np.maximum(r - 1, 0)] | edges[r] | edges[np.minimum(r + 1, last)]
        touch = near.copy()
        touch[:, 1:] |= near[:, :-1]
        touch[:, :-1] |= near[:, 1:]
        touch &= block != 0
        keep[block[touch]] = True
    # only now, with every seed found, may weak pixels join the strong mask
    linked = np.empty((_BLOCK_ROWS, edges.shape[1]), dtype=bool)
    for i0, i1 in _row_blocks(len(rows)):
        edges[rows[i0:i1]] |= np.take(keep, labels[i0:i1], out=linked[: i1 - i0])
    return EdgeMap(edges)


def detect_edges(image: RgbImage, params: CannyParams) -> EdgeMap:
    """Run the full five-stage detector on the masked grayscale projection.

    Pure and deterministic: equal image/params give bit-identical edge maps,
    and images differing only in channel bits 0..2 give the same map.
    """
    check_min_size(image)
    # nested calls: no stage's input outlives the stage that reads it
    thinned = non_max_suppression(*gradients(smooth(to_masked_gray(image), params)))
    return hysteresis(thinned, params)
