"""Deterministic five-stage Canny edge detector over a masked grayscale projection.

The detector is the shared secret between the two communicating parties, so
every stage is pinned down exactly. The Gaussian taps are a table of
float64 literals, so no machine's ``exp`` computes them; floating point
appears only in the smoothing sums (taps added in a fixed order) and one
correctly rounded IEEE square root per pixel, and IEEE fixes both. The gray
projection is integer arithmetic, directions are binned by integer tests
and every stage rounds back to integers. The gray projection zeroes the
three LSBs of every channel first, so the whole pipeline is invariant under
any payload written into those bits. Every stage works on blocks of
``_BLOCK_ROWS`` rows, gathers included, so its temporaries stay in cache; no
value depends on blocking. On images of two bands' worth of pixels or more
(``_BAND_MIN_PIXELS`` each, so 2048 x 2048 and up), the masked gray, the
smoothing and the Sobel pass split the rows into one band of whole blocks per
CPU and run the bands on threads that live for the call only. Each pixel is
still the same expression of the same inputs, so banding cannot change a bit.
The gradient rescale waits for the global peak and non-maximum suppression
measured slower in bands, so both stay on one thread. Only the hysteresis
labelling spans the image, and it labels just the weak pixels, in a copy of
the rows that hold them: strong pixels are edges whatever their neighbours,
so they need no label.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmall, ParamOutOfRange
from .image import EdgeMap, GrayImage, RgbImage

# A float64 block 2048 pixels wide is 512 KiB: it and its temporaries fit in L2.
_BLOCK_ROWS = 32
# Pixels per band of a parallel stage. Below two bands' worth a stage runs on
# one thread: there the hand-offs of the interpreter lock between short numpy
# calls cost more than a second core saves (slower at 512 x 512, no faster at
# 1024 x 1024).
_BAND_MIN_PIXELS = 2**21


@dataclass(frozen=True)
class CannyParams:
    """The three shared detector parameters.

    ``sigma_tenths`` stores the Gaussian standard deviation in tenths
    (10..30, i.e. 1.0..3.0) so it survives an 8-bit header field losslessly;
    a value is in range when the tap table has a row for it.
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
        if self.sigma_tenths not in _KERNELS:
            # in tenths, not sigma: a CLI value too large for a float still formats
            raise ParamOutOfRange(f"sigma must be 1.0..3.0, got {self.sigma_tenths} tenths")
        for name, value in (("low", self.low_threshold), ("high", self.high_threshold)):
            if not 0 <= value <= 255:
                raise ParamOutOfRange(f"{name} threshold must be 0..255, got {value}")
        if self.low_threshold > self.high_threshold:
            raise ParamOutOfRange(
                f"low threshold {self.low_threshold} exceeds high {self.high_threshold}"
            )


def check_min_size(image: RgbImage):
    """Raise ImageTooSmall unless ``image`` covers the 3x3 Sobel window."""
    if image.width < 3 or image.height < 3:
        raise ImageTooSmall(f"need at least 3x3 pixels, got {image.width}x{image.height}")


def _row_blocks(start: int, end: int):
    for y0 in range(start, end, _BLOCK_ROWS):
        yield y0, min(y0 + _BLOCK_ROWS, end)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_bands(height: int, width: int, work):
    """Call ``work(y0, y1)`` on row bands that cover rows 0..height once each.

    There is one band per ``_BAND_MIN_PIXELS`` pixels, at most one per CPU,
    each of whole row blocks (so a band may be empty, and the last may end
    part-way into a block). Band 0 runs on the calling thread and the others on
    threads that live for this call only; numpy releases the interpreter lock
    inside its loops, so the bands overlap. Every band is joined before this
    returns, and an exception in any band is raised here. With fewer than two
    bands this is just ``work(0, height)``.
    """
    bands = min(_cpu_count(), height * width // _BAND_MIN_PIXELS)
    if bands < 2:
        work(0, height)
        return
    from concurrent.futures import ThreadPoolExecutor  # here, so one band skips its ~6 ms import

    blocks = -(-height // _BLOCK_ROWS)
    cuts = [min(blocks * i // bands * _BLOCK_ROWS, height) for i in range(bands + 1)]
    with ThreadPoolExecutor(bands - 1) as pool:
        others = [pool.submit(work, y0, y1) for y0, y1 in zip(cuts[1:-1], cuts[2:])]
        work(cuts[0], cuts[1])
        for band in others:
            band.result()


def to_masked_gray(image: RgbImage) -> GrayImage:
    """Project to 8-bit grayscale after zeroing the three LSBs of each channel.

    The masking makes the result (and therefore the whole detector) identical
    for any two images that differ only in channel bits 0..2. The projection
    is 0.299/0.587/0.114 luminance rounded half up, computed exactly in
    integers as (299r + 587g + 114b + 500) // 1000 of the masked channels.
    """
    gray = np.empty((image.height, image.width), dtype=np.uint8)

    def band(b0: int, b1: int):
        for y0, y1 in _row_blocks(b0, b1):
            block = image.pixels[y0:y1] & 0xF8
            # one channel at a time, so the only temporaries are 2-D; the products are
            # uint32 only under numpy 2's NEP 50 (numpy 1 picks uint16/uint8 and wraps)
            luma = block[..., 0] * np.uint32(299)
            luma += block[..., 1] * np.uint32(587)
            luma += block[..., 2] * np.uint32(114)
            luma += 500
            np.floor_divide(luma, 1000, out=gray[y0:y1], casting="unsafe")  # at most 248

    _in_bands(image.height, image.width, band)
    return GrayImage(gray)


# Gaussian taps for sigma = tenths / 10, one row per tenths 10..30, centre tap
# to edge: exp(-i*i / (2 sigma**2)) for i = 0..ceil(3 sigma), divided by the sum
# over -i..i. Frozen float64 literals, each within 2 ulp of the exact value, so
# no machine's exp can move a tap and the same input smooths to the same bits.
_HALF_TAPS = (
    (0.3990502796524549, 0.2420362293761143, 0.054005582622414484, 0.004433048175243745),
    (0.36268347332772005, 0.2399204329681059, 0.0694521424534871, 0.008797980575629662,
     0.00048770733891729563),
    (0.33249028418018045, 0.2349536867203472, 0.08290718675731891, 0.014608603546452456,
     0.0012853808857911967),
    (0.30699881906938903, 0.22837429159016912, 0.0940110142461853, 0.02141565094755336,
     0.002699633681397729),
    (0.2849760705485449, 0.22081012579708598, 0.10271899443251963, 0.02868822748372571,
     0.004810363056036814, 0.0004842539563594202),
    (0.26601172486179436, 0.2130055377112537, 0.10936068950970002, 0.03600077212843083,
     0.007598758135239185, 0.00102838008447911),
    (0.24945803257588858, 0.2051985803570411, 0.11421020967515194, 0.04301195907007541,
     0.010960421019112626, 0.0018898135906746211),
    (0.23469665680137547, 0.1974101368631048, 0.11747814728124147, 0.04946178902503965,
     0.014733558280827428, 0.0031050640482329244, 0.00046297610086593646),
    (0.22169113178718836, 0.18998861080038915, 0.11958186077401543, 0.05527917337747408,
     0.018767925312555583, 0.004679823630853062, 0.0008570402111186117),
    (0.21008294019197235, 0.18291073572523153, 0.12072144515752953, 0.0603985446781076,
     0.02290684843262855, 0.006585686144855383, 0.0014352697656612508),
    (0.19967562749792112, 0.17621312278855084, 0.12110939007484814, 0.06482518513852684,
     0.027023157602879527, 0.008773134791588384, 0.0022181958546457657),
    (0.19003183268508828, 0.1696627959160294, 0.12074451406732604, 0.06849655385453118,
     0.030973519868465443, 0.011164336741679041, 0.0032077153203065177, 0.0007346478891182097),
    (0.1814435879703514, 0.16363511003981868, 0.12002759261599401, 0.07160699245591823,
     0.03474557526254261, 0.01371239498475957, 0.004401460998178034, 0.0011490796576132387),
    (0.1736292736973705, 0.1579698918389516, 0.11896752796737847, 0.07416266004326454,
     0.0382688052777785, 0.016345840396847527, 0.005779261535303077, 0.0016913760917909968),
    (0.16628594893831125, 0.15246016286707337, 0.11750567944919378, 0.07613125501781004,
     0.04146376865639661, 0.018983496595678547, 0.007306094701007896, 0.002363720044772222,
     0.0006428481989119644),
    (0.15967594196360177, 0.14739947215128454, 0.11594853150070399, 0.07772262497331667,
     0.04439586785088073, 0.021609788831716978, 0.008963371132443686, 0.003168145492896394,
     0.0009542270849561244),
    (0.15359356446603717, 0.14264305983654388, 0.1142571869952764, 0.07893537253238435,
     0.04703433980922035, 0.02417206181497608, 0.010714393541858302, 0.004096158432499744,
     0.001350644804222284),
    (0.14781586425264032, 0.13801746471764745, 0.11234999073909038, 0.07973298686669211,
     0.04933203408885688, 0.026610069534831908, 0.012513793754129459, 0.005130479697603441,
     0.001833804148280367, 0.0005714443265478613),
    (0.1425717110932294, 0.1337630028560267, 0.11046989805496328, 0.08030770082450363,
     0.05138965798016195, 0.028946733169567734, 0.014352537294494845, 0.006264163806878836,
     0.002406593966148455, 0.0008138565006398492),
    (0.13770324597111422, 0.12975498562030818, 0.10855846218104424, 0.0806423293173764,
     0.053189045556742406, 0.031148783005184314, 0.016196445789615082, 0.007477529114320243,
     0.0030651819258588776, 0.0011156145039930713),
    (0.13317599601553648, 0.12597909446198638, 0.10663900118033985, 0.08077532472119038,
     0.05475028876252327, 0.03320772876259042, 0.018023411141080633, 0.008753462265142137,
     0.003804239018665085, 0.001479451678713566),
)
_KERNELS = {tenths: np.array(h[:0:-1] + h) for tenths, h in enumerate(_HALF_TAPS, 10)}


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
    carry over to the next block of the same band, and a band's first block
    computes its own.
    """
    kernel = _KERNELS[params.sigma_tenths]
    span, width = len(kernel) - 1, gray.width
    padded = np.pad(gray.values, span // 2, mode="edge")
    out = np.empty((gray.height, width), dtype=np.uint8)

    def band(b0: int, b1: int):
        source = np.empty((_BLOCK_ROWS + span, width + span))
        rows, tmp = np.empty((2, _BLOCK_ROWS + span, width))
        acc = np.empty((_BLOCK_ROWS, width))
        for y0, y1 in _row_blocks(b0, b1):
            n, done = y1 - y0, span if y0 > b0 else 0
            # overlap with the full block before
            rows[:done] = rows[_BLOCK_ROWS : _BLOCK_ROWS + done]
            src = source[: n + span - done]
            src[...] = padded[y0 + done : y1 + span]
            _correlate(lambda t: src[:, t : t + width], kernel, rows[done : n + span],
                       tmp[: len(src)])
            block = acc[:n]
            _correlate(lambda t: rows[t : t + n], kernel, block, tmp[:n])
            # taps > 0 summing to 1 keep this in [0.5, 255.5 + 1e-12]: the cast rounds, no clip
            np.add(block, 0.5, out=out[y0:y1], casting="unsafe")

    _in_bands(gray.height, width, band)
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

    def band(b0: int, b1: int):
        root = np.empty((_BLOCK_ROWS, smoothed.width))
        for y0, y1 in _row_blocks(b0, b1):
            gx, gy = _sobel(padded[y0 : y1 + 2].astype(np.int32))
            # gx**2 + gy**2 <= 2 * 1020**2 is exact in int32 and float64
            block = np.sqrt(gx * gx + gy * gy, out=root[: y1 - y0])
            block += 0.5
            raw[y0:y1] = block  # the cast truncates: round half up
            direction[y0:y1] = _direction_bins(gx, gy)

    _in_bands(smoothed.height, smoothed.width, band)

    # round-half-up of 255*raw/peak in integer arithmetic; 510 * 1443 + 1443
    # fits in uint32, and a flat image (peak 0) maps to all zeros
    peak = max(int(raw.max()), 1)
    magnitude = np.empty_like(smoothed.values)
    acc = np.empty((_BLOCK_ROWS, smoothed.width), dtype=np.uint32)
    for y0, y1 in _row_blocks(0, smoothed.height):
        scaled = np.multiply(raw[y0:y1], 510, out=acc[: y1 - y0], dtype=np.uint32)
        scaled += peak
        np.floor_divide(scaled, 2 * peak, out=magnitude[y0:y1], casting="unsafe")  # at most 255
    return magnitude, direction


def non_max_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Zero every pixel that is below the larger neighbor along its direction bin.

    Out-of-bounds neighbors count as magnitude 0, so border pixels can survive.
    """
    p = np.pad(magnitude, 1)  # zeros
    width = magnitude.shape[1]
    out = np.empty_like(magnitude)
    for y0, y1 in _row_blocks(0, magnitude.shape[0]):
        m, d = magnitude[y0:y1], direction[y0:y1]
        keep = np.zeros(m.shape, dtype=bool)
        # each bin's two neighbors as (row, column) offsets into the padded copy
        for angle, (r0, c0), (r1, c1) in ((0, (1, 0), (1, 2)), (45, (0, 2), (2, 0)),
                                          (90, (0, 1), (2, 1)), (135, (0, 0), (2, 2))):
            keep |= (d == angle) & (m >= np.maximum(p[y0 + r0 : y1 + r0, c0 : c0 + width],
                                                    p[y0 + r1 : y1 + r1, c1 : c1 + width]))
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
    for i0, i1 in _row_blocks(0, len(rows)):
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
    for i0, i1 in _row_blocks(0, len(rows)):
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
