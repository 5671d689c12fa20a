"""Deterministic five-stage Canny edge detector over a masked grayscale projection.

The detector is the shared secret between the two communicating parties, so
every stage is pinned down exactly: equal images and parameters give the same
edge map bit for bit on any machine, whatever SIMD and BLAS kernels numpy
uses. The Gaussian taps are frozen float64 literals, and each stage's
docstring shows why its arithmetic cannot move a bit. The gray projection
zeroes the three LSBs of every channel first, so the whole pipeline is
invariant under any payload written into those bits. The smoothing, Sobel and
non-maximum suppression each write their output over the array they consume,
in any memory layout but not read-only, so a caller who needs a stage's input
passes a copy. Every stage runs on the calling thread.

Given how many edge pixels below row 0 a caller reads, top to bottom as the
codec reads carriers, ``detect_edges`` stops NMS and hysteresis at a row that
no weak component crosses, once the strong pixels above it are enough: the
rows returned equal the whole map's (``detect_edges`` states the rule).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .carrier import RESERVED_ROWS
from .errors import ImageTooSmall, ParamOutOfRange
from .image import EdgeMap, GrayImage, RgbImage

# The smoothing multiplies each block of _BLOCK_ROWS rows by one band of the
# taps and by its transpose, on tiles of as many columns as the block has rows:
# its work grows with the block height (64 and 128 rows ran slower, and 16, 48
# and 64 columns no faster). Each product is then at most 50 x 50 x 32, below
# OpenBLAS's threading threshold, so it runs on the calling thread like every
# other stage. Sobel and NMS pay per numpy call, so take _BLOCK_PIXELS // width
# rows, at least _BLOCK_ROWS; Sobel at most 2 * _BLOCK_ROWS, lest it set the
# 512 x 512 peak.
_BLOCK_ROWS = 32
_BLOCK_PIXELS = 2**16
# The hysteresis labelling scans an eighth of the rows at a time: few enough
# blocks that their per-call overhead stays small on 512 x 512 covers, small
# enough that their temporaries stay a small share of the image. A block holds
# at least _BLOCK_ROWS rows and, above that, at most _LABEL_BLOCK_PIXELS
# pixels, so its masks stay in L2 on large covers (16 blocks at 2048 x 2048
# measured 1 ms faster than 8).
_LABEL_BLOCKS = 8
_LABEL_BLOCK_PIXELS = 2**18
# smooth recomputes its near ties in float64 _TIE_CHUNK pixels at a time: at
# sigma 3.0 a chunk's windows and sums take about 1.5 MB.
_TIE_CHUNK = 2048
# The masked gray's weights (to_masked_gray): 2 * (299, 587, 114) / 8, exact in float32.
_LUMA = np.array([74.75, 146.75, 28.5], dtype=np.float32)


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


def _row_blocks(end: int, rows: int):
    for y0 in range(0, end, rows):
        yield y0, min(y0 + rows, end)


def to_masked_gray(image: RgbImage) -> GrayImage:
    """Project to 8-bit grayscale after zeroing the three LSBs of each channel.

    The masking makes the result (and therefore the whole detector) identical
    for any two images that differ only in channel bits 0..2. The projection
    is 0.299/0.587/0.114 luminance rounded half up, defined in integers as
    (299r + 587g + 114b + 500) // 1000 of the masked channels, which is
    (L + 125) // 250 with L = (598r + 1174g + 228b) / 8. float32 evaluates
    it exactly: the weights divided by 8 are exact binary fractions, so every
    product and partial sum of L is an integer of at most 248 * 250 = 62000 <
    2**24, exact in any order, with or without FMA, and so is L + 125.5. The
    true (L + 125.5) / 250, at most 248.5, lies at least 0.002 from an
    integer, and its product with the float32 1/250 errs by under 3e-5, so
    the cast's truncation floors it to (L + 125) // 250.
    """
    gray = np.empty((image.height, image.width), dtype=np.uint8)
    masked = np.empty((_BLOCK_ROWS, image.width, 3), dtype=np.float32)
    luma = np.empty((_BLOCK_ROWS, image.width), dtype=np.float32)
    for y0, y1 in _row_blocks(image.height, _BLOCK_ROWS):
        n = y1 - y0
        block = np.bitwise_and(image.pixels[y0:y1], 0xF8, out=masked[:n], casting="unsafe")
        block = np.matmul(block, _LUMA, out=luma[:n])
        block += 125.5
        block *= np.float32(1 / 250)
        gray[y0:y1] = block  # at most 248; the cast truncates
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


def _fix_ties(padded: np.ndarray, kernel: np.ndarray, ties: np.ndarray, out: np.ndarray):
    """Set the pixels at row-major indices ``ties`` of ``out`` to the float64 smoothing.

    Each pixel's window of the edge-padded gray is gathered, summed along its
    rows and then down the row sums, both in tap order, plus 0.5 and
    truncated: the same float64 expression as ``smooth``'s definition.
    ``out`` is indexed by (row, column), so any strides take the writes.
    """
    span, width = len(kernel) - 1, out.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(padded, (span + 1, span + 1))
    for i in range(0, len(ties), _TIE_CHUNK):
        at = np.divmod(ties[i : i + _TIE_CHUNK], width)
        window = windows[at]  # uint8, one square per pixel
        # the first product is kept as is: it equals 0.0 plus itself
        rows = window[:, :, 0] * kernel[0]
        for t in range(1, span + 1):
            rows += window[:, :, t] * kernel[t]
        sums = rows[:, 0] * kernel[0]
        for t in range(1, span + 1):
            sums += rows[:, t] * kernel[t]
        sums += 0.5
        out[at] = sums  # the cast truncates: round half up


def smooth(gray: GrayImage, params: CannyParams) -> GrayImage:
    """Separable Gaussian blur: horizontal pass, vertical pass, round to 8 bits.

    Borders clamp to the edge and each pass adds its taps in kernel order in
    float64, then 0.5 is added and the sum truncated: that fixed expression
    per pixel is the definition. float32 evaluates it, and only the pixels it
    cannot settle get the float64 expression itself (``_fix_ties``): a
    floating-point filter in the sense of Shewchuk (Adaptive Precision
    Floating-Point Arithmetic and Fast Robust Geometric Predicates, DCG 1997).

    Both float32 passes are products with one ``band``, the
    (``_BLOCK_ROWS`` + 2r) x ``_BLOCK_ROWS`` matrix whose column i holds the
    taps from row i on, run by numpy's BLAS on tiles as wide as a block is
    high: the horizontal pass multiplies each tile of a block's rows by
    ``band``, the vertical pass ``band.T`` by each tile of row sums. The
    sgemm kernel may add its products in any order, in any tree, with or
    without FMA. Its bound holds for all of them:

    1. A product with a zero tap is exactly 0, and adding 0, or an FMA whose
       product is 0, is exact. So every output sums the K = 2r + 1
       non-negative products of a tap and a value in 0..255, taps summing to
       1, in a tree where at most K - 1 additions round. This needs every
       value a zero tap meets to be finite (0 * NaN is NaN), so the spare
       columns of ``source`` past the padded image are zeros.
    2. Every partial sum is below 256, so each such addition rounds by at
       most 2**-17, and the float32 taps and products by 2**-24 relative
       each, over a sum of at most 255: a pass errs by at most
       (K - 1) * 2**-17 + 510 * 2**-24 against exact arithmetic on the
       float64 taps, both passes by twice that (the vertical taps sum to 1
       and carry the horizontal error through).
    3. Adding the float32 offset costs 2**-17 more, and a factor 1 + 2**-10
       covers second-order terms, the float64 sums' own error (about 1e-12)
       and the offset's rounding. So ``tie``, 1.60e-4 at sigma 1.0 to
       3.43e-4 at 3.0, bounds the distance between the float32 and float64
       values. With ``tie`` added to the 0.5, a float32 value whose fraction
       is at least 2 ``tie`` truncates as the float64 one does; the rest,
       about 0.03% of the pixels of smooth or noisy covers at sigma 1.0 and
       0.07% at 3.0, are recomputed.

    So the result depends on that bound alone, not on the kernels numpy and
    OpenBLAS pick for the CPU. Columns alternating between two adjacent levels
    put every pixel near a tie at sigma 2.9 (none at 3.0): at 2048 x 2048
    they take over 100 times as long to smooth as a photo-like cover.

    ``rows`` holds the horizontal sums a block's vertical pass reads; the
    last 2*radius of them carry over to the next block, and the first block
    computes its own. Ties are fixed once ``_TIE_CHUNK`` of them are found
    and after the last block. The result is written over ``gray.values`` and
    ``gray`` returned: once the padded copy is made, only it is read.
    """
    kernel, tile = _KERNELS[params.sigma_tenths], _BLOCK_ROWS
    span, width = len(kernel) - 1, gray.width
    tie = 2 * (span * 2.0**-17 + 510 * 2.0**-24) * (1 + 2.0**-10) + 2.0**-17
    cols = -(-width // tile) * tile
    band = np.zeros((tile + span, tile), dtype=np.float32)
    i = np.arange(tile)
    band[i + np.arange(span + 1)[:, None], i] = kernel[:, None]
    padded = np.pad(gray.values, span // 2, mode="edge")
    out = gray.values

    source = np.zeros((tile + span, cols + span), dtype=np.float32)
    rows = np.empty((tile + span, cols), dtype=np.float32)
    acc = np.empty((tile, cols), dtype=np.float32)
    # the same buffers as stacks of tiles, made once: a view per block
    # would leave a few KB of freed Python objects on the free lists
    windows = np.lib.stride_tricks.sliding_window_view(source, tile + span, axis=1)
    windows = windows[:, ::tile].swapaxes(0, 1)
    row_tiles, acc_tiles = (a.reshape(len(a), -1, tile).swapaxes(0, 1) for a in (rows, acc))
    ties = []
    for y0, y1 in _row_blocks(gray.height, tile):
        n, done = y1 - y0, span if y0 else 0
        # overlap with the full block before
        rows[:done] = rows[tile : tile + done]
        m = n + span - done
        source[:m, : width + span] = padded[y0 + done : y1 + span]
        np.matmul(windows[:, :m], band, out=row_tiles[:, done : n + span])
        np.matmul(band.T[:n, : n + span], row_tiles[:, : n + span], out=acc_tiles[:, :n])
        block = acc[:n, :width]
        # taps > 0 summing to 1 keep this in [0.5, 255.6]: the cast truncates, no clip
        block += 0.5 + tie
        out[y0:y1] = block
        block -= out[y0:y1]  # the fraction, exactly
        ties.append(np.flatnonzero(block < 2 * tie) + y0 * width)
        # fixed a chunk's worth at a time, so the indices kept stay few
        if sum(map(len, ties)) >= _TIE_CHUNK or y1 == gray.height:
            _fix_ties(padded, kernel, np.concatenate(ties), out)
            ties = []
    return gray


def _sobel(window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer Sobel (gx, gy) of the interior rows of an edge-padded window.

    gx grows with intensity increasing rightward, gy with intensity
    increasing upward.
    """
    dx = window[:, 2:] - window[:, :-2]
    sy = window[:, :-2] + 2 * window[:, 1:-1] + window[:, 2:]
    return dx[:-2] + 2 * dx[1:-1] + dx[2:], sy[:-2] - sy[2:]


def _direction_bins(gx: np.ndarray, gy: np.ndarray, squares: np.ndarray,
                    ratio: np.ndarray) -> np.ndarray:
    """The nearest of 0/45/90/135 degrees to the direction of (gx, gy), exactly.

    Writes gx**2 + gy**2 into the float32 ``squares`` and r = gy**2 / that
    into the float32 ``ratio``. The direction is within 22.5 degrees of the
    vertical when r > cos(22.5)**2, of the horizontal unless r > sin(22.5)**2,
    else on the diagonal the signs of gx and gy pick. The squares and their
    sum are integers below 2**24, exact in float32, and the division is
    correctly rounded, so with the constants in float32 the tests are exact:
    for |gx|, |gy| <= 1020, not both 0, r lies at least 2.58e-7 relatively
    from either (closest at 408, 985), and the two roundings move it by at
    most 1.1e-7. At (0, 0) r is NaN (0 / 0), which meets neither test: bin 0.
    """
    cos2, sin2 = np.float32((2 + np.sqrt(2)) / 4), np.float32((2 - np.sqrt(2)) / 4)
    np.square(gx, out=squares, dtype=np.float32)  # casts faster than np.multiply(gx, gx)
    squares += np.square(gy, out=ratio, dtype=np.float32)
    with np.errstate(invalid="ignore"):
        ratio /= squares
    bins = 45 + 90 * ((gx ^ gy) < 0).view(np.uint8)  # 135 where the signs differ, else 45
    bins -= (ratio > cos2) * (bins - 90)  # the uint8 difference wraps: 90
    bins *= ratio > sin2  # and this sets 0
    return bins


def gradients(smoothed: GrayImage) -> tuple[list[np.ndarray], np.ndarray]:
    """Rounded Sobel magnitude plus the quantized gradient direction.

    Returns (raw, direction): ``raw`` is the round-half-up
    sqrt(gx**2 + gy**2), at most sqrt(2) * 1020 = 1443, as a top-to-bottom
    list of one array per row block, each in the narrowest unsigned type that
    holds its values (uint8 when every value is below 256, else uint16),
    which ``non_max_suppression`` rescales against the image maximum;
    ``direction`` is uint8 and holds the bin angle in degrees, the nearest of
    0/45/90/135 (boundaries at odd multiples of 22.5). Each block's Sobel
    reads an edge-clamped int16 window of its rows and the row either side.
    The directions are written over ``smoothed.values``: a block reads its
    row above from the window before it, never from a row already
    overwritten.

    The rounding is in float32: gx**2 + gy**2 <= 2 * 1020**2 < 2**24 is exact
    there, and for every integer in that range the correctly rounded root
    plus 0.5 truncates as the float64 form does (a test checks all).
    """
    values = smoothed.values
    raw, direction = [], values
    rows = min(2 * _BLOCK_ROWS, max(_BLOCK_ROWS, _BLOCK_PIXELS // smoothed.width))

    # |gx|, |gy| <= 4 * 255 and every Sobel partial sum fit int16
    frame = np.empty((rows + 2, smoothed.width + 2), dtype=np.int16)
    root = np.empty((rows, smoothed.width), dtype=np.float32)
    ratio = np.empty((rows, smoothed.width), dtype=np.float32)
    for y0, y1 in _row_blocks(smoothed.height, rows):
        # rows y0-1..y1 and the columns either side, clamped to the image
        n = y1 - y0
        window = frame[: n + 2]
        # every block but the last has ``rows`` rows, so frame[rows] is row y0-1
        window[0, 1:-1] = frame[rows, 1:-1] if y0 else values[0]
        window[1 : n + 1, 1:-1] = values[y0:y1]
        window[n + 1, 1:-1] = values[min(y1, smoothed.height - 1)]
        window[:, 0] = window[:, 1]
        window[:, -1] = window[:, -2]
        gx, gy = _sobel(window)
        block = root[:n]
        direction[y0:y1] = _direction_bins(gx, gy, block, ratio[:n])
        np.sqrt(block, out=block)
        block += 0.5
        # the cast truncates: round half up
        raw.append(block.astype(np.uint8 if block.max() < 256 else np.uint16))
        del gx, gy  # so the next block's Sobel never runs beside them
    return raw, direction


def _cut(thinned: np.ndarray, y0: int, params: CannyParams, need: int):
    """The stop rule on the thinned rows of one block from row ``y0``: (need left, cut).

    The strong pixels below row 0 count ``need`` down; from the row where it
    reaches 0, the first row with no weak pixel is the cut, or None.
    """
    low, high, r = params.low_threshold, params.high_threshold, 0
    if need > 0:
        strong = thinned >= high
        strong[: max(RESERVED_ROWS - y0, 0)] = False
        count = np.count_nonzero(strong)  # by row only in the block that meets need
        if count < need:
            return need - count, None
        r = int(np.searchsorted(np.cumsum(np.count_nonzero(strong, axis=1)), need))
    # low <= v < high as one uint8 difference: values below low wrap past 255 - low
    weak = thinned[r:] - np.uint8(low) < high - low
    free = np.flatnonzero(~weak.any(axis=1))
    return 0, (y0 + r + int(free[0]) if free.size else None)


def non_max_suppression(raw: list[np.ndarray], direction: np.ndarray,
                        params: CannyParams | None = None, need: int | None = None) -> np.ndarray:
    """Rescale ``raw`` to 0..255, then zero each pixel below a neighbor along its bin.

    ``raw`` holds the magnitudes as ``gradients`` returns them, a top-to-bottom
    list of row blocks of any heights and unsigned types; a bare array is
    rejected. The magnitude is round-half-up 255 * raw / peak against the
    image maximum, the largest block maximum, so the two thresholds live on
    a fixed 0..255 scale; a flat image (peak 0) maps to all zeros.
    Out-of-bounds neighbors count as magnitude 0, so border pixels can
    survive. A few consecutive blocks of ``raw`` at a time are rescaled,
    with the first row after them, into a zero-bordered window, reused from
    group to group, that carries the row above from the group before. The
    result is written over ``direction``, a writable uint8 array of the
    image's shape as ``gradients`` returns it: a group's rows are written
    only once their comparisons are done.

    Given ``need`` and ``params``, the groups stop at the stop rule's row
    (see ``detect_edges``), and only the rows down to it are returned.
    """
    if isinstance(raw, np.ndarray):
        raise TypeError("raw is a list of row blocks, as gradients returns it")
    height, width = direction.shape
    if sum(map(len, raw)) != height:
        raise ValueError(f"raw's blocks hold {sum(map(len, raw))} rows, not {height}")
    # NMS pays per numpy call, so it takes raw's blocks a few at a time, to
    # about _BLOCK_PIXELS // width rows, at least _BLOCK_ROWS
    per = max(1, max(_BLOCK_ROWS, _BLOCK_PIXELS // width) // len(raw[0]))
    groups = [raw[k : k + per] for k in range(0, len(raw), per)]
    rows = max(sum(map(len, group)) for group in groups)
    # 510 * 1443 + 1443 fits in uint32
    peak = max(int(max(map(np.max, raw))), 1)
    frame = np.zeros((rows + 2, width + 2), dtype=np.uint8)
    scaled = np.empty((rows + 1, width), dtype=np.uint32)
    y0 = n = 0
    # each group with the first row after it; none after the last
    for group, below in zip(groups, [group[0][:1] for group in groups[1:]] + [raw[0][:0]]):
        # rows y0-1..y1, zero outside the image; the border columns stay zero
        frame[0] = frame[n]  # row y0-1, the last row of the window before
        n = sum(map(len, group))
        e, p = n + len(below), frame[: n + 2]  # e: the rows to rescale
        i = 0
        for piece in (*group, below):
            np.multiply(piece, 510, out=scaled[i : i + len(piece)], dtype=np.uint32)
            i += len(piece)
        rescaled = scaled[:e]
        rescaled += peak
        np.floor_divide(rescaled, 2 * peak, out=p[1 : e + 1, 1:-1], casting="unsafe")
        p[e + 1 :] = 0  # the row below the image, in the last group
        m, d = p[1 : n + 1, 1:-1], direction[y0 : y0 + n]
        keep = np.zeros(m.shape, dtype=bool)
        # each bin's two neighbors as (row, column) offsets into the window
        for angle, (r0, c0), (r1, c1) in ((0, (1, 0), (1, 2)), (45, (0, 2), (2, 0)),
                                          (90, (0, 1), (2, 1)), (135, (0, 0), (2, 2))):
            keep |= (d == angle) & (m >= np.maximum(p[r0 : r0 + n, c0 : c0 + width],
                                                    p[r1 : r1 + n, c1 : c1 + width]))
        np.multiply(m, keep, out=d)
        if need is not None:
            need, cut = _cut(d, y0, params, need)
            if cut is not None:
                return direction[: cut + 1]
        y0 += n
    return direction


def _scan_block(thinned: np.ndarray, params: CannyParams, strong: np.ndarray, y0: int,
                y1: int, n_runs: int):
    """Rows y0..y1-1's runs as (bounds, (parent, seeded, merge ends)), or None if none.

    The weak mask of the block and the row above is laid out flat on a
    zeroed grid one column wider than the image, after one blank element, so
    no run crosses a row end and the first pixel can start one. The runs that
    each run touches in the row above are a range of run ranks, read from the
    rank of every grid position; 8-connected, they reach from the column
    before the run to the one after it. A run is seeded when one of its
    pixels has a strong pixel in its 3x3 window, read from ``strong``, the
    row-padded strong mask. Runs are numbered from ``n_runs``, and the row
    above's runs are the last numbered before it, so no state crosses a seam.
    """
    width = thinned.shape[1]
    stride, n = width + 1, y1 - y0
    # weak rows y0-1..y1-1, the row above row 0 blank
    flat = np.zeros(1 + (n + 1) * stride, dtype=bool)
    grid = flat[1:].reshape(n + 1, stride)[:, :width]
    a = max(y0 - 1, 0)
    low, high = params.low_threshold, params.high_threshold
    # low <= v < high as one uint8 difference, as _cut tests it
    np.less(thinned[a:y1] - np.uint8(low), high - low, out=grid[a - y0 + 1 :])
    # alternately a run's start and its end
    bounds = np.flatnonzero(flat[1:] != flat[:-1]).astype(np.int32)
    # a Python int: a numpy int64 would widen the int32 run numbers it offsets
    i0 = int(np.searchsorted(bounds, stride))
    if i0 == len(bounds):
        return None
    # rank[p]: the number of bounds before grid position p; the runs of the row
    # above the block take ranks 0 .. i0 // 2 - 1
    rank = np.repeat(np.arange(len(bounds) + 1, dtype=np.int32),
                     np.diff(bounds, prepend=-1, append=len(flat) - 1))
    start, end = bounds[i0::2], bounds[i0 + 1 :: 2]
    up_lo = rank[start - stride] >> 1  # touched runs above: [up_lo, up_hi)
    up_hi = (rank[end + (1 - stride)] + 1) >> 1
    # seeds: runs holding a weak pixel with a strong pixel in its 3x3 window;
    # strong rows y0..y1+1 are image rows y0-1..y1
    near = np.zeros(n * stride + 2, dtype=bool)  # with a blank element either side
    column = near[1:-1].reshape(n, stride)[:, :width]
    np.logical_or(strong[y0:y1], strong[y0 + 1 : y1 + 1], out=column)
    column |= strong[y0 + 2 : y1 + 2]
    touch = near[:-2] | near[2:]
    touch |= near[1:-1]
    touch &= flat[1 + stride :]
    seeded = np.zeros(len(start), dtype=bool)
    seeded[(rank[np.flatnonzero(touch) + stride] >> 1) - i0 // 2] = True
    del rank, touch  # the block's largest temporaries; the rest is per run
    # the number of rank r's run is r + first
    first = n_runs - i0 // 2
    run = np.arange(n_runs, n_runs + len(start), dtype=np.int32)
    parent = np.where(up_lo < up_hi, up_lo + first, run)
    # each run above after the first that a run touches is one merge
    count = np.maximum(up_hi - up_lo - 1, 0)
    below = np.repeat(run, count)
    above = np.repeat(up_lo + (first + 1) - (np.cumsum(count, dtype=np.int32) - count), count)
    above += np.arange(len(above), dtype=np.int32)
    # on a grid of the block's own rows, kept until the paint in the smallest
    # type that holds a position there
    bounds = (bounds[i0:] - stride).astype(np.min_scalar_type(n * stride))
    return bounds, (parent, seeded, above, below)


def _whole(parts: list) -> np.ndarray:
    """Concatenate ``parts`` and empty the list, so only the whole stays alive."""
    whole = np.concatenate(parts)
    parts.clear()
    return whole


def _roots(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of every node of a forest once nodes a[i] and b[i] are joined.

    No node's parent is larger than the node, so the root of a joined
    component is its smallest node. Hooking touches only the pairs and their
    roots; the whole forest is jumped to its roots before and after.
    """
    while True:
        while True:  # pointer jumping, until every node points at its root
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
        if not len(a):
            return parent
        while len(a):
            a, b = parent[a], parent[b]
            apart = a != b
            a, b = a[apart], b[apart]
            # hook each larger root under the smaller one; where several pairs hook
            # one root a single write lands, and the rest hook in a later round
            hooked = np.maximum(a, b)
            parent[hooked] = np.minimum(a, b)
            # hooks onto hooked roots make chains: jump the hooked roots to their
            # roots, so that the pairs' ends are roots again in the next round
            top = parent[hooked]
            while True:
                up = parent[top]
                if np.array_equal(up, top):
                    break
                parent[hooked] = top = up


def hysteresis(thinned: np.ndarray, params: CannyParams) -> EdgeMap:
    """Double thresholding plus 8-connected edge linking.

    Strong pixels (magnitude >= high) are always edges; weak pixels
    (low <= magnitude < high) are edges only when reachable from a strong
    pixel through a chain of 8-connected weak/strong pixels. The first strong
    pixel on such a chain ends a run of weak ones, so a weak pixel is an edge
    exactly when its weak-only component touches a strong pixel: only the
    weak pixels are labelled, and the strong mask is the output as it is.
    Reachability is order-independent, so so is the result.

    The strong mask is thresholded once, with a blank row above and below:
    its interior is the edge map, and every block reads its seeds from it.
    The labelling works on the runs of weak pixels in each row, numbered in
    row-major order (He, Chao and Suzuki, "A run-based two-scan labeling
    algorithm", IEEE TIP 2008). ``_scan_block`` finds them a block of rows at
    a time and hangs each run under the first run above that touches it, or
    itself if none does (Wu, Otoo and Suzuki, PAA 2009); the other runs
    above that touch it are merge pairs, which ``_roots`` joins by hooking
    and pointer jumping (Shiloach and Vishkin, J. Algorithms 1982). A run is
    kept when its tree holds a seeded run; the kept runs are painted onto
    the strong mask.
    """
    height, width = thinned.shape
    rows = max(_BLOCK_ROWS, min(-(-height // _LABEL_BLOCKS), _LABEL_BLOCK_PIXELS // width))
    strong = np.empty((height + 2, width), dtype=bool)  # np.zeros may clear it all first
    strong[0] = strong[-1] = False
    edges = strong[1:-1]
    np.greater_equal(thinned, params.high_threshold, out=edges)
    blocks, forest, n_runs = [], [], 0
    for y0, y1 in _row_blocks(height, rows):
        # one call per block, so a block's temporaries are freed before the next
        found = _scan_block(thinned, params, strong, y0, y1, n_runs)
        if found is None:
            continue
        bounds, part = found
        blocks.append((y0, n_runs, bounds))
        forest.append(part)
        n_runs += len(part[0])
    if not blocks:
        return EdgeMap(edges)
    parents, seeds, above, below = map(list, zip(*forest))
    del forest  # so that _whole frees each part once it is concatenated
    root = _roots(_whole(parents), _whole(above), _whole(below))
    keep = np.zeros(n_runs, dtype=bool)
    keep[root[_whole(seeds)]] = True
    keep = keep[root]
    pixels = edges.reshape(-1)
    for y0, first, bounds in blocks:
        kept = keep[first : first + len(bounds) // 2]
        if not kept.any():
            continue
        # int32 holds any index within a block
        start = bounds[0::2][kept].astype(np.int32)
        length = bounds[1::2][kept] - start
        painted = np.cumsum(length, dtype=np.int32)
        # each kept run's first pixel in the block, less the pixels painted before it
        start -= start // (width + 1) + painted - length
        index = np.repeat(start, length)
        index += np.arange(painted[-1], dtype=np.int32)
        pixels[y0 * width :][index] = True
    return EdgeMap(edges)


def detect_edges(image: RgbImage, params: CannyParams, need: int | None = None) -> EdgeMap:
    """Run the full five-stage detector on the masked grayscale projection.

    Pure and deterministic: equal image/params give bit-identical edge maps,
    and images differing only in channel bits 0..2 give the same map.

    Given ``need``, the map may cover only rows 0..s, equal to those rows of
    the whole map and holding at least ``need`` edge pixels below row 0.
    Let r be the first row such that rows 1..r hold ``need`` strong pixels,
    which are edges whatever their neighbours, and s the first row at or
    after r with no weak pixel. No weak component crosses row s, so each
    weak pixel above it is linked or dropped by the strong pixels of rows
    0..s alone: NMS, with its rescale, stops at s and hysteresis runs on
    rows 0..s. Without such an s, every row is detected. Gray, smoothing and
    Sobel always span the image, since the rescale reads the image's peak.
    The magnitudes pass from Sobel to NMS as one array per row block, one
    byte a pixel where a block's are all below 256, two elsewhere.
    """
    check_min_size(image)
    # nested, so the magnitudes are freed when NMS returns, before hysteresis
    return hysteresis(non_max_suppression(*gradients(smooth(to_masked_gray(image), params)),
                                          params, need), params)
