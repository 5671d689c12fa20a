"""Edge detector tests: every stage is cross-checked against a brute-force
reference, plus the invariance property the whole scheme rests on."""

import hashlib
import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgestego import CannyParams, ImageTooSmall, ParamOutOfRange, RgbImage, canny, detect_edges
from edgestego.canny import (
    _BLOCK_ROWS as _BLOCK,
    _KERNELS,
    _TIE,
    _TILE,
    _direction_bins,
    _row_blocks,
    gradients,
    hysteresis,
    non_max_suppression,
    smooth,
    to_masked_gray,
)
from edgestego.image import GrayImage
from helpers import sobel
import oracles


def _gray(values):
    return GrayImage(np.asarray(values, dtype=np.uint8))


# ---------------------------------------------------------------- parameters


def test_params_validation():
    CannyParams(10, 0, 0)
    CannyParams(30, 255, 255)
    assert CannyParams(np.int64(15), np.uint8(5), 40) == CannyParams(15, 5, 40)
    for bad in [(9, 5, 40), (31, 5, 40), (15, -1, 40), (15, 5, 256), (15, 41, 40),
                (15, 5.5, 40), (15.0, 5, 40), ("15", 5, 40), (15, 5, None)]:
        with pytest.raises(ParamOutOfRange):
            CannyParams(*bad)


# ------------------------------------------------------- masked gray project


def test_masked_gray_known_values():
    img = RgbImage(np.array([[[255, 255, 255], [16, 32, 64], [0, 0, 0]]], dtype=np.uint8))
    gray = to_masked_gray(img)
    # 255 -> 248 in every channel; 248 * (0.299+0.587+0.114) = 248
    assert gray.values[0, 0] == 248
    # 0.299*16 + 0.587*32 + 0.114*64 = 30.864, rounds to 31
    assert gray.values[0, 1] == 31
    assert gray.values[0, 2] == 0


def test_masked_gray_matches_scalar_formula():
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(6, 7, 3), dtype=np.uint8)
    gray = to_masked_gray(RgbImage(pixels))
    for y in range(6):
        for x in range(7):
            r, g, b = (int(c) for c in pixels[y, x])
            assert gray.values[y, x] == oracles.masked_gray_reference(r, g, b)


def test_masked_gray_is_the_rounded_luminance():
    # every masked triple once, over several row blocks: the integer projection
    # must equal 0.299r + 0.587g + 0.114b rounded half up in float64
    levels = np.arange(0, 256, 8, dtype=np.uint8)
    r, g, b = np.meshgrid(levels, levels, levels, indexing="ij")
    pixels = np.stack([r, g, b], axis=-1).reshape(1024, 32, 3)
    gray = to_masked_gray(RgbImage(pixels)).values
    expected = [oracles.masked_gray_reference(*map(int, rgb)) for rgb in pixels.reshape(-1, 3)]
    assert gray.ravel().tolist() == expected


@given(
    st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
)
def test_masked_gray_ignores_payload_bits(r, g, b, lr, lg, lb):
    base = RgbImage(np.array([[[r & 0xF8, g & 0xF8, b & 0xF8]]], dtype=np.uint8))
    noisy = RgbImage(
        np.array([[[(r & 0xF8) | lr, (g & 0xF8) | lg, (b & 0xF8) | lb]]], dtype=np.uint8)
    )
    assert to_masked_gray(base) == to_masked_gray(noisy)


# ----------------------------------------------------------------- smoothing


@pytest.mark.parametrize("tenths,taps", [(10, 7), (15, 11), (20, 13), (21, 15), (30, 19)])
def test_kernel_length(tenths, taps):
    assert len(_KERNELS[tenths]) == taps


def test_kernel_shape():
    # one row per sigma the header can carry, and each row is the Gaussian:
    # every frozen tap within 2 ulp of the taps built with scalar math.exp
    assert sorted(_KERNELS) == list(range(10, 31))
    for tenths, kernel in _KERNELS.items():
        assert kernel.dtype == np.float64
        assert np.array_equal(kernel, kernel[::-1])  # exactly symmetric
        assert abs(kernel.sum() - 1.0) < 1e-12
        assert kernel.argmax() == len(kernel) // 2
        reference = oracles.gaussian_taps(tenths / 10)
        assert len(kernel) == len(reference)
        for tap, exact in zip(kernel.tolist(), reference):
            assert abs(tap - exact) <= 2 * math.ulp(exact), (tenths, tap, exact)


def test_kernel_center_to_edge_ratio():
    # for sigma=1 the end taps sit at distance 3: ratio exp(9/2)
    kernel = _KERNELS[10]
    assert math.isclose(kernel[3] / kernel[0], math.exp(4.5), rel_tol=1e-12)


def test_smooth_constant_is_fixed_point():
    # 70 rows cross two block seams; 0 and 255 sit at the ends of the rounding range
    for value, rows in itertools.product((0, 100, 255), (8, 70)):
        gray = _gray(np.full((rows, 6), value))
        for tenths in range(10, 31):
            assert smooth(gray, CannyParams(tenths, 0, 255)) == gray


def test_smooth_single_pixel_image():
    assert smooth(_gray([[137]]), CannyParams(20, 0, 255)) == _gray([[137]])


def test_smooth_matches_direct_convolution():
    rng = np.random.default_rng(42)
    for _ in range(8):
        height, width = (int(v) for v in rng.integers(3, 13, size=2))
        values = rng.integers(0, 256, (height, width), dtype=np.uint8)
        tenths = int(rng.integers(10, 31))
        ours = smooth(_gray(values), CannyParams(tenths, 0, 255)).values.astype(int)
        ref = oracles.smooth_reference(values, tenths / 10.0).astype(int)
        assert np.abs(ours - ref).max() <= 1


@pytest.mark.parametrize("tenths", range(10, 31))
def test_smooth_is_exactly_the_separable_sum(tenths):
    # The detector is the shared secret, so smoothing must reproduce the
    # separable sum byte for byte, also across the row blocks and column tiles
    # it works in: heights below the radius, around one block and past two
    # blocks; widths around one and two tiles.
    rng = np.random.default_rng(tenths)
    kernel = _KERNELS[tenths]
    for height in (1, 2, 8, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
        for width in (1, 5, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE, 2 * _TILE + 1, 300):
            values = rng.integers(0, 256, (height, width), dtype=np.uint8)
            ours = smooth(_gray(values), CannyParams(tenths, 0, 255))
            expected = oracles.smooth_separable_reference(values, kernel)
            assert np.array_equal(ours.values, expected), (height, width)


_SMOOTH_PATTERNS = {
    "zeros": lambda y, x: 0 * x,
    "full": lambda y, x: 0 * x + 255,
    "stripes": lambda y, x: x % 2 * 255,
    "level stripes": lambda y, x: x % 2,  # near ties everywhere at large sigma
    "wide stripes": lambda y, x: x // 3 % 2 * 255,
    "checkerboard": lambda y, x: (x + y) % 2 * 255,
    "ramps": lambda y, x: (7 * x + 3 * y) % 256,
}


@pytest.mark.parametrize("pattern", sorted(_SMOOTH_PATTERNS))
def test_smooth_is_exactly_the_separable_sum_on_extreme_images(pattern):
    # sums at the ends of the 0..255 range, exact halves of a flat field, and
    # the carry-over between blocks
    for height, width in ((31, 1), (32, 2), (33, 40), (97, 1), (97, 37)):
        y, x = np.indices((height, width))
        values = _SMOOTH_PATTERNS[pattern](y, x).astype(np.uint8)
        for tenths in range(10, 31):
            ours = smooth(_gray(values), CannyParams(tenths, 0, 255))
            expected = oracles.smooth_separable_reference(values, _KERNELS[tenths])
            assert np.array_equal(ours.values, expected), (height, width, tenths)


@pytest.mark.parametrize("chunk", [canny._TIE_CHUNK, 3])
def test_smooth_redoes_the_pixels_float32_would_round_differently(monkeypatch, chunk):
    # on this seeded noise the plain float32 sums round four pixels the other
    # way, and the float32 banded matrix products three; smooth must still give
    # the float64 definition on every pixel, also when it fixes its ties a few
    # at a time, block by block
    monkeypatch.setattr(canny, "_TIE_CHUNK", chunk)
    values = np.random.default_rng(8).integers(0, 256, (256, 256), dtype=np.uint8)
    kernel = _KERNELS[30]
    expected = oracles.smooth_separable_reference(values, kernel)
    for sums in (oracles.separable_sums, oracles.matmul_sums):
        fast = sums(values, kernel.astype(np.float32))
        assert fast.dtype == np.float32
        assert np.count_nonzero((fast + np.float32(0.5)).astype(np.uint8) != expected) >= 1
    assert np.array_equal(smooth(_gray(values), CannyParams(30, 0, 255)).values, expected)


@pytest.mark.parametrize("tenths", range(10, 31))
def test_smooth_float32_error_is_well_inside_the_tie_band(tenths):
    # smooth proves the float32 sums within 6.3e-4 of the float64 ones in any
    # order of evaluation; the errors met on noise and on two-level images, in
    # tap order and as whole-image banded matrix products, sit far below that
    rng = np.random.default_rng(tenths)
    kernel = _KERNELS[tenths]
    for values in (rng.integers(0, 256, (96, 96), dtype=np.uint8),
                   rng.integers(0, 2, (96, 96), dtype=np.uint8) * np.uint8(255)):
        exact = oracles.separable_sums(values, kernel)
        for sums in (oracles.separable_sums, oracles.matmul_sums):
            fast = sums(values, kernel.astype(np.float32))
            assert np.abs(fast - exact).max() < _TIE / 4


def test_smooth_ramp_against_reference():
    ramp = (np.arange(81).reshape(9, 9) * 3).astype(np.uint8)
    ours = smooth(_gray(ramp), CannyParams(15, 0, 255)).values.astype(int)
    ref = oracles.smooth_reference(ramp, 1.5).astype(int)
    assert np.abs(ours - ref).max() <= 1


# ----------------------------------------------------------------- gradients


def test_sobel_matches_reference_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        height, width = (int(v) for v in rng.integers(3, 10, size=2))
        values = rng.integers(0, 256, (height, width), dtype=np.uint8)
        gx, gy = sobel(values)
        rx, ry = oracles.sobel_reference(values)
        assert gx.dtype == gy.dtype == np.int16
        assert np.array_equal(gx, rx)
        assert np.array_equal(gy, ry)


def test_sobel_orientation():
    # brighter to the right -> gx positive everywhere, gy zero
    rightward = np.tile(np.arange(0, 50, 10, dtype=np.uint8), (5, 1))
    gx, gy = sobel(rightward)
    assert gx.dtype == gy.dtype == np.int16
    assert (gx > 0).all() and (gy == 0).all()
    # brighter toward the top -> gy positive everywhere, gx zero
    upward = np.tile(np.arange(40, -10, -10, dtype=np.uint8)[:, None], (1, 5))
    gx, gy = sobel(upward)
    assert gx.dtype == gy.dtype == np.int16
    assert (gx == 0).all() and (gy > 0).all()


@pytest.mark.parametrize("pattern", ["columns", "rows", "checkerboard"])
def test_gradients_at_the_sobel_extremes(pattern):
    # 0/255 steps put |gx| or |gy| at 4 * 255 = 1020, the largest a 3x3 Sobel
    # of 8-bit values reaches, over two row blocks; a Sobel window or square
    # too narrow for that would fail here
    y, x = np.mgrid[: _BLOCK + 8, :70]
    cells = {"columns": x // 5, "rows": y // 5, "checkerboard": x // 3 + y // 3}[pattern]
    values = (cells % 2 * 255).astype(np.uint8)
    gx, gy = oracles.sobel_reference(values)
    assert max(np.abs(gx).max(), np.abs(gy).max()) == 1020
    ours = sobel(values)
    assert np.array_equal(ours[0], gx) and np.array_equal(ours[1], gy)
    magnitude, direction = gradients(_gray(values))
    raw = np.floor(np.hypot(gx, gy) + 0.5).astype(np.int64)
    peak = int(raw.max())
    assert np.array_equal(magnitude, ((510 * raw + peak) // (2 * peak)).astype(np.uint8))
    assert np.array_equal(direction, oracles.direction_reference(gx, gy))


def test_float32_root_rounds_as_float64_on_every_sum_of_squares():
    # gradients rounds sqrt(gx**2 + gy**2) half up in float32; for every
    # integer 0..2 * 1020**2 the sum can take, that must truncate as the
    # float64 form does
    s = np.arange(2 * 1020**2 + 1, dtype=np.int32)
    root = np.sqrt(s, dtype=np.float32)
    root += 0.5
    assert root.dtype == np.float32
    expected = np.sqrt(s.astype(np.float64)) + 0.5
    assert np.array_equal(root.astype(np.uint16), expected.astype(np.uint16))


def test_gradients_flat_image_is_all_zero():
    magnitude, _ = gradients(_gray(np.full((5, 5), 77)))
    assert magnitude.max() == 0


def test_gradients_rescale_hits_255():
    rng = np.random.default_rng(2)
    magnitude, _ = gradients(_gray(rng.integers(0, 256, (6, 6), dtype=np.uint8)))
    assert magnitude.max() == 255


def test_magnitude_rescale_is_exact_rounding():
    # the integer form (510*raw + peak) // (2*peak) must equal
    # floor(255*raw/peak + 1/2) computed in exact rational arithmetic
    rng = np.random.default_rng(11)
    raws = [int(v) for v in rng.integers(0, 1443, size=300)]
    peak = max(raws)
    for raw in raws:
        expected = int(Fraction(255 * raw, peak) + Fraction(1, 2))
        assert (510 * raw + peak) // (2 * peak) == expected


def test_gradient_magnitude_matches_scalar_pipeline():
    rng = np.random.default_rng(3)
    # windows narrower and shorter than the Sobel stencil, one block, then
    # heights that span several blocks; at 2 * _BLOCK the second block's
    # in-place rescale writes up to the byte where its own rows start
    shapes = [(1, 1), (2, 5), (5, 1), (6, 7), (70, 40), (70, 40), (70, 40),
              (2 * _BLOCK + 1, 9), (_BLOCK, 9), (2 * _BLOCK, 9), (3 * _BLOCK + 5, 9)]
    for shape in shapes:
        values = rng.integers(0, 256, shape, dtype=np.uint8)
        magnitude, direction = gradients(_gray(values))
        gx, gy = oracles.sobel_reference(values)
        raw = np.floor(np.hypot(gx, gy) + 0.5).astype(np.int64)
        peak = max(int(raw.max()), 1)
        expected = (510 * raw + peak) // (2 * peak)
        assert np.array_equal(magnitude, expected.astype(np.uint8))
        assert np.array_equal(direction, oracles.direction_reference(gx, gy))


def test_direction_bins_match_reference():
    rng = np.random.default_rng(17)
    for _ in range(10):
        values = rng.integers(0, 256, (7, 7), dtype=np.uint8)
        _, direction = gradients(_gray(values))
        gx, gy = oracles.sobel_reference(values)
        assert np.array_equal(direction, oracles.direction_reference(gx, gy))


def test_direction_rule_matches_atan2_on_every_sobel_pair():
    # Every (gx, gy) a 3x3 Sobel of 8-bit values can produce: the integer
    # rule must bin exactly like the atan2-degrees rule it replaced.
    gx, gy = np.meshgrid(np.arange(-1020, 1021), np.arange(-1020, 1021))
    angle = np.mod(np.degrees(np.arctan2(gy, gx)), 180.0)
    expected = np.select(
        [(angle >= 22.5) & (angle < 67.5), (angle >= 67.5) & (angle < 112.5),
         (angle >= 112.5) & (angle < 157.5)],
        [45, 90, 135],
        default=0,
    )
    gx, gy = gx.astype(np.int16), gy.astype(np.int16)
    bins = _direction_bins(gx, gy, np.multiply(gx, gx, dtype=np.int32),
                           np.multiply(gy, gy, dtype=np.int32))
    assert bins.dtype == np.uint8
    assert np.array_equal(bins, expected)
    assert bins[1020, 1020] == 0  # gx = gy = 0


def test_direction_of_straight_steps():
    step = np.zeros((5, 6), dtype=np.uint8)
    step[:, 3:] = 200
    _, direction = gradients(_gray(step))
    assert direction[2, 2] == 0 and direction[2, 3] == 0
    _, direction = gradients(_gray(np.ascontiguousarray(step.T)))
    assert direction[2, 2] == 90 and direction[3, 2] == 90


def test_gradients_require_3x3():
    # the Sobel window's 3x3 minimum is checked once, where the detector starts
    with pytest.raises(ImageTooSmall):
        detect_edges(RgbImage(np.zeros((2, 5, 3), dtype=np.uint8)), CannyParams(10, 5, 10))
    with pytest.raises(ImageTooSmall):
        detect_edges(RgbImage(np.zeros((5, 2, 3), dtype=np.uint8)), CannyParams(10, 5, 10))


# ------------------------------------------------- non-maximum suppression


def test_nms_isolated_peak_survives_every_bin():
    magnitude = np.zeros((5, 5), dtype=np.uint8)
    magnitude[2, 2] = 200
    for angle in (0, 45, 90, 135):
        direction = np.full((5, 5), angle, dtype=np.uint8)
        assert non_max_suppression(magnitude, direction)[2, 2] == 200


def test_nms_keeps_ties():
    # a ridge of equal values must survive in full: comparison is >=
    magnitude = np.zeros((5, 5), dtype=np.uint8)
    magnitude[:, 2] = 100
    direction = np.zeros((5, 5), dtype=np.uint8)  # bin 0: compare left/right
    thinned = non_max_suppression(magnitude, direction)
    assert (thinned[:, 2] == 100).all()


def test_nms_suppresses_weaker_shoulder():
    magnitude = np.zeros((3, 5), dtype=np.uint8)
    magnitude[1, 1] = 50
    magnitude[1, 2] = 100
    direction = np.zeros((3, 5), dtype=np.uint8)
    thinned = non_max_suppression(magnitude, direction)
    assert thinned[1, 1] == 0  # loses to the 100 on its right
    assert thinned[1, 2] == 100


def test_nms_border_pixels_compare_against_zero():
    magnitude = np.zeros((3, 3), dtype=np.uint8)
    magnitude[0, 0] = 5
    thinned = non_max_suppression(magnitude, np.zeros((3, 3), dtype=np.uint8))
    assert thinned[0, 0] == 5


def test_nms_matches_exhaustive_reference():
    rng = np.random.default_rng(29)
    small = (tuple(int(v) for v in rng.integers(1, 13, size=2)) for _ in range(25))
    # heights on both sides of the row-block seams, narrow and wide
    seams = [(h, w) for h in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3) for w in (7, 300)]
    for height, width in itertools.chain(small, seams):  # small is drawn as the loop runs
        magnitude = rng.integers(0, 256, (height, width), dtype=np.uint8)
        direction = rng.choice(np.array([0, 45, 90, 135], dtype=np.uint8), (height, width))
        ours = non_max_suppression(magnitude, direction)
        assert np.array_equal(ours, oracles.nms_reference(magnitude, direction))


# ------------------------------------------------------------- hysteresis


def test_hysteresis_keeps_strong_and_anchored_weak():
    thinned = np.array(
        [
            [0, 30, 0, 0],
            [0, 45, 0, 25],
            [0, 0, 0, 0],
        ],
        dtype=np.uint8,
    )
    edges = hysteresis(thinned, CannyParams(10, 20, 40))
    # 45 is strong; the 30 above it is weak but touches it; the 25 is weak
    # and stranded, so it goes
    assert edges.membership.tolist() == [
        [False, True, False, False],
        [False, True, False, False],
        [False, False, False, False],
    ]


def test_hysteresis_diagonal_contact_counts():
    thinned = np.zeros((4, 4), dtype=np.uint8)
    thinned[0, 0] = 25  # weak
    thinned[1, 1] = 90  # strong, diagonal neighbor
    edges = hysteresis(thinned, CannyParams(10, 20, 40))
    assert edges.membership[0, 0] and edges.membership[1, 1]


def test_hysteresis_without_strong_is_empty():
    thinned = np.full((4, 4), 39, dtype=np.uint8)
    assert hysteresis(thinned, CannyParams(10, 20, 40)).count == 0


def test_hysteresis_below_low_is_dropped():
    thinned = np.full((4, 4), 19, dtype=np.uint8)
    assert hysteresis(thinned, CannyParams(10, 20, 40)).count == 0


def _hysteresis_cases():
    """(thinned, low, high) triples; the built maps use 25 as weak and 90 as
    strong at thresholds (20, 40)."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        height, width = (int(v) for v in rng.integers(1, 13, size=2))
        thinned = rng.integers(0, 256, (height, width), dtype=np.uint8)
        low = int(rng.integers(0, 200))
        yield thinned, low, int(rng.integers(low, 256))

    # weak pixels confined to some rows; the others hold only zeros and strong pixels
    for _ in range(10):
        height, width = (int(v) for v in rng.integers(1, 40, size=2))
        thinned = rng.choice(np.array([0, 25, 90], np.uint8), (height, width), p=[0.5, 0.3, 0.2])
        plain = rng.random(height) < 0.6
        thinned[plain] = np.where(thinned[plain] == 25, 0, thinned[plain])
        yield thinned, 20, 40

    # gaps of one and of two empty rows, crossed straight and diagonally;
    # the seed sits beside the top weak pixel, which alone may be linked
    for gap, shift in itertools.product((1, 2), (0, 1)):
        thinned = np.zeros((gap + 3, 4), dtype=np.uint8)
        thinned[0, 0], thinned[0, 1], thinned[gap + 1, 1 + shift] = 90, 25, 25
        yield thinned, 20, 40

    # strong seeds only in rows that hold no weak pixel: above, below, diagonal
    for seed_row, seed_col in ((0, 2), (2, 2), (0, 1), (2, 3), (2, 0)):
        thinned = np.zeros((3, 5), dtype=np.uint8)
        thinned[1, 1:4] = 25
        thinned[seed_row, seed_col] = 90
        yield thinned, 20, 40

    # one weak column seeded only at its far end, and random maps, at heights
    # that fall on both sides of the row-block seams
    for height in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1, 100):
        thinned = np.zeros((height, 3), dtype=np.uint8)
        thinned[:, 1] = 25
        thinned[-1, 2] = 90
        yield thinned, 20, 40
        rows = rng.random(height) < 0.5
        yield rng.integers(0, 256, (height, 5), dtype=np.uint8) * rows[:, None], 20, 40

    # no weak pixel at all: zeros and strong pixels only, or low == high
    yield np.zeros((5, 5), dtype=np.uint8), 20, 40
    yield np.where(rng.random((9, 9)) < 0.3, 90, 0).astype(np.uint8), 20, 40
    yield rng.integers(0, 256, (9, 9), dtype=np.uint8), 40, 40


def test_hysteresis_matches_fixpoint_reference():
    for thinned, low, high in _hysteresis_cases():
        edges = hysteresis(thinned, CannyParams(15, low, high))
        assert np.array_equal(
            edges.membership, oracles.hysteresis_reference(thinned, low, high)
        )


def _photo_like(rng, n):
    """A smooth colour ramp with filled squares on it and +-3 of noise."""
    yy, xx = np.mgrid[0:n, 0:n] * (130 / n)
    pixels = np.stack([60 + yy, 60 + xx, 190 - yy], axis=2)
    side = n // 8
    for _ in range(12):
        y, x = (int(v) for v in rng.integers(0, n - side, size=2))
        pixels[y : y + side, x : x + side] += rng.uniform(-60, 60)
    pixels += rng.uniform(-3, 3, pixels.shape)
    return np.clip(pixels, 0, 255).astype(np.uint8)


def _weak_chains(kind):
    """Weak (30) chains 512 rows long, seeded (255) at the top-left corner, across
    every label-block seam: a 1-px vertical comb joined along its bottom row, or
    diagonals in every third column. Each row of a tooth or diagonal is a run."""
    yy, xx = np.mgrid[0:512, 0:512]
    weak = (xx % 2 == 0) | (yy == 511) if kind == "comb" else (xx + yy) % 3 == 0
    thinned = np.where(weak, 30, 0).astype(np.uint8)
    thinned[0, 0] = 255
    return thinned


@pytest.mark.parametrize("kind", ["noise", "photo", "comb", "diagonals"])
def test_hysteresis_matches_dense_labelling_on_large_maps(kind):
    rng = np.random.default_rng(8)
    if kind in ("comb", "diagonals"):
        thinned = _weak_chains(kind)
    else:
        pixels = (rng.integers(0, 256, (512, 512, 3), dtype=np.uint8) if kind == "noise"
                  else _photo_like(rng, 512))
        gray = to_masked_gray(RgbImage(pixels))
        thinned = non_max_suppression(*gradients(smooth(gray, CannyParams(15, 5, 40))))
    for low, high in ((5, 40), (20, 60), (0, 255), (1, 255), (40, 40)):
        edges = hysteresis(thinned, CannyParams(15, low, high))
        assert np.array_equal(
            edges.membership, oracles.hysteresis_dense_reference(thinned, low, high)
        )


def _assert_hysteresis_matches_dense_labelling(thinned, low, high):
    edges = hysteresis(thinned, CannyParams(15, low, high))
    assert np.array_equal(edges.membership, oracles.hysteresis_dense_reference(thinned, low, high))


@pytest.mark.parametrize("seed_row", [0, 1])
def test_hysteresis_keeps_runs_apart_across_a_row_end(seed_row):
    # one weak run ends at the last column of row 1 and another starts at column 0
    # of row 2: neighbours in memory, far apart in the image
    thinned = np.zeros((4, 6), dtype=np.uint8)
    thinned[1, 4:] = 25
    thinned[2, :2] = 25
    thinned[seed_row * 3, 5 if seed_row == 0 else 0] = 90  # beside one run only
    _assert_hysteresis_matches_dense_labelling(thinned, 20, 40)
    kept = hysteresis(thinned, CannyParams(15, 20, 40)).membership
    assert kept[1, 4:].all() == (seed_row == 0)
    assert kept[2, :2].all() == (seed_row == 1)
    assert kept.sum() == 3


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 61), (2, 1), (61, 1)])
def test_hysteresis_on_one_row_and_one_column_maps(shape):
    rng = np.random.default_rng(shape)
    for _ in range(20):
        thinned = rng.choice(np.array([0, 25, 90], np.uint8), shape, p=[0.3, 0.5, 0.2])
        _assert_hysteresis_matches_dense_labelling(thinned, 20, 40)


@pytest.mark.parametrize("shape", [(1, 9), (7, 1), (5, 9), (_BLOCK + 1, 4)])
def test_hysteresis_on_all_weak_maps(shape):
    # every run spans a whole row
    thinned = np.full(shape, 25, dtype=np.uint8)
    _assert_hysteresis_matches_dense_labelling(thinned, 20, 40)
    assert hysteresis(thinned, CannyParams(15, 20, 40)).count == 0
    for y, x in ((0, 0), (shape[0] - 1, shape[1] - 1), (shape[0] // 2, shape[1] // 2)):
        seeded = thinned.copy()
        seeded[y, x] = 90
        _assert_hysteresis_matches_dense_labelling(seeded, 20, 40)
        assert hysteresis(seeded, CannyParams(15, 20, 40)).membership.all()


@pytest.mark.parametrize("height", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_hysteresis_matches_dense_labelling_at_block_heights(height):
    rng = np.random.default_rng(height)
    gray = to_masked_gray(RgbImage(rng.integers(0, 256, (height, 300, 3), dtype=np.uint8)))
    thinned = non_max_suppression(*gradients(smooth(gray, CannyParams(15, 5, 40))))
    for low, high in ((5, 40), (20, 60), (0, 255), (1, 255), (40, 40)):
        _assert_hysteresis_matches_dense_labelling(thinned, low, high)


@pytest.mark.parametrize("label_blocks", [8, 64])
def test_hysteresis_matches_fixpoint_reference_in_one_row_blocks(monkeypatch, label_blocks):
    # seams between rows: links, merges and seeds all cross blocks. 8 label blocks
    # scan maps of up to 8 rows one row at a time; 64 do so up to 64 rows, the
    # 5x5 and 9x9 maps included, so the row above and both strong rows that a
    # block reads come from outside it
    monkeypatch.setattr(canny, "_BLOCK_ROWS", 1)
    monkeypatch.setattr(canny, "_LABEL_BLOCKS", label_blocks)
    for thinned, low, high in _hysteresis_cases():
        edges = hysteresis(thinned, CannyParams(15, low, high))
        assert np.array_equal(
            edges.membership, oracles.hysteresis_reference(thinned, low, high)
        )


@pytest.mark.parametrize("low", [0, 1, "comb"])
def test_hysteresis_peak_memory_on_mostly_weak_maps(low):
    if low == "comb":
        # one run per tooth pixel: the labelling's worst case per pixel, since it
        # keeps int32 arrays per run
        thinned, params, cap = _weak_chains("comb"), CannyParams(10, 5, 40), 10
    else:
        # at high 255 nearly every candidate is weak, so the labels span the image
        rng = np.random.default_rng(9)
        gray = to_masked_gray(RgbImage(rng.integers(0, 256, (512, 512, 3), dtype=np.uint8)))
        thinned = non_max_suppression(*gradients(smooth(gray, CannyParams(10, 5, 40))))
        params, cap = CannyParams(10, low, 255), 6
    tracemalloc.start()
    try:
        hysteresis(thinned, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap * thinned.size


def test_gradients_and_nms_make_no_whole_image_copy():
    # each stage's whole-image arrays are its outputs: 3 B/px for gradients
    # (raw's uint16, whose bytes then hold the magnitudes, and the directions)
    # and 1 B/px for NMS; a padded copy of the image would add 1 B/px to
    # either, and a second magnitude array another 1 to gradients. Written
    # into the array each consumed, gradients keeps raw alone and NMS nothing,
    # and detect_edges peaks in gradients, holding raw beside the gray's bytes.
    rng = np.random.default_rng(5)
    image = RgbImage(rng.integers(0, 256, (2048, 2048, 3), dtype=np.uint8))
    params = CannyParams(10, 5, 40)
    smoothed = smooth(to_masked_gray(image), params)

    def peak_above_entry(stage, *args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = stage(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base, result

    tracemalloc.start()
    try:
        grad, (magnitude, direction) = peak_above_entry(gradients, smoothed)
        nms, _ = peak_above_entry(non_max_suppression, magnitude, direction)
        grad_in_place, (magnitude, direction) = peak_above_entry(
            gradients, smoothed, out=smoothed.values)
        nms_in_place, _ = peak_above_entry(non_max_suppression, magnitude, direction,
                                           out=direction)
        del magnitude, direction, _
        detect, _ = peak_above_entry(detect_edges, image, params)
    finally:
        tracemalloc.stop()
    size = smoothed.values.size
    assert grad <= 3.9 * size
    assert nms <= 1.5 * size
    assert grad_in_place <= 2.6 * size
    assert nms_in_place <= 0.2 * size
    assert detect <= 3.6 * size


# ------------------------------------------------------------ row bands


@pytest.mark.parametrize("rows", [2, 3, 5])
@pytest.mark.parametrize("height", [1, 3, 32, 33, 97, 200])
def test_bands_cover_each_row_once_in_whole_blocks(rows, height):
    # every stage walks the image in the row bands _row_blocks yields
    bands = list(_row_blocks(height, rows))
    assert len(bands) == -(-height // rows)
    assert [y0 for y0, _ in bands[1:]] == [y1 for _, y1 in bands[:-1]]
    assert bands[0][0] == 0 and bands[-1][1] == height
    assert all(y0 % rows == 0 and y1 - y0 == rows for y0, y1 in bands[:-1])


@pytest.mark.parametrize("width,height,rows", [
    *((width, height, rows) for width, height in ((3, 3), (27, 33), (65, 97)) for rows in (2, 3)),
    # the module's own blocks, around their seams: gradients' at 64 rows and
    # NMS's at 128 on 512-wide covers, both at 64 on 1024-wide ones
    *((512, height, None) for height in (63, 64, 65, 127, 128, 129)),
    *((1024, height, None) for height in (63, 64, 65)),
])
@pytest.mark.parametrize("tenths", [10, 23, 30])
def test_banded_stages_equal_one_band(monkeypatch, width, height, rows, tenths):
    # bands of fewer rows than the smoothing's 2*radius carry sums over
    # from bands before the one just done; a pixel budget of 4 bands' worth
    # gives NMS 4 bands a block and gradients its cap of 2
    rng = np.random.default_rng(width * height + tenths)
    image = RgbImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
    params = CannyParams(tenths, 5, 40)

    def stages():
        gray = to_masked_gray(image)
        smoothed = smooth(gray, params)
        magnitude, direction = gradients(smoothed)
        inputs = [a.copy() for a in (gray.values, smoothed.values, magnitude, direction)]
        thinned = non_max_suppression(magnitude, direction)
        # without out= no stage wrote over its input
        for array, copy in zip((gray.values, smoothed.values, magnitude, direction), inputs):
            assert np.array_equal(array, copy)
        # with out= naming the stage's own input (a copy here), each stage
        # writes its result there and reads no row it has overwritten: the
        # smoothing reads its padded copy, gradients carries the row above a
        # block in its window, and NMS writes a block once its comparisons are done
        g, s, _, d = inputs
        in_place = (smooth(GrayImage(g), params, out=g).values, *gradients(GrayImage(s), out=s),
                    non_max_suppression(magnitude, d, out=d))
        wanted = (smoothed.values, magnitude, direction, thinned)
        for got, want in zip(in_place, wanted, strict=True):
            assert np.array_equal(got, want)
        for got, buffer in zip((in_place[0], in_place[2], in_place[3]), (g, s, d)):
            assert np.shares_memory(got, buffer)
        return (gray.values, smoothed.values, magnitude, direction, thinned,
                detect_edges(image, params).membership)

    with monkeypatch.context() as patch:
        patch.setattr(canny, "_BLOCK_ROWS", height)
        one_band = stages()
    if rows:
        monkeypatch.setattr(canny, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(canny, "_BLOCK_PIXELS", 4 * rows * width)
    for banded, single in zip(stages(), one_band, strict=True):
        assert np.array_equal(banded, single)


# ------------------------------------------------------------ whole pipeline


def test_detect_edges_starts_no_thread(monkeypatch):
    def start(thread):
        raise AssertionError("thread started")

    monkeypatch.setattr(threading.Thread, "start", start)
    # as large as the benchmark's largest covers: no size hands rows to threads
    image = RgbImage(np.random.default_rng(4).integers(0, 256, (2048, 2048, 3), dtype=np.uint8))
    detect_edges(image, CannyParams(15, 5, 40))


def test_detect_edges_requires_3x3():
    with pytest.raises(ImageTooSmall):
        detect_edges(RgbImage(np.zeros((2, 40, 3), dtype=np.uint8)), CannyParams(10, 5, 10))


def test_uniform_image_has_no_edges():
    for tenths in (10, 15, 20, 30):
        image = RgbImage(np.full((16, 16, 3), 200, dtype=np.uint8))
        assert detect_edges(image, CannyParams(tenths, 20, 40)).count == 0


def test_half_plane_step_yields_one_tight_vertical_edge():
    for tenths in (10, 15, 20):
        width = height = 24
        step = width // 2
        pixels = np.zeros((height, width, 3), dtype=np.uint8)
        pixels[:, step:] = 200
        edges = detect_edges(RgbImage(pixels), CannyParams(tenths, 20, 40))
        ys, xs = np.nonzero(edges.membership)
        assert set(ys.tolist()) == set(range(height))  # spans every row
        assert np.all(np.abs(xs - step) <= 2)  # hugs the boundary
        assert oracles.count_components(edges.membership) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_detector_ignores_payload_bits(seed):
    # flipping any of channel bits 0..2 anywhere can never change the result
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (12, 14, 3), dtype=np.uint8)
    noise = rng.integers(0, 8, (12, 14, 3), dtype=np.uint8)
    tweaked = ((pixels & 0xF8) | noise).astype(np.uint8)
    params = CannyParams(int(rng.integers(10, 31)), 10, 60)
    assert detect_edges(RgbImage(pixels), params) == detect_edges(RgbImage(tweaked), params)


def test_raising_high_threshold_never_adds_edges():
    rng = np.random.default_rng(23)
    image = RgbImage(rng.integers(0, 256, (20, 20, 3), dtype=np.uint8))
    maps = [detect_edges(image, CannyParams(15, 10, high)) for high in (30, 60, 90, 120)]
    for tighter, looser in zip(maps[1:], maps):
        assert not np.any(tighter.membership & ~looser.membership)


def test_detector_is_deterministic():
    rng = np.random.default_rng(2024)
    image = RgbImage(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
    params = CannyParams(15, 5, 40)
    assert detect_edges(image, params) == detect_edges(image, params)


def test_detector_frozen_output():
    # Regression pin: both parties must compute bit-identical edge maps, so
    # any drift in rounding, borders or tie-breaking has to show up here.
    rng = np.random.default_rng(77)
    image = RgbImage(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
    edges = detect_edges(image, CannyParams(20, 20, 30))
    digest = hashlib.sha256(np.packbits(edges.membership).tobytes()).hexdigest()
    assert edges.count == 169
    assert digest == "4e554701cebcf39cf8bf5a030dcb5aa1e32fd71f40c796a7bca57fe1e253d909"
