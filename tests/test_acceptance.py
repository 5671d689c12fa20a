"""Acceptance suite for the whole hiding scheme.

Each test covers one advertised guarantee and prints a single
``[PASS]``/``[FAIL]`` line (visible even under pytest's capture). The
heavier randomized suites share one prebuilt batch of round trips.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from edgestego import (
    CannyParams,
    EdgeMap,
    RgbImage,
    capacity_bytes,
    detect_edges,
    diff,
    embed,
    extract,
    read_bmp,
    write_bmp,
)
from edgestego.canny import hysteresis, non_max_suppression, smooth
from edgestego.carrier import carrier_count
from edgestego.image import GrayImage
from helpers import sobel
import oracles

PARAM_SETS = (
    CannyParams(10, 20, 30),
    CannyParams(15, 5, 40),
    CannyParams(20, 20, 30),
    CannyParams(30, 0, 255),
)


@contextlib.contextmanager
def _criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


@pytest.fixture(scope="module")
def round_trips():
    """200 random (image, payload, params) triples, embedded and extracted.

    Covers sizes 27..64 on both axes, payload lengths from zero to full
    capacity, and all four parameter sets. The captured duration counts
    only embed+extract work.
    """
    rng = np.random.default_rng(0xED6E)
    cases = []
    codec_seconds = 0.0
    for i in range(200):
        width = int(rng.integers(27, 65))
        height = int(rng.integers(27, 65))
        image = RgbImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
        params = PARAM_SETS[i % len(PARAM_SETS)]
        cap = capacity_bytes(detect_edges(image, params))
        payload = rng.integers(0, 256, int(rng.integers(0, cap + 1)), dtype=np.uint8).tobytes()
        start = time.perf_counter()
        carrier = embed(image, payload, params)
        recovered, recovered_params = extract(carrier)
        codec_seconds += time.perf_counter() - start
        cases.append((image, payload, params, carrier, recovered, recovered_params))
    return cases, codec_seconds


def test_criterion_1_capacity_arithmetic(capsys):
    with capsys.disabled(), _criterion(
        "1: 5630 carriers -> 50670 bits -> 6333 bytes, computed in under 1 ms"
    ):
        membership = np.zeros((80, 80), dtype=bool)
        membership.reshape(-1)[80 : 80 + 5630] = True  # row 0 stays clear
        edges = EdgeMap(membership)
        assert edges.count == 5630
        assert carrier_count(edges) == 5630
        capacity_bytes(edges)  # warm-up
        start = time.perf_counter()
        result = capacity_bytes(edges)
        elapsed = time.perf_counter() - start
        assert result == 6333
        assert elapsed < 0.001


def test_criterion_2_round_trips_are_exact(capsys, round_trips):
    cases, codec_seconds = round_trips
    with capsys.disabled(), _criterion(
        f"2: 200 random embed/extract round trips exact "
        f"({codec_seconds:.1f}s of codec work, budget 30s)"
    ):
        for _image, payload, params, _carrier, recovered, recovered_params in cases:
            assert recovered == payload
            assert recovered_params == params
        assert codec_seconds < 30.0


def test_criterion_3_carriers_keep_the_edge_map(capsys, round_trips):
    cases, _ = round_trips
    with capsys.disabled(), _criterion(
        "3: every carrier reproduces its cover's edge map exactly"
    ):
        for image, _payload, params, carrier, _r, _rp in cases:
            assert detect_edges(image, params) == detect_edges(carrier, params)


def test_criterion_4_detector_shrugs_off_lsb_noise(capsys):
    with capsys.disabled(), _criterion(
        "4: 100 images x 1000 random LSB flips x 3 parameter sets leave "
        "edge maps untouched (budget 20s)"
    ):
        rng = np.random.default_rng(0xF11B5)
        param_sets = (CannyParams(10, 20, 30), CannyParams(15, 5, 40), CannyParams(30, 0, 255))
        start = time.perf_counter()
        for _ in range(100):
            width = int(rng.integers(16, 41))
            height = int(rng.integers(16, 41))
            pixels = rng.integers(0, 256, (height, width, 3), dtype=np.uint8)
            flipped = pixels.copy()
            ys = rng.integers(0, height, 1000)
            xs = rng.integers(0, width, 1000)
            cs = rng.integers(0, 3, 1000)
            masks = (1 << rng.integers(0, 3, 1000)).astype(np.uint8)
            np.bitwise_xor.at(flipped, (ys, xs, cs), masks)
            original, noisy = RgbImage(pixels), RgbImage(flipped)
            for params in param_sets:
                assert detect_edges(original, params) == detect_edges(noisy, params)
        assert time.perf_counter() - start < 20.0


def test_criterion_5_stages_match_brute_force(capsys):
    with capsys.disabled(), _criterion(
        "5: 50 random instances per stage agree with brute-force references"
    ):
        rng = np.random.default_rng(0x0AC1E)

        for _ in range(50):  # smoothing: within 1 gray level of direct 2-D convolution
            height, width = (int(v) for v in rng.integers(3, 13, size=2))
            values = rng.integers(0, 256, (height, width), dtype=np.uint8)
            tenths = int(rng.integers(10, 31))
            gray = GrayImage(values.copy())  # smooth writes over it
            ours = smooth(gray, CannyParams(tenths, 0, 255)).values.astype(int)
            ref = oracles.smooth_reference(values, tenths / 10.0).astype(int)
            assert np.abs(ours - ref).max() <= 1

        for _ in range(50):  # derivatives: exact
            height, width = (int(v) for v in rng.integers(3, 13, size=2))
            values = rng.integers(0, 256, (height, width), dtype=np.uint8)
            gx, gy = sobel(values)
            rx, ry = oracles.sobel_reference(values)
            assert gx.dtype == gy.dtype == np.int16
            assert np.array_equal(gx, rx) and np.array_equal(gy, ry)

        for _ in range(50):  # rescale and thinning: exact
            height, width = (int(v) for v in rng.integers(1, 13, size=2))
            raw = rng.integers(0, 1444, (height, width), dtype=np.uint16)
            direction = rng.choice(np.array([0, 45, 90, 135], dtype=np.uint8), (height, width))
            assert np.array_equal(
                non_max_suppression([raw], direction.copy()),  # it writes over the copy
                oracles.nms_reference(oracles.rescale_reference(raw), direction),
            )

        for _ in range(50):  # linking: exact against fixpoint reachability
            height, width = (int(v) for v in rng.integers(1, 13, size=2))
            thinned = rng.integers(0, 256, (height, width), dtype=np.uint8)
            low = int(rng.integers(0, 200))
            high = int(rng.integers(low, 256))
            edges = hysteresis(thinned, CannyParams(15, low, high))
            assert np.array_equal(
                edges.membership, oracles.hysteresis_reference(thinned, low, high)
            )


def test_criterion_6_distortion_stays_bounded(capsys, round_trips):
    cases, _ = round_trips
    with capsys.disabled(), _criterion(
        "6: embedding never touches bits 3..7 and PSNR stays above the "
        "three-LSB floor (~31.23 dB)"
    ):
        floor_db = 10 * math.log10(255**2 / 49)
        for image, _payload, _params, carrier, _r, _rp in cases:
            changed = image.pixels ^ carrier.pixels
            assert not np.any(changed & 0xF8)
            report = diff(image, carrier)
            assert report.max_channel_delta <= 7
            assert report.psnr_db >= floor_db


def test_criterion_7_bmp_round_trip(capsys):
    with capsys.disabled(), _criterion(
        "7: BMP encode/decode round trips pixels exactly and encodes "
        "deterministically (dims 1..64, all strides)"
    ):
        rng = np.random.default_rng(0xB111)
        dims = {(1, 1), (1, 7), (2, 5), (3, 3), (3, 8), (5, 1), (5, 4), (4, 4)}
        dims |= {
            (int(rng.integers(1, 65)), int(rng.integers(1, 65))) for _ in range(40)
        }
        for width, height in sorted(dims):
            image = RgbImage(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))
            encoded = write_bmp(image)
            assert read_bmp(encoded) == image
            assert write_bmp(image) == encoded


def test_criterion_8_analytic_images(capsys):
    with capsys.disabled(), _criterion(
        "8: uniform image yields zero edges; half-plane step yields a single "
        "full-height vertical edge at the boundary"
    ):
        for tenths in (10, 15, 20):
            params = CannyParams(tenths, 20, 40)

            flat = RgbImage(np.full((32, 32, 3), 96, dtype=np.uint8))
            assert detect_edges(flat, params).count == 0

            width = height = 32
            step = width // 2
            pixels = np.zeros((height, width, 3), dtype=np.uint8)
            pixels[:, step:] = 200
            edges = detect_edges(RgbImage(pixels), params)
            ys, xs = np.nonzero(edges.membership)
            assert set(ys.tolist()) == set(range(height))  # every row covered
            assert np.all(np.abs(xs - step) <= 2)  # within two columns of the step
            assert oracles.count_components(edges.membership) == 1
