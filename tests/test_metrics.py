"""Distortion reporting between a cover and its carrier."""

import math

import numpy as np
import pytest

from edgestego import (
    CannyParams,
    DimensionMismatch,
    RgbImage,
    capacity_bytes,
    detect_edges,
    diff,
    embed,
)
from edgestego.metrics import DiffReport
from helpers import random_image

PARAMS = CannyParams(15, 5, 40)


def test_identical_images_report_zero_and_infinite_psnr():
    image = random_image(0, 9, 7)
    assert diff(image, image) == DiffReport(0, 0, 0, 0.0, math.inf)


def test_single_channel_delta():
    a = RgbImage(np.zeros((1, 1, 3), dtype=np.uint8))
    b = RgbImage(np.array([[[7, 0, 0]]], dtype=np.uint8))
    report = diff(a, b)
    assert report.changed_pixels == 1
    assert report.changed_channels == 1
    assert report.max_channel_delta == 7
    # 49 spread over the three channel samples of the single pixel
    assert report.mse == pytest.approx(49 / 3)
    assert report.psnr_db == pytest.approx(10 * math.log10(255**2 * 3 / 49), rel=1e-12)


def test_full_scale_delta_keeps_its_square():
    # 255**2 needs all 16 bits of the square; a narrower one would wrap
    black = RgbImage(np.zeros((3, 2, 3), dtype=np.uint8))
    white = RgbImage(np.full((3, 2, 3), 255, dtype=np.uint8))
    for a, b in ((black, white), (white, black)):
        report = diff(a, b)
        assert report.mse == 65025.0
        assert report.psnr_db == 0.0
        assert report.max_channel_delta == 255


def test_counts_distinguish_pixels_from_channels():
    a = RgbImage(np.zeros((2, 2, 3), dtype=np.uint8))
    pixels = np.zeros((2, 2, 3), dtype=np.uint8)
    pixels[0, 0] = (1, 2, 0)  # one pixel, two channels
    pixels[1, 1] = (0, 0, 5)  # one pixel, one channel
    report = diff(a, RgbImage(pixels))
    assert report.changed_pixels == 2
    assert report.changed_channels == 3
    assert report.max_channel_delta == 5


def test_diff_is_symmetric():
    assert diff(random_image(1, 8, 8), random_image(2, 8, 8)) == diff(
        random_image(2, 8, 8), random_image(1, 8, 8)
    )


def test_diff_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        diff(random_image(0, 8, 8), random_image(0, 8, 9))


def test_diff_rejects_width_mismatch():
    with pytest.raises(DimensionMismatch, match="^8x8 vs 9x8$"):
        diff(random_image(0, 8, 8), random_image(0, 9, 8))


def test_full_embed_stays_above_the_distortion_floor():
    image = random_image(3, 40, 40)
    cap = capacity_bytes(detect_edges(image, PARAMS))
    rng = np.random.default_rng(4)
    carrier = embed(image, rng.integers(0, 256, cap, dtype=np.uint8).tobytes(), PARAMS)
    report = diff(image, carrier)
    assert report.max_channel_delta <= 7
    # worst case is every channel off by 7: 10*log10(255^2/49)
    assert report.psnr_db >= 10 * math.log10(255**2 / 49)


def test_stability_holds_for_real_carriers():
    image = random_image(5, 32, 32)
    carrier = embed(image, b"stability probe", PARAMS)
    assert detect_edges(image, PARAMS) == detect_edges(carrier, PARAMS)
