"""Distortion measurement between a cover and its carrier."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .image import RgbImage


@dataclass(frozen=True)
class DiffReport:
    """Channel-level difference statistics between two equally sized images."""

    changed_pixels: int
    changed_channels: int
    max_channel_delta: int
    mse: float
    psnr_db: float  # +inf for identical images


def diff(a: RgbImage, b: RgbImage) -> DiffReport:
    """MSE/PSNR over all channel values plus change counts."""
    if a.width != b.width or a.height != b.height:
        raise DimensionMismatch(f"{a.width}x{a.height} vs {b.width}x{b.height}")
    delta = np.maximum(a.pixels, b.pixels) - np.minimum(a.pixels, b.pixels)  # |a - b|, uint8
    # exact: every square fits uint16 and the int64 sum holds them all
    mse = float(np.square(delta, dtype=np.uint16).sum(dtype=np.int64) / delta.size)
    psnr = math.inf if mse == 0.0 else 10.0 * math.log10(255.0**2 / mse)
    return DiffReport(
        # OR of the channel planes: any(axis=2) reduces a 3-wide axis, numpy's slow path
        changed_pixels=int(np.count_nonzero(delta[..., 0] | delta[..., 1] | delta[..., 2])),
        changed_channels=int(np.count_nonzero(delta)),
        max_channel_delta=int(delta.max()),
        mse=mse,
        psnr_db=psnr,
    )
