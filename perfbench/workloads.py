"""Workload definitions and the seeded input generators.

Everything here uses numpy only, so the inputs never depend on the code
under test: the program receives only the generated covers and payloads.
The arithmetic is integer or IEEE float32 add/multiply (no transcendental
functions), so a seed gives byte-identical inputs on any machine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "photo" or "noise"
    size: int  # covers are size x size
    sigma_tenths: int
    low: int
    high: int
    payload_bytes: int
    path: str  # "library" times embed()/extract(); "cli" times cli.main()
    covers: int  # covers per run; operations cycle over them

    @property
    def sigma_arg(self) -> str:
        return f"{self.sigma_tenths // 10}.{self.sigma_tenths % 10}"


# Payload sizes are fixed, not derived from each cover's capacity, so that
# making the inputs never runs the program. They sit well inside the
# capacity range measured over many seeds (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-smooth", "photo", 2048, 30, 20, 60, 4096, "library", 1),
        Workload("dense-noise", "noise", 1024, 10, 5, 40, 422_000, "library", 2),
        Workload("cli-batch", "photo", 512, 15, 10, 50, 1_600, "cli", 4),
    )
}


def photo_cover(rng: np.random.Generator, n: int) -> np.ndarray:
    """A photo-like (n, n, 3) uint8 cover.

    A low-frequency colour field (bilinear upsampling of a coarse random
    grid), filled discs and rectangles inside the frame whose outlines make
    the edges (12 per 1024^2, at least 12), and +-3 of uniform noise. The result is
    C-contiguous like read_bmp's output: the detector runs several times
    slower on a strided array.
    """
    cells = 4
    coarse = rng.uniform(60.0, 190.0, size=(cells + 1, cells + 1, 3)).astype(np.float32)
    pos = np.arange(n, dtype=np.float32) * np.float32(cells / n)
    i0 = pos.astype(np.int64)
    f = (pos - i0.astype(np.float32))[:, None, None]
    rows = coarse[i0] * (1 - f) + coarse[i0 + 1] * f  # (n, cells + 1, 3)
    g = f.reshape(1, n, 1)
    field = rows[:, i0] * (1 - g) + rows[:, i0 + 1] * g  # (n, n, 3)

    for _ in range(12 * max(1, n // 1024)):
        r = int(rng.integers(n // 40, n // 12))
        cx, cy = rng.integers(r, n - r, size=2).tolist()
        # one sign for all three channels, so every outline has luminance contrast
        shift = rng.uniform(40.0, 90.0, size=3) * rng.choice([-1.0, 1.0])
        y0, y1, x0, x1 = cy - r, cy + r, cx - r, cx + r
        if rng.integers(0, 2):
            yy = np.arange(y0, y1)[:, None] - cy
            xx = np.arange(x0, x1)[None, :] - cx
            mask = yy * yy + xx * xx < r * r
        else:
            mask = np.ones((y1 - y0, x1 - x0), dtype=bool)
        field[y0:y1, x0:x1][mask] += shift.astype(np.float32)

    noise = rng.integers(-3, 4, size=field.shape, dtype=np.int8)
    return np.ascontiguousarray(np.clip(np.rint(field) + noise, 0, 255), dtype=np.uint8)


def noise_cover(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform 8-bit noise in every channel."""
    return rng.integers(0, 256, size=(n, n, 3), dtype=np.uint8)


def make_inputs(workload: Workload, seed: int) -> list[tuple[np.ndarray, bytes]]:
    """The (cover pixels, payload) pairs of one run; equal seeds give equal bytes."""
    rng = np.random.default_rng([seed, workload.size, workload.sigma_tenths])
    make = photo_cover if workload.kind == "photo" else noise_cover
    inputs = []
    for _ in range(workload.covers):
        cover = make(rng, workload.size)
        inputs.append((cover, rng.bytes(workload.payload_bytes)))
    return inputs


def encode_bmp(pixels: np.ndarray) -> bytes:
    """A bottom-up 24-bit BI_RGB BMP of ``pixels``, written without the program."""
    height, width, _ = pixels.shape
    stride = (3 * width + 3) // 4 * 4
    rows = np.zeros((height, stride), dtype=np.uint8)
    rows[:, : 3 * width] = pixels[::-1, :, ::-1].reshape(height, 3 * width)
    header = struct.pack("<2sIHHI", b"BM", 54 + rows.size, 0, 0, 54) + struct.pack(
        "<IiiHHIIiiII", 40, width, height, 1, 24, 0, rows.size, 2835, 2835, 0, 0
    )
    return header + rows.tobytes()
