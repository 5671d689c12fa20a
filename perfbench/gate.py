"""The bit-identical output gate.

For one cover it checks the four things the protocol promises:

1. ``extract`` returns the exact payload and parameters;
2. the carrier differs from the cover only in bits 0..2, and only at the
   80 row-0 header slots (bit 0) and the carrier pixels that hold payload;
3. the detector gives the carrier the cover's edge map;
4. under the default seed, the SHA-256 of the cover's edge map and of
   ``write_bmp(embed(...))`` match the digests recorded in ``digests.json``.

It also checks that the carrier survives a BMP write and read unchanged.
Every problem found is returned as a line of text; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")
HEADER_SLOTS = 80  # header bits, one per row-0 channel slot, in bit 0 (wire format v1)
BITS_PER_CARRIER = 9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests(workload: str) -> list[dict] | None:
    """Recorded digests of one workload's default-seed covers, or None."""
    if not DIGESTS_PATH.exists():
        return None
    return json.loads(DIGESTS_PATH.read_text()).get(workload)


@dataclass
class CoverCheck:
    problems: list[str] = field(default_factory=list)
    edge_density: float = 0.0
    capacity: int = 0
    psnr_db: float = 0.0
    digests: dict = field(default_factory=dict)  # edges, carrier_bmp, carrier_pixels


def allowed_bits(shape, edges: np.ndarray, payload_len: int) -> np.ndarray:
    """Per channel, the bits embedding may change: header slots and used carriers."""
    allowed = np.zeros(shape, dtype=np.uint8)
    allowed[0].reshape(-1)[:HEADER_SLOTS] = 0x01
    ys, xs = np.nonzero(edges)  # carriers are the edge pixels in row-major order
    below_row0 = ys >= 1
    used = -(-8 * payload_len // BITS_PER_CARRIER)
    allowed[ys[below_row0][:used], xs[below_row0][:used]] = 0x07
    return allowed


def check_cover(es, cover: np.ndarray, payload: bytes, params, carrier, extracted,
                expected: dict | None) -> CoverCheck:
    """Run checks 1-4 on ``carrier`` (an RgbImage) and ``extracted``.

    ``es`` is the imported ``edgestego`` package; ``expected`` holds the
    recorded digests, or None when the seed is not the default one.
    """
    out = CoverCheck()
    cover_image = es.image.RgbImage(cover)
    edges = es.canny.detect_edges(cover_image, params)
    membership = edges.membership
    out.edge_density = float(np.count_nonzero(membership)) / membership.size
    out.capacity = es.carrier.capacity_bytes(edges)

    if extracted != (payload, params):
        out.problems.append("extract did not return the embedded payload and params")

    pixels = carrier.pixels
    if pixels.shape != cover.shape:
        out.problems.append(f"carrier shape {pixels.shape} != cover shape {cover.shape}")
        return out
    changed = pixels ^ cover
    if np.any(changed & 0xF8):
        out.problems.append("carrier changed bits 3..7 of some channel")
    stray = changed & ~allowed_bits(cover.shape, membership, len(payload))
    if np.any(stray):
        ys, xs, _ = np.nonzero(stray)
        out.problems.append(f"carrier changed {ys.size} channel(s) outside the header "
                            f"slots and used carriers, first at (x={xs[0]}, y={ys[0]})")

    if es.canny.detect_edges(carrier, params) != edges:
        out.problems.append("the carrier's edge map differs from the cover's")

    bmp = es.bmp.write_bmp(carrier)
    if es.bmp.read_bmp(bmp) != carrier:
        out.problems.append("the carrier does not survive a BMP write and read")
    out.psnr_db = es.metrics.diff(cover_image, carrier).psnr_db

    out.digests = {
        "edges": sha256(np.packbits(membership).tobytes()),
        "carrier_bmp": sha256(bmp),
        "carrier_pixels": sha256(pixels.tobytes()),
    }
    if expected is not None:
        for key in ("edges", "carrier_bmp"):
            if out.digests[key] != expected.get(key):
                out.problems.append(f"{key} digest {out.digests[key][:12]} does not match "
                                    f"the recorded {str(expected.get(key))[:12]}")
    return out
