"""Known-answer vectors: pinned SHA-256 digests of edge maps and carrier files.

Round-trip tests run the same code on both sides, so they cannot notice a
change that moves carriers consistently. These digests can: two seeded
covers crossed with the acceptance suite's four parameter sets, each with
the digest of its packed edge map and of ``write_bmp(embed(...))`` for a
fixed payload. A refactor must leave every digest unchanged.
"""

import hashlib

import numpy as np
import pytest

from edgestego import RgbImage, detect_edges, embed, write_bmp
from test_acceptance import PARAM_SETS

PAYLOAD = bytes(range(200))  # fits every cover/params pair below

# (cover seed, PARAM_SETS index) -> (edge map digest, carrier BMP digest)
VECTORS = {
    (1, 0): (
        "a9857358e1fec349c434ba98e0f07b8dc5f611a48bb9e8fa08c0e08c1ab80062",
        "35ccd6aeedd156b86aa79d0c6bf90514d74201e168779755d4bf268b59f4fa88",
    ),
    (1, 1): (
        "34dcc1a7d3ef983cfb0ad8b47a18d8c5d95a59f3b552f895443d14c95ffd048b",
        "0e23b26befd8de57b7d741370105b481c8905526bb88fb91f1881a08cb5b9fc0",
    ),
    (1, 2): (
        "bd4c98197208ded216b2222a10f239f6d3bff0d1e385a5a04fbc0697364c0cdf",
        "5efa90cfc7924875f26068c52c7699b1ae88eeed1399846e223f6f12c4240e31",
    ),
    (1, 3): (
        "a292bc4a1d8d3caa7dd32d1858f7d642a27373526b84cde7df8634faad708d2a",
        "441db3cfbf25a18a9b6a26d77f7c6f2e6ea94bab4f873f3ecd5706895b9d9f0f",
    ),
    (2, 0): (
        "dab9d8c9330ff23a3ca39aef1a2813df4cd077907528dbf9d0f6cfe26d27cdd4",
        "f51f62f2f77dfd2c3d1c8968f1b488798b08dfb57fdfbcb87b15cce00b49f363",
    ),
    (2, 1): (
        "09fe13bbf5ec09ff2deb3d2df5f7e96849db2b6bbdb50d6ddf576a7bcf27f2e4",
        "ecb56c09e8fa2047ba0c36903534e9ea29865072cce8f218584d97a066bc9488",
    ),
    (2, 2): (
        "120177acff2ca0adbb92300b37306d4c319ced8a56641db8cbe39215d7e64e76",
        "4df8c58ef7522c91405703c53be2bf89e232b414e8014e0960da86f2517c58dd",
    ),
    (2, 3): (
        "a292bc4a1d8d3caa7dd32d1858f7d642a27373526b84cde7df8634faad708d2a",
        "39a2149c5bbb782899b3761694ff699b52bfeef29ff3ad65c14713d494d031ba",
    ),
}


def _cover(seed):
    """A 64x48 ramp with one bright rectangle and mild noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:48, 0:64]
    ramp = (2 * xx + 3 * yy)[..., None] + rng.integers(0, 60, 3)
    x0, y0 = (int(v) for v in rng.integers(8, 24, 2))
    ramp[y0 : y0 + 20, x0 : x0 + 24] += 90
    noisy = ramp + rng.integers(0, 12, ramp.shape)
    return RgbImage(np.clip(noisy, 0, 255).astype(np.uint8))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed,index", sorted(VECTORS))
def test_known_answer(seed, index):
    cover, params = _cover(seed), PARAM_SETS[index]
    edges_digest, bmp_digest = VECTORS[seed, index]
    edges = detect_edges(cover, params)
    assert _sha256(np.packbits(edges.membership).tobytes()) == edges_digest
    assert _sha256(write_bmp(embed(cover, PAYLOAD, params))) == bmp_digest
