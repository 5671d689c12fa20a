"""Known-answer vectors: pinned SHA-256 digests of edge maps and carrier files.

Round-trip tests run the same code on both sides, so they cannot notice a
change that moves carriers consistently. These digests can: two seeded
covers crossed with the acceptance suite's four parameter sets, each with
the digest of its packed edge map and of ``write_bmp(embed(...))`` for a
fixed payload; two taller covers whose heights are not a multiple of the
detector's row block; 300 x 700 covers that cross ten seams between blocks
of magnitudes, one of them mixing one- and two-byte blocks; for each
of these, the digest of every stage's output, recorded from the references
in ``oracles.py`` and checked in pipeline order, so that a failure names
the first stage that diverged; the digests of the Gaussian taps for every
sigma; and a committed carrier file that must keep extracting to its
payload. A refactor must leave every digest unchanged. The last test runs
all of this but the seam covers' references again, once per row of
OpenBLAS sgemm kernel and numpy SIMD targets switched off (from the generic
kernel with every target off up to AVX2 with FMA), as a stand-in for a
receiver on another CPU, together with the masked-gray, smoothing, Sobel,
gradient, root and direction tests of ``test_canny.py``.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from edgestego import CannyParams, RgbImage, detect_edges, embed, extract, read_bmp, write_bmp
from edgestego.canny import (_KERNELS, gradients, hysteresis, non_max_suppression, smooth,
                             to_masked_gray)
from test_acceptance import PARAM_SETS
import oracles

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


def _digests(cover, params):
    """The (edge map digest, carrier BMP digest) pair the vectors pin."""
    edges = detect_edges(cover, params)
    return (_sha256(np.packbits(edges.membership).tobytes()),
            _sha256(write_bmp(embed(cover, PAYLOAD, params))))


@pytest.mark.parametrize("seed,index", sorted(VECTORS))
def test_known_answer(seed, index):
    _assert_stages((seed, index))
    assert _digests(_cover(seed), PARAM_SETS[index]) == VECTORS[seed, index]


# (width, height, sigma in tenths) -> (edge map digest, carrier BMP digest),
# low/high thresholds 5/40; heights 91 and 40 end part-way into a row block
TALL_VECTORS = {
    (157, 91, 10): (
        "a28b2fde08122fc5c9a9d61958f3de78ff88533f333b02a0f09db118181d1106",
        "7f321a5492092e475b085445e84f2faab8fa45bf52b5b9e391e72e42a6a79ee0",
    ),
    (157, 91, 30): (
        "0e14947d0584408c91b03a891ec60378dc74218b27c8042e6dd3bfdcdbc60ac8",
        "1d36f72ec64eab9317d111f44a637d79660eecd94f76266931374af4b3c837cc",
    ),
    (300, 40, 10): (
        "fe7fd6ea3d850bd34431f855f27836dffa76cb68a8f92a7a38028627b48bd9ae",
        "aed66359cad69766b0c9fd4c5cd26708aa6b798f00f380fabf75cd8c27186521",
    ),
    (300, 40, 30): (
        "af13e84ecf13d8a0260f2e75c3b4ce70f68f147a4cefb73f8297408fe1b550d1",
        "6c25876d2d774766cc0bda33b7cf776f5d31de2da561916a39540f8f7cee818c",
    ),
}


def _tall_cover(width, height):
    """A wrapped ramp with three bright rectangles and mild noise."""
    rng = np.random.default_rng(width * height)
    yy, xx = np.mgrid[0:height, 0:width]
    image = ((2 * xx + 3 * yy) % 160)[..., None] + rng.integers(0, 60, 3)
    for _ in range(3):
        x0, y0 = int(rng.integers(0, width - 20)), int(rng.integers(0, height - 10))
        image[y0 : y0 + int(rng.integers(8, height)), x0 : x0 + int(rng.integers(10, 60))] += 80
    noisy = image + rng.integers(0, 12, image.shape)
    return RgbImage(np.clip(noisy, 0, 255).astype(np.uint8))


@pytest.mark.parametrize("width,height,tenths", sorted(TALL_VECTORS))
def test_known_answer_across_row_blocks(width, height, tenths):
    _assert_stages((width, height, tenths))
    cover, params = _tall_cover(width, height), CannyParams(tenths, 5, 40)
    assert _digests(cover, params) == TALL_VECTORS[width, height, tenths]


# (cover kind, sigma in tenths) -> (edge map digest, carrier BMP digest), low/high
# thresholds 5/40, on SEAM_SIZE covers: at that width gradients' row blocks,
# which NMS works through one by one, are 64 rows, so the covers cross ten
# seams. "ramp" is _tall_cover; "step" is _step_cover, whose one-byte
# magnitude blocks above the step meet two-byte ones on it.
SEAM_SIZE = (300, 700)
SEAM_VECTORS = {
    ("ramp", 10): (
        "aa2d816b3d2b05fb9a802987b8ca70e81c9d6b610886a67c769a8449a47a7baf",
        "27eac253ee2891d80bae4b1f0840f2747bdf3a260d87139b54a9fd49d91cf60a",
    ),
    ("step", 10): (
        "cf7ea1dfcfa86953f4d1bcf4b68c27ecbb16aa4973a7c01db0b70b7416667c73",
        "c6be84ae82772dbd70f18b9cb0cb3b708e77afd52fdb7f486b1520c4a1406d45",
    ),
    ("step", 30): (
        "45a2921ddc30b9641eb66f9b883af13ae175ee5753c15eae6170d9d435b2aaac",
        "b7e889550e500dcd6592562a45ffbb5293e9d72bbb202cf1d50c9f6bd8ba9a71",
    ),
}


def _step_cover(width, height):
    """A flat gray with a +40 box and mild noise over a full-contrast step."""
    rng = np.random.default_rng(width + height)
    image = 120 + rng.integers(0, 12, (height, width, 3))
    y0, x0 = int(rng.integers(80, 200)), int(rng.integers(20, width // 2))
    image[y0 : y0 + 200, x0 : x0 + 100] += 40
    step, half = height * 3 // 5, width // 2
    image[step:, :half] = rng.integers(0, 8, (height - step, half, 3))
    image[step:, half:] = 255 - rng.integers(0, 8, (height - step, width - half, 3))
    return RgbImage(image.astype(np.uint8))


@pytest.mark.parametrize("kind,tenths", sorted(SEAM_VECTORS))
def test_known_answer_across_magnitude_and_nms_blocks(kind, tenths):
    _assert_stages((kind, tenths))
    cover, params = _stage_input((kind, tenths))
    raw, _ = gradients(smooth(to_masked_gray(cover), params))
    assert {len(block) for block in raw[:-1]} == {64}
    if kind == "step":
        assert {block.dtype for block in raw} == {np.dtype(np.uint8), np.dtype(np.uint16)}
    assert _digests(cover, params) == SEAM_VECTORS[kind, tenths]


# Per-stage known answers for the same covers and parameters: the SHA-256 of
# each stage's output, recorded from the brute-force references in oracles.py,
# not from the package. The tests above check them first, in pipeline order,
# so that a wrong edge map is reported as the first stage that diverged.
STAGES = ("masked gray", "smoothed", "magnitude and direction", "thinned", "edges")

# VECTORS or TALL_VECTORS key -> the digest of each of STAGES
STAGE_DIGESTS = {
    (1, 0): (
        "fa79b4303ea0a2b557993fd3d496b20c9d578ecf2bc49690e507fa0c81e29377",
        "bb41d3c58689b0f3b39ae443bb9d67a6e77e5df7da93c0cd5ddc8e94df978a12",
        "8787e1d1dace798e1f1e9415b255450f92611ce7956b1fddd1e6629f5113f4e0",
        "a9f7c1c4946d66834ab525dd2fa16806d401d1dafb7bd0ada2d75f558d4928e2",
        "a9857358e1fec349c434ba98e0f07b8dc5f611a48bb9e8fa08c0e08c1ab80062",
    ),
    (1, 1): (
        "fa79b4303ea0a2b557993fd3d496b20c9d578ecf2bc49690e507fa0c81e29377",
        "b9598e3ebe6ce1bd0d1d2dc6959d77a22fb09fa411e245bb9ced6619fbd0efb9",
        "6db69803398168fe0d1c241455f2e95a31e9985e2ad899b93cdd25929ca24211",
        "c0e6f5d9687d3a239f23b199528a6a2e79b9207171fed4448191a86e8c76d8ea",
        "34dcc1a7d3ef983cfb0ad8b47a18d8c5d95a59f3b552f895443d14c95ffd048b",
    ),
    (1, 2): (
        "fa79b4303ea0a2b557993fd3d496b20c9d578ecf2bc49690e507fa0c81e29377",
        "973efa73cb123a5a17dce803af52f6c78403afc57c2c045aebe82c6c5e21ad71",
        "59651e0ff3bbb4513e43855e7219742b727db99d0558a7ad4f64ea866d62e65d",
        "5f7deeedbcde198db1fdafdcdb13f48a84f5ef0ac8ada09b6059e67eaf062f2f",
        "bd4c98197208ded216b2222a10f239f6d3bff0d1e385a5a04fbc0697364c0cdf",
    ),
    (1, 3): (
        "fa79b4303ea0a2b557993fd3d496b20c9d578ecf2bc49690e507fa0c81e29377",
        "999c513eb073fe6aeef2674863c305aff5473d922b4ddc42bff0655c56373268",
        "f2dc805610c086def8f02bacbd02fbe7e493848cb9a5e7cdc232a939165a3b03",
        "67868f718a30489f81f8727c76c9640dc464d89489a47e7a97235b03397b5cbf",
        "a292bc4a1d8d3caa7dd32d1858f7d642a27373526b84cde7df8634faad708d2a",
    ),
    (2, 0): (
        "4a17f270c783dc1be7b68a41385c7631a6be0548badacff928eaea4eb00a7f5c",
        "165b7692e9fb0ee0c6fc71ccd78984e9faf003b774d79aaea420ac72fa4a6e76",
        "dfcfd6f1398080e7639aff04019f782e703e28669b2778a8ce556dece4c70f96",
        "edd96870aae044bdf7e8746af10ae6e5da3855d675220df5a692e750fc5af5fc",
        "dab9d8c9330ff23a3ca39aef1a2813df4cd077907528dbf9d0f6cfe26d27cdd4",
    ),
    (2, 1): (
        "4a17f270c783dc1be7b68a41385c7631a6be0548badacff928eaea4eb00a7f5c",
        "cf4aae154ee7a96ea98cfa57318030551f671d4a42588558691167129ef571df",
        "77a76972e147d64f813c652c040a3c1c9c324f83fa1237c2e15114ac8dded37d",
        "63c8038f5776aa4cfca41131a8f675434387c3f7f884a9c3fe563bf7684a4509",
        "09fe13bbf5ec09ff2deb3d2df5f7e96849db2b6bbdb50d6ddf576a7bcf27f2e4",
    ),
    (2, 2): (
        "4a17f270c783dc1be7b68a41385c7631a6be0548badacff928eaea4eb00a7f5c",
        "cf90cc18a7b7db933524c3dd44c94354db1b913f95b134cdbe0286536dc2582f",
        "d5cd36230a15628a70d0cc7e9efe8996c807db81927b3bc9be0d9ae1c644bc8e",
        "5a38cbd3f00d37f4ab53d58a49d16518d159a1e9111f9c6fe15aa18b29d7b941",
        "120177acff2ca0adbb92300b37306d4c319ced8a56641db8cbe39215d7e64e76",
    ),
    (2, 3): (
        "4a17f270c783dc1be7b68a41385c7631a6be0548badacff928eaea4eb00a7f5c",
        "fd068b454db32411135fe31d2c2af1b29490a5d1999cd26897778c5eadfc8f6d",
        "ca7f5d713a0a3549c5f2a2a204111e027ff83136b2de66a4d5df17cc2e5b8519",
        "6e0b4917e0895974a224fa011ab121e7341201431a3ad2ff8c97630e1d939574",
        "a292bc4a1d8d3caa7dd32d1858f7d642a27373526b84cde7df8634faad708d2a",
    ),
    (157, 91, 10): (
        "6330adfb5f55df13a4301096c8abbd1b55b2dafe0998221f4d9531134529c74c",
        "99c9dd6123f4cca29afbe26c047525ebcf4edd159780c44d27b054cf7c082b53",
        "c697c1719f19dbb1babf78ca8a1db7514f1843468eca305fd6047634d53ec59a",
        "2dfcc3f9cc01f5ec5110cd295a226093b859ab678e0e136e92f0eea101ecd23a",
        "a28b2fde08122fc5c9a9d61958f3de78ff88533f333b02a0f09db118181d1106",
    ),
    (157, 91, 30): (
        "6330adfb5f55df13a4301096c8abbd1b55b2dafe0998221f4d9531134529c74c",
        "e28b5b7988a5d49b5a9499dca378712c90a088020efb956bf147d56df4df2dbd",
        "7e7b9f73202d3b30a95b8f7c15ed20f7096b49371f9ac5b68fc9d6a3328d213b",
        "b4a26415ebdff0d08ce8052b35d2b0a18480a3888dcc158d4e180e3d6816885c",
        "0e14947d0584408c91b03a891ec60378dc74218b27c8042e6dd3bfdcdbc60ac8",
    ),
    (300, 40, 10): (
        "f360c3c2aaa2420607a817da318ba14aabbc9f6c87f2141d38367051cf1f0d9e",
        "f888f14e12cbdd19f72a352d7553df2896d6aacfd6cdd2630d47bc3564c1727b",
        "2bd81652fe388b8ae0d5ef74cacc8d246bd9b8b8e2d5c40def1616c9b851d2da",
        "bad700a722c176af4e19a9762bce64bb191664b80da53e4286c83c9ba5494a74",
        "fe7fd6ea3d850bd34431f855f27836dffa76cb68a8f92a7a38028627b48bd9ae",
    ),
    (300, 40, 30): (
        "f360c3c2aaa2420607a817da318ba14aabbc9f6c87f2141d38367051cf1f0d9e",
        "8b075cf9454572e8058acdffa5c298104dfd10ec00f767243b03a51515ebaf9f",
        "8b0010cb49816518bdd96a6075f5006e54ed870342a7808538c28aba2df5e5eb",
        "1e8b4d3fdd19d538775ebeeece93540ea0a9807013c032de761508053f4f726c",
        "af13e84ecf13d8a0260f2e75c3b4ce70f68f147a4cefb73f8297408fe1b550d1",
    ),
    ("ramp", 10): (
        "1c86dd4632107fbb38e2c7b9d46b25ecb3bc49bc94c7f06bb2fdd900c54c5892",
        "68be1fbd23983fc0e4ab21dcc7cd14b20124315324538379f9af106d0668abc4",
        "497cf4cd1121f9fb1141213ce5a76ce9464b90a61f3ae27d4c67d1f54a575bb8",
        "12ee9b99e26834ee7fc75881aa136788e0cc0ef7c1f41d4ac5a13a5ba215b467",
        "aa2d816b3d2b05fb9a802987b8ca70e81c9d6b610886a67c769a8449a47a7baf",
    ),
    ("step", 10): (
        "570bd7ca6b344daf38f02f1609e11b7823d682f69371e1f293dd1adf5e7f4c33",
        "fbf5c28a4ac65e906d5d512f83c87eeab64462c8bd45088263cd816fbbfcfe76",
        "5e7fee603eac87602c73ca6d1e9e1182226d8dc9e3336009bb78fffabbc153e3",
        "49b5c03bc658378d34b17f46221b436248ad1e9d2ebcb065ea2d4adf0f45662a",
        "cf7ea1dfcfa86953f4d1bcf4b68c27ecbb16aa4973a7c01db0b70b7416667c73",
    ),
    ("step", 30): (
        "570bd7ca6b344daf38f02f1609e11b7823d682f69371e1f293dd1adf5e7f4c33",
        "f6cad094fd3b811cffcffd5bfabfc61c9470dcd955fd06583862fd73186ab38e",
        "e2c75a250c97f3682ce16571da76209ff9cfe2764380ec762ee6d70a10b2f43b",
        "b9fd6f151b07d09ea03fef1e95198fc4cab547a4a1da7e78518a691c55330609",
        "45a2921ddc30b9641eb66f9b883af13ae175ee5753c15eae6170d9d435b2aaac",
    ),
}


def _stage_input(key):
    if key in SEAM_VECTORS:
        kind, tenths = key
        make = _tall_cover if kind == "ramp" else _step_cover
        return make(*SEAM_SIZE), CannyParams(tenths, 5, 40)
    if len(key) == 2:
        seed, index = key
        return _cover(seed), PARAM_SETS[index]
    width, height, tenths = key
    return _tall_cover(width, height), CannyParams(tenths, 5, 40)


def _stage_hash(*arrays):
    return _sha256(b"".join(array.tobytes() for array in arrays))


def _stage_digests(cover, params):
    """Each stage's digest as the package computes it, taken before the next
    stage writes over that stage's output. NMS rescales the magnitudes as it
    reads them, so the third digest hashes the reference rescale of the
    package's rounded magnitudes beside its directions."""
    gray = to_masked_gray(cover)
    digests = [_stage_hash(gray.values)]
    smoothed = smooth(gray, params)
    digests.append(_stage_hash(smoothed.values))
    raw, direction = gradients(smoothed)
    digests.append(_stage_hash(oracles.rescale_reference(np.concatenate(raw)), direction))
    thinned = non_max_suppression(raw, direction)
    digests.append(_stage_hash(thinned))
    digests.append(_stage_hash(np.packbits(hysteresis(thinned, params).membership)))
    return tuple(digests)


def _reference_stage_digests(cover, params):
    """Each stage's digest from the references, the way STAGE_DIGESTS was recorded."""
    gray = np.array([[oracles.masked_gray_reference(*pixel) for pixel in row]
                     for row in cover.pixels.astype(int)], dtype=np.uint8)
    smoothed = oracles.smooth_separable_reference(gray, _KERNELS[params.sigma_tenths])
    gx, gy = oracles.sobel_reference(smoothed)
    magnitude = oracles.rescale_reference(np.floor(np.sqrt(gx * gx + gy * gy) + 0.5))
    direction = oracles.direction_reference(gx, gy)
    thinned = oracles.nms_reference(magnitude, direction)
    edges = oracles.hysteresis_dense_reference(thinned, params.low_threshold,
                                               params.high_threshold)
    return (_stage_hash(gray), _stage_hash(smoothed), _stage_hash(magnitude, direction),
            _stage_hash(thinned), _stage_hash(np.packbits(edges)))


def _assert_stages(key):
    got = _stage_digests(*_stage_input(key))
    for stage, digest, pinned in zip(STAGES, got, STAGE_DIGESTS[key]):
        assert digest == pinned, f"{key}: {stage} is the first stage that diverged"


def test_stage_digests_are_the_references():
    for key, digests in STAGE_DIGESTS.items():
        if key not in SEAM_VECTORS:
            assert _reference_stage_digests(*_stage_input(key)) == digests, key


# apart, since the references take about 3 s on each of these covers
@pytest.mark.parametrize("key", sorted(SEAM_VECTORS))
def test_seam_stage_digests_are_the_references(key):
    assert _reference_stage_digests(*_stage_input(key)) == STAGE_DIGESTS[key]


# sigma in tenths -> SHA-256 of the little-endian float64 bytes of the
# detector's full kernel at that sigma. The taps are part of the shared secret:
# an ulp of drift in a tap would move edge maps, so it has to fail here first.
TAP_DIGESTS = {
    10: "b5a0b72f3f5d0d42cdfd74c101e352825d68564183e453b880e1e631047e2922",
    11: "de28725d9f1715f720e8a1925d49eaa41d7a0508d930d90e4715042ebb813ef0",
    12: "45d65c344c8ee556c7356352bd65a9ac3ca87bf3a1478cb2274d433f479858a7",
    13: "c3834e52dd043c8b2d54a52c5f10e0f8337ebdc0a98bb6b8650a52b6d3beaf6d",
    14: "67d34975d77b8842790f9d82d074552bbffda06235ac15db0f2aae93e2f30711",
    15: "5b5f320bd6626a121dd419cfc50b937dd6a5cf1c0b51d079144f55f4a0bdb344",
    16: "22b249e940c063de2ee84daebe6686c57d84a6ee8ad547471dac0f8f0c1dcbcd",
    17: "6469861ef34dfa73ba86f03a6bf165cadda3a3bcdffa9807a69ec4b4e2f0e82a",
    18: "b050ec7abc47751be3a8f91cc900f04f81af2616e6c79da2db330580f1f6f9de",
    19: "52568971f1ae5fc72e7c62d75104eba9082bc86d46215c8220a86272659da9b8",
    20: "a160520ca5230adde535b9d9c18416da504e0e8051623702411be5f36afbab00",
    21: "c6738c5d7bf283b728f05113c829694391e9c671b161441f99da13378e48f5e3",
    22: "5b569f44545b2aaf1139f85b471573c09b079f51c3024ca78efdc23d8fca9d46",
    23: "90505da027e7aea058ceb0bc15a185ad81e824177acf95a1ccf0aab412c97fdc",
    24: "c5ba8b5d89cea62b46020f38e2b85e3764e67d1ad0a056916b3380888a1f3e24",
    25: "82587b1362e15680e10145fe2ddd651f6c0252c1cbf37b283f77fbe8c6ab0e00",
    26: "69e5e5bd9f03bdbc57ad4bb8a812681981fed6a1efef8840362a29e6341cc0b9",
    27: "39c1a08545931377cfe1a5caeafe219b689065f30b1a4c3ef46abc731b20493a",
    28: "bf9037b6e4178e1e995ac1929ba924611853d28140e6463be93ac24a82fc857f",
    29: "4e8eeb3e1e74becd3088e31e4cffbb883c89b54dd62ba2e70b41930928a4c39c",
    30: "a819790583752c0f7a6beff8570a6625cadb4d9d56739ebe7157d2b22d6024c4",
}


def test_gaussian_taps_are_frozen():
    digests = {tenths: _sha256(kernel.astype("<f8").tobytes())
               for tenths, kernel in _KERNELS.items()}
    assert digests == TAP_DIGESTS


# A carrier written once and committed: _cover(3), sigma 1.5, thresholds 5/40.
CARRIER_FILE = Path(__file__).parent / "data" / "carrier_64x48_s15_5_40.bmp"
CARRIER_PAYLOAD = b"edgestego known-answer carrier: bits 0..2 of edge pixels"


def test_committed_carrier_extracts_its_payload():
    payload, params = extract(read_bmp(CARRIER_FILE.read_bytes()))
    assert payload == CARRIER_PAYLOAD
    assert params == CannyParams(15, 5, 40)


# (OPENBLAS_CORETYPE, the core OpenBLAS reports loading, the CPU features that
# core needs, the numpy SIMD targets left on; every other dispatched target is
# switched off). This DYNAMIC_ARCH build serves Prescott with its Katmai kernels.
if platform.machine().lower() in ("arm64", "aarch64"):
    KERNEL_ROWS = [("ARMV8", "armv8", (), ())]
else:
    KERNEL_ROWS = [
        ("Prescott", "Katmai", (), ()),
        ("Sandybridge", "Sandybridge", ("AVX",), ()),
        ("Haswell", "Haswell", ("AVX2", "FMA3"), ("X86_V3",)),
    ]


@pytest.mark.parametrize("coretype,core,needs,kept", KERNEL_ROWS, ids=[r[0] for r in KERNEL_ROWS])
def test_known_answers_hold_without_numpy_simd_kernels(coretype, core, needs, kept):
    # numpy picks its SIMD kernels by CPU at import, and OpenBLAS its sgemm
    # kernel; switch off the SIMD targets this build dispatches to beyond the
    # row's and force OpenBLAS's kernel for the row's core, and the rest of
    # this module must still pass unchanged, and so must the tests of every
    # stage that computes in float32 on loops and BLAS products of their own:
    # the masked gray's product and scaling, the smoothing sums and the
    # gradients' root. Only the check of the seam covers' stage digests
    # against the references stays in this process: it runs no package code,
    # and the references' scalar loops take longer there than the rest of
    # the module.
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    missing = [feature for feature in needs if not __cpu_features__.get(feature)]
    if missing:
        pytest.skip(f"this CPU lacks {' '.join(missing)}, which {coretype} needs")
    disabled = [target for target in __cpu_dispatch__ if target not in kept]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
               OPENBLAS_CORETYPE=coretype)
    # an unknown or unsupported core name falls back silently, so ask which loaded
    probe = subprocess.run([sys.executable, "-c", "import numpy"],
                           env=dict(env, OPENBLAS_VERBOSE="2"), capture_output=True, text=True)
    assert f"Core: {core}".lower() in probe.stderr.lower().splitlines(), probe.stderr
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         str(Path(__file__).with_name("test_canny.py")), "-k",
         "not (test_known_answers_hold_without_numpy_simd_kernels"
         " or test_seam_stage_digests_are_the_references)"
         " and (test_known_answers.py or masked_gray or smooth or sobel or gradient"
         " or root or direction)"],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout + child.stderr
