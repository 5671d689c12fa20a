"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from gate import check_cover  # noqa: E402
from spans import Span, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, encode_bmp, make_inputs  # noqa: E402

TINY = {
    path: Workload(f"tiny-{path}", "noise", 64, 10, 5, 40, 200, path, 2)
    for path in ("library", "cli")
}

# SHA-256 over every cover and payload of each workload at the default seed.
# A change here changes the benchmark's inputs, so results before and after
# it cannot be compared.
INPUT_DIGESTS = {
    "large-smooth": "837afdca2d15f0f62594e7541e2ae2d668290330320a246829fcc84406cdca8a",
    "dense-noise": "7cebe58d64bcecc649ed4b4b90ef35111e1d82f33a3d8d09fd4183f392544118",
    "cli-batch": "9428c72a20ac17eba05a271863110b7d22b1cdf7f7af7cd320d1f50c7f446844",
}


def inputs_digest(workload, seed):
    h = hashlib.sha256()
    for cover, payload in make_inputs(workload, seed):
        h.update(cover.tobytes())
        h.update(payload)
    return h.hexdigest()


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 4.0),
        Span(2, 1, "op", "a.child", 2.0, 3.0),
        Span(3, 0, "op", "b", 3.0, 6.0),  # overlaps a: together they cover 1..6
        Span(4, 0, "op", "c", 9.0, 12.0),  # only 9..10 lies inside root
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 1)
    assert own[1] == pytest.approx(3 - 1)  # the grandchild counts against a only
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_identical_for_a_seed(name):
    workload = WORKLOADS[name]
    digest = inputs_digest(workload, run.DEFAULT_SEED)
    assert digest == inputs_digest(workload, run.DEFAULT_SEED)
    assert digest == INPUT_DIGESTS[name]
    assert digest != inputs_digest(workload, run.DEFAULT_SEED + 1)
    cover, _ = make_inputs(workload, run.DEFAULT_SEED)[0]
    assert cover.flags.c_contiguous and cover.dtype == np.uint8


def test_cover_files_decode_to_the_generated_pixels():
    es = importlib.import_module("edgestego")
    cover, _ = make_inputs(TINY["cli"], 0)[0]
    assert np.array_equal(es.read_bmp(encode_bmp(cover)).pixels, cover)
    odd = cover[:7, :5]  # rows padded to 4 bytes
    assert np.array_equal(es.read_bmp(encode_bmp(odd)).pixels, odd)


@pytest.fixture
def embedded():
    es = importlib.import_module("edgestego")
    cover, payload = make_inputs(TINY["library"], 0)[0]
    params = es.CannyParams(10, 5, 40)
    carrier = es.embed(es.RgbImage(cover), payload, params)
    return es, cover, payload, params, carrier


def check(es, cover, payload, params, pixels, expected=None):
    carrier = es.RgbImage(pixels)
    try:
        extracted = es.extract(carrier)
    except es.StegoError as exc:
        extracted = exc
    return check_cover(es, cover, payload, params, carrier, extracted, expected).problems


def test_gate_passes_an_honest_carrier(embedded):
    es, cover, payload, params, carrier = embedded
    first = check_cover(es, cover, payload, params, carrier, es.extract(carrier), None)
    assert first.problems == []
    assert check(es, cover, payload, params, carrier.pixels, first.digests) == []


def test_gate_fails_a_flipped_bit_4(embedded):
    es, cover, payload, params, carrier = embedded
    pixels = carrier.pixels.copy()
    pixels[40, 40, 1] ^= 0x10
    problems = check(es, cover, payload, params, pixels)
    assert any("bits 3..7" in p for p in problems)


def test_gate_fails_a_flipped_payload_bit(embedded):
    es, cover, payload, params, carrier = embedded
    ys, xs = np.nonzero(es.detect_edges(es.RgbImage(cover), params).membership[1:])
    pixels = carrier.pixels.copy()
    pixels[ys[0] + 1, xs[0], 0] ^= 0x01  # first carrier pixel, red bit 0
    honest = check_cover(es, cover, payload, params, carrier, es.extract(carrier), None)
    problems = check(es, cover, payload, params, pixels, honest.digests)
    assert any("extract did not return" in p for p in problems)
    assert any("carrier_bmp digest" in p for p in problems)


def test_gate_fails_a_change_outside_the_carriers(embedded):
    es, cover, payload, params, carrier = embedded
    edges = es.detect_edges(es.RgbImage(cover), params).membership
    ys, xs = np.nonzero(~edges[1:])
    pixels = carrier.pixels.copy()
    pixels[ys[0] + 1, xs[0], 2] ^= 0x01  # a non-edge pixel below row 0
    assert any("outside the header" in p for p in check(es, cover, payload, params, pixels))


def names(section):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("path", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_a_run_reports_every_named_metric(path, trace):
    result = run.run(TINY[path], seed=5, seconds=0.05, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == names("per_layer" if trace else "end_to_end")
    if trace and path == "cli":
        assert result["metrics"]["canny.detect_calls_per_op.embed"]["value"] == 2
    if not trace:
        assert result["metrics"]["setup_s"]["value"] > 0


@pytest.mark.parametrize("path", sorted(TINY))
def test_a_tampered_carrier_raises_fail_ratio(monkeypatch, path):
    """Every embed flips bit 4 of one pixel: each such carrier must count as failed."""
    honest = run.Bench.embed

    def tampered(self, i, path):
        result = honest(self, i, path)
        if path == "cli":
            name = Path(self._file("carrier", i, ".bmp"))
            data = bytearray(name.read_bytes())
            data[-1] ^= 0x10
            name.write_bytes(bytes(data))
            return result
        pixels = result.pixels.copy()
        pixels[-1, -1, 0] ^= 0x10
        return self.es.image.RgbImage(pixels)

    monkeypatch.setattr(run.Bench, "embed", tampered)
    result = run.run(TINY[path], seed=5, seconds=0.05, trace=False)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0

