"""End-to-end CLI tests: exit codes, output contracts, file handling."""

import contextlib
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgestego
import edgestego.cli
import edgestego.errors
from edgestego import (
    BadMagic,
    CannyParams,
    RgbImage,
    StegoError,
    capacity_bytes,
    detect_edges,
    read_bmp,
    write_bmp,
)
from edgestego.cli import main


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse paths
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cover(tmp_path):
    rng = np.random.default_rng(31)
    image = RgbImage(rng.integers(0, 256, (36, 40, 3), dtype=np.uint8))
    path = tmp_path / "cover.bmp"
    path.write_bytes(write_bmp(image))
    return path


@pytest.fixture
def carrier(tmp_path, cover):
    payload = bytes(range(64))
    data = tmp_path / "payload.bin"
    data.write_bytes(payload)
    out = tmp_path / "carrier.bmp"
    code, _, err = run_cli([
        "embed", "--in", str(cover), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40", "--out", str(out),
    ])
    assert code == 0, err
    return out, payload


_PARAMS = ["--sigma", "1.5", "--low", "5", "--high", "40"]
_CAPACITY = "edge pixels: 496\ncarrier pixels: 485\ncapacity bits: 4365\ncapacity bytes: 545\n"
_HEADER = "sigma: 1.5\nlow threshold: 5\nhigh threshold: 40\npayload bytes: 64\n"


@pytest.mark.parametrize("argv,expected", [
    (["capacity", "--in", "{cover}", *_PARAMS], _CAPACITY),
    (["capacity", "--in", "{cover}", *_PARAMS, "--coords", "3"],
     _CAPACITY + "(006,001) ; (008,001) ; (010,001)\n"),
    (["embed", "--in", "{cover}", "--data", "{data}", *_PARAMS, "--out", "{out}"],
     "carrier pixels: 485\ncapacity bytes: 545\npayload bytes: 64\n"),
    (["extract", "--in", "{carrier}", "--out", "{out}"], _HEADER),
    (["inspect", "--in", "{carrier}"], "magic: 0x5347\nversion: 1\n" + _HEADER),
    (["edges", "--in", "{cover}", *_PARAMS, "--out", "{out}"], "edge pixels: 496\n"),
    (["metrics", "--a", "{cover}", "--b", "{carrier}"],
     "changed pixels:    79\n"
     "changed channels:  180\n"
     "max channel delta: 7\n"
     "mse:               0.404861\n"
     "psnr (dB):         52.0577\n"),
    (["metrics", "--a", "{cover}", "--b", "{carrier}", "--machine"],
     "changed_pixels=79 changed_channels=180 max_channel_delta=7 mse=0.404861 psnr_db=52.0577\n"),
], ids=["capacity", "capacity-coords", "embed", "extract", "inspect", "edges", "metrics",
        "metrics-machine"])
def test_stdout_is_pinned_byte_for_byte(tmp_path, cover, carrier, argv, expected):
    carrier_path, payload = carrier
    data = tmp_path / "pinned.bin"
    data.write_bytes(payload)
    paths = {"cover": cover, "carrier": carrier_path, "data": data, "out": tmp_path / "pinned.out"}
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert (code, out, err) == (0, expected, "")


_PARAM_REMEDY = "remedy: use --sigma 1.0..3.0 and thresholds 0..255 with low <= high\n"
_IO_REMEDY = "remedy: check the file paths and permissions\n"
_NARROW = ("error: ImageTooNarrow: header row needs 27 pixels, image is 10 wide\n"
           "remedy: the header row needs 27 pixels; use an image at least 27 wide\n")
_ERROR_CASES = {  # id: (argv, exit code, stderr with tmp_path written as {tmp})
    "sigma-format": (
        ["capacity", "--in", "{cover}", "--sigma", "1.55", "--low", "5", "--high", "40"], 1,
        "usage: edgestego capacity [-h] --in BMP --sigma S --low T --high T\n"
        "                          [--coords N]\n"
        "edgestego capacity: error: argument --sigma: sigma must be a decimal with exactly"
        " one fractional digit (e.g. 1.5), got '1.55'\n"),
    "sigma-range": (
        ["capacity", "--in", "{cover}", "--sigma", "3.5", "--low", "5", "--high", "40"], 1,
        "error: ParamOutOfRange: sigma must be 1.0..3.0, got 35 tenths\n" + _PARAM_REMEDY),
    "low-range": (
        ["capacity", "--in", "{cover}", "--sigma", "1.5", "--low", "300", "--high", "40"], 1,
        "error: ParamOutOfRange: low threshold must be 0..255, got 300\n" + _PARAM_REMEDY),
    "expect-low-range": (
        ["extract", "--in", "{carrier}", "--out", "{out}", "--expect-low", "300"], 1,
        "error: ParamOutOfRange: low threshold must be 0..255, got 300\n" + _PARAM_REMEDY),
    "expect-low-above-high": (
        ["extract", "--in", "{carrier}", "--out", "{out}", "--expect-low", "50",
         "--expect-high", "40"], 1,
        "error: ParamOutOfRange: low threshold 50 exceeds high 40\n" + _PARAM_REMEDY),
    "coords-not-a-number": (
        ["capacity", "--in", "{cover}", *_PARAMS, "--coords", "x"], 1,
        "usage: edgestego capacity [-h] --in BMP --sigma S --low T --high T\n"
        "                          [--coords N]\n"
        "edgestego capacity: error: argument --coords: --coords must be a whole number 0 or"
        " more, got 'x'\n"),
    "coords-negative": (
        ["capacity", "--in", "{cover}", *_PARAMS, "--coords", "-2"], 1,
        "usage: edgestego capacity [-h] --in BMP --sigma S --low T --high T\n"
        "                          [--coords N]\n"
        "edgestego capacity: error: argument --coords: --coords must be a whole number 0 or"
        " more, got '-2'\n"),
    "low-above-high": (
        ["capacity", "--in", "{cover}", "--sigma", "1.5", "--low", "50", "--high", "40"], 1,
        "error: ParamOutOfRange: low threshold 50 exceeds high 40\n" + _PARAM_REMEDY),
    "missing-input": (
        ["capacity", "--in", "{tmp}/nope.bmp", *_PARAMS], 2,
        "error: FileNotFoundError: [Errno 2] No such file or directory: '{tmp}/nope.bmp'\n"
        + _IO_REMEDY),
    "not-bmp": (
        ["capacity", "--in", "{junk}", *_PARAMS], 3,
        "error: MalformedFile: missing 'BM' signature\n"
        "remedy: the input is not a readable BMP file; check the path and file contents\n"),
    "narrow-embed": (
        ["embed", "--in", "{narrow}", "--data", "{data}", *_PARAMS, "--out", "{out}"], 3,
        _NARROW),
    "narrow-capacity": (["capacity", "--in", "{narrow}", *_PARAMS], 3, _NARROW),
    "oversized-payload": (
        ["embed", "--in", "{cover}", "--data", "{big}", *_PARAMS, "--out", "{out}"], 4,
        "error: CapacityExceeded: payload needs 100000 bytes but the image can hold 545\n"
        "remedy: use a smaller payload, a busier image, or lower thresholds\n"),
    "inspect-plain": (
        ["inspect", "--in", "{cover}"], 5,
        "error: BadMagic: expected magic 0x5347, found 0xE10B\n"
        "remedy: this image carries no embedded header; check you have the right file\n"),
    "expect-sigma-mismatch": (
        ["extract", "--in", "{carrier}", "--out", "{out}", "--expect-sigma", "2.0"], 5,
        "error: CorruptHeader: --expect-sigma mismatch: carrier header says 1.5, expected 2.0\n"
        "remedy: the header bits are damaged; the carrier was modified in transit\n"),
    "metrics-size": (
        ["metrics", "--a", "{cover}", "--b", "{narrow}"], 3,
        "error: DimensionMismatch: 40x36 vs 10x36\n"
        "remedy: compare two images of the same width and height\n"),
    "out-unwritable": (
        ["extract", "--in", "{carrier}", "--out", "{tmp}/no/such/x.bin"], 2,
        "error: FileNotFoundError: [Errno 2] No such file or directory: '{tmp}/no/such/x.bin'\n"
        + _IO_REMEDY),
    "out-is-a-directory": (
        ["extract", "--in", "{carrier}", "--out", "{tmp}/taken"], 2,
        "error: IsADirectoryError: [Errno 21] Is a directory: '{tmp}/taken'\n" + _IO_REMEDY),
}


@pytest.mark.parametrize("argv,expected_code,expected_err", _ERROR_CASES.values(),
                         ids=_ERROR_CASES)
def test_error_paths_are_pinned_byte_for_byte(tmp_path, cover, carrier, monkeypatch, argv,
                                              expected_code, expected_err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    rng = np.random.default_rng(5)
    narrow = tmp_path / "narrow.bmp"
    narrow.write_bytes(write_bmp(RgbImage(rng.integers(0, 256, (36, 10, 3), dtype=np.uint8))))
    (tmp_path / "junk.bmp").write_bytes(b"this is not a bitmap at all")
    (tmp_path / "big.bin").write_bytes(bytes(100_000))
    (tmp_path / "taken").mkdir()
    paths = {"tmp": tmp_path, "cover": cover, "carrier": carrier[0], "narrow": narrow,
             "junk": tmp_path / "junk.bmp", "data": tmp_path / "payload.bin",
             "big": tmp_path / "big.bin", "out": tmp_path / "never.out"}
    code, out, err = run_cli([arg.format(**paths) for arg in argv])
    assert (code, out, err.replace(str(tmp_path), "{tmp}")) == (expected_code, "", expected_err)
    assert not (tmp_path / "never.out").exists()


def test_embed_reports_the_numbers(tmp_path, cover):
    data = tmp_path / "p.bin"
    data.write_bytes(b"covert")
    code, out, err = run_cli([
        "embed", "--in", str(cover), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40",
        "--out", str(tmp_path / "c.bmp"),
    ])
    assert code == 0 and err == ""
    carriers = int(re.search(r"carrier pixels: (\d+)", out).group(1))
    capacity = int(re.search(r"capacity bytes: (\d+)", out).group(1))
    assert capacity == 9 * carriers // 8
    assert "payload bytes: 6" in out


def test_extract_round_trip(tmp_path, carrier):
    carrier_path, payload = carrier
    recovered = tmp_path / "recovered.bin"
    code, out, err = run_cli(["extract", "--in", str(carrier_path), "--out", str(recovered)])
    assert code == 0, err
    assert recovered.read_bytes() == payload
    assert "sigma: 1.5" in out
    assert "low threshold: 5" in out
    assert "high threshold: 40" in out
    assert f"payload bytes: {len(payload)}" in out


def test_extract_honors_matching_expectations(tmp_path, carrier):
    carrier_path, payload = carrier
    recovered = tmp_path / "r.bin"
    code, _, _ = run_cli([
        "extract", "--in", str(carrier_path), "--out", str(recovered),
        "--expect-sigma", "1.5", "--expect-low", "5", "--expect-high", "40",
    ])
    assert code == 0
    assert recovered.read_bytes() == payload


def test_extract_expectation_mismatch_fails_before_writing(tmp_path, carrier):
    carrier_path, _ = carrier
    recovered = tmp_path / "never.bin"
    code, _, err = run_cli([
        "extract", "--in", str(carrier_path), "--out", str(recovered),
        "--expect-sigma", "2.0",
    ])
    assert code == 5
    assert "CorruptHeader" in err
    assert not recovered.exists()


def test_capacity_report_matches_library(cover):
    code, out, _ = run_cli([
        "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40",
    ])
    assert code == 0
    edges = detect_edges(read_bmp(cover.read_bytes()), CannyParams(15, 5, 40))
    assert f"capacity bytes: {capacity_bytes(edges)}" in out
    carriers = int(re.search(r"carrier pixels: (\d+)", out).group(1))
    assert f"capacity bits: {9 * carriers}" in out


def test_capacity_coords_formatting(cover):
    code, out, _ = run_cli([
        "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40",
        "--coords", "4",
    ])
    assert code == 0
    coords_line = out.strip().splitlines()[-1]
    pairs = coords_line.split(" ; ")
    assert len(pairs) == 4
    assert all(re.fullmatch(r"\(\d{3},\d{3}\)", p) for p in pairs)


def test_capacity_coords_are_the_carriers_in_row_major_order(cover):
    # the 40x36 cover is not square, so a swapped x/y or a divmod by the
    # height instead of the width prints different pairs
    edges = detect_edges(read_bmp(cover.read_bytes()), CannyParams(15, 5, 40))
    ys, xs = np.nonzero(edges.membership[1:])  # row 0 is the header's
    expected = [f"({x:03d},{y + 1:03d})" for x, y in zip(xs.tolist(), ys.tolist())]
    assert len(expected) > 7
    for count in (7, len(expected), len(expected) + 5):
        code, out, _ = run_cli([
            "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40",
            "--coords", str(count),
        ])
        assert code == 0
        assert out.strip().splitlines()[-1].split(" ; ") == expected[:count]


def test_capacity_rejects_negative_coords(cover):
    code, out, _ = run_cli([
        "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40",
        "--coords", "-2",
    ])
    assert code == 1
    assert out == ""


def test_edges_renders_pure_black_and_white(tmp_path, cover):
    out_path = tmp_path / "edges.bmp"
    code, out, _ = run_cli([
        "edges", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40",
        "--out", str(out_path),
    ])
    assert code == 0
    rendered = read_bmp(out_path.read_bytes())
    assert set(np.unique(rendered.pixels)) <= {0, 255}
    count = int(re.search(r"edge pixels: (\d+)", out).group(1))
    assert int((rendered.pixels == 255).all(axis=2).sum()) == count


def test_inspect_dumps_header(carrier):
    carrier_path, payload = carrier
    code, out, _ = run_cli(["inspect", "--in", str(carrier_path)])
    assert code == 0
    assert "magic: 0x5347" in out
    assert "version: 1" in out
    assert "sigma: 1.5" in out
    assert f"payload bytes: {len(payload)}" in out


def test_inspect_plain_image_fails_cleanly(cover):
    code, out, err = run_cli(["inspect", "--in", str(cover)])
    assert code == 5
    assert out == ""
    assert "BadMagic" in err
    assert "remedy:" in err


def test_metrics_identical_images(cover):
    code, out, _ = run_cli(["metrics", "--a", str(cover), "--b", str(cover)])
    assert code == 0
    assert "psnr (dB):         inf" in out


def test_metrics_cover_versus_carrier(tmp_path, cover, carrier):
    carrier_path, _ = carrier
    code, out, _ = run_cli(["metrics", "--a", str(cover), "--b", str(carrier_path), "--machine"])
    assert code == 0
    line = out.strip()
    assert re.fullmatch(
        r"changed_pixels=\d+ changed_channels=\d+ max_channel_delta=\d+ "
        r"mse=\d+\.\d{6} psnr_db=\d+\.\d{4}",
        line,
    )
    assert int(re.search(r"max_channel_delta=(\d+)", line).group(1)) <= 7
    assert float(re.search(r"psnr_db=([\d.]+)", line).group(1)) >= 31.22


def test_metrics_size_mismatch_names_a_remedy(tmp_path, cover):
    other = tmp_path / "other.bmp"
    other.write_bytes(write_bmp(RgbImage(np.zeros((37, 40, 3), dtype=np.uint8))))
    code, out, err = run_cli(["metrics", "--a", str(cover), "--b", str(other)])
    assert code == 3
    assert out == ""
    assert "DimensionMismatch" in err
    assert "remedy:" in err


def test_inputs_are_never_modified(tmp_path, cover, carrier):
    carrier_path, _ = carrier
    cover_before = cover.read_bytes()
    carrier_before = carrier_path.read_bytes()
    run_cli(["capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "40"])
    run_cli(["inspect", "--in", str(carrier_path)])
    run_cli(["extract", "--in", str(carrier_path), "--out", str(tmp_path / "x.bin")])
    run_cli(["metrics", "--a", str(cover), "--b", str(carrier_path)])
    assert cover.read_bytes() == cover_before
    assert carrier_path.read_bytes() == carrier_before


def test_usage_errors_exit_one(tmp_path, cover):
    # missing required flag
    code, _, _ = run_cli(["embed", "--in", str(cover)])
    assert code == 1
    # unknown subcommand
    code, _, _ = run_cli(["frobnicate"])
    assert code == 1
    # sigma must carry exactly one fractional digit
    for bad_sigma in ("2", "1.55", "0.9", "3.1", "abc"):
        code, _, err = run_cli([
            "capacity", "--in", str(cover), "--sigma", bad_sigma, "--low", "5", "--high", "40",
        ])
        assert code == 1, bad_sigma
    # thresholds outside 0..255
    code, _, _ = run_cli([
        "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "5", "--high", "256",
    ])
    assert code == 1


@pytest.mark.parametrize("flag,value", [
    ("--expect-sigma", "3.5"), ("--expect-sigma", "0.0"),
    ("--expect-low", "300"), ("--expect-high", "300"), ("--expect-low", "-1"),
])
def test_out_of_range_expectation_is_a_usage_error(tmp_path, carrier, flag, value):
    carrier_path, _ = carrier
    recovered = tmp_path / "never.bin"
    code, out, _ = run_cli([
        "extract", "--in", str(carrier_path), "--out", str(recovered), flag, value,
    ])
    assert code == 1
    assert out == ""
    assert not recovered.exists()


def test_low_above_high_is_a_usage_error(cover):
    code, _, err = run_cli([
        "capacity", "--in", str(cover), "--sigma", "1.5", "--low", "50", "--high", "40",
    ])
    assert code == 1
    assert "ParamOutOfRange" in err
    assert "remedy:" in err


def test_missing_input_exits_two(tmp_path):
    code, _, err = run_cli([
        "capacity", "--in", str(tmp_path / "nope.bmp"),
        "--sigma", "1.5", "--low", "5", "--high", "40",
    ])
    assert code == 2
    assert "remedy:" in err


def test_unwritable_output_exits_two(tmp_path, cover):
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    code, _, _ = run_cli([
        "embed", "--in", str(cover), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40",
        "--out", str(tmp_path / "no" / "such" / "dir.bmp"),
    ])
    assert code == 2


def test_unwritable_output_names_the_path_given(tmp_path, cover, monkeypatch):
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli([
        "embed", "--in", str(cover), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40", "--out", "no/such/x.bmp",
    ])
    assert code == 2
    assert "no/such/x.bmp" in err
    assert ".tmp" not in err


@pytest.mark.parametrize("subcommand", ["embed", "extract", "edges"])
def test_failed_write_exits_two_and_leaves_no_file(tmp_path, cover, carrier, subcommand,
                                                   monkeypatch):
    # --out names a directory: the final rename fails after the bytes were
    # written, and the half-done output must not stay behind
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    target = tmp_path / "taken"
    target.mkdir()
    params = ["--sigma", "1.5", "--low", "5", "--high", "40"]
    argv = {
        "embed": ["embed", "--in", str(cover), "--data", str(data), *params],
        "extract": ["extract", "--in", str(carrier[0])],
        "edges": ["edges", "--in", str(cover), *params],
    }[subcommand]
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli([*argv, "--out", str(target)])
    assert code == 2
    assert out == ""
    assert "remedy:" in err
    assert f"'{target}'" in err and ".tmp" not in err
    monkeypatch.chdir(target)  # --out . names the working directory, not its parent
    code, out, err = run_cli([*argv, "--out", "."])
    assert (code, out) == (2, "")
    assert "'.'" in err and ".tmp" not in err
    assert sorted(tmp_path.iterdir()) == before
    assert list(target.iterdir()) == []


def test_a_write_cut_short_keeps_the_previous_output(tmp_path, cover):
    # A file-size limit makes the write fail part-way, as a full disk would.
    # The output file already there must come through whole, with no
    # partial file beside it.
    resource = pytest.importorskip("resource")
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    out_path = tmp_path / "c.bmp"
    out_path.write_bytes(b"previous carrier")
    script = (
        "import resource, signal, sys\n"
        "from edgestego.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard))\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["embed", "--in", str(cover), "--data", str(data),
            "--sigma", "1.5", "--low", "5", "--high", "40", "--out", str(out_path)]
    env = {**os.environ, "PYTHONPATH": str(Path(edgestego.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert out_path.read_bytes() == b"previous carrier"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.bmp", "cover.bmp", "p.bin"]


def test_commands_without_a_detector_never_import_scipy(cover, carrier):
    # scipy's import is most of a cold start; only the hysteresis labelling needs it
    script = (
        "import sys\n"
        "from edgestego.cli import main\n"
        "assert main(['inspect', '--in', sys.argv[1]]) == 0\n"
        "assert main(['metrics', '--a', sys.argv[1], '--b', sys.argv[2]]) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(edgestego.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(carrier[0]), str(cover)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_non_bmp_input_exits_three(tmp_path):
    junk = tmp_path / "junk.bmp"
    junk.write_bytes(b"this is not a bitmap at all")
    code, _, err = run_cli([
        "capacity", "--in", str(junk), "--sigma", "1.5", "--low", "5", "--high", "40",
    ])
    assert code == 3
    assert "MalformedFile" in err


def test_too_narrow_image_exits_three(tmp_path):
    narrow = tmp_path / "narrow.bmp"
    narrow.write_bytes(write_bmp(RgbImage(np.zeros((30, 10, 3), dtype=np.uint8))))
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    code, _, err = run_cli([
        "embed", "--in", str(narrow), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40",
        "--out", str(tmp_path / "c.bmp"),
    ])
    assert code == 3
    assert "ImageTooNarrow" in err


def test_capacity_refuses_a_cover_that_embed_refuses(tmp_path):
    # 10 pixels wide: the detector finds room, but the 27-pixel header row does not fit
    rng = np.random.default_rng(5)
    narrow = tmp_path / "narrow.bmp"
    narrow.write_bytes(write_bmp(RgbImage(rng.integers(0, 256, (36, 10, 3), dtype=np.uint8))))
    data = tmp_path / "p.bin"
    data.write_bytes(b"x")
    embedded = run_cli([
        "embed", "--in", str(narrow), "--data", str(data), *_PARAMS,
        "--out", str(tmp_path / "c.bmp"),
    ])
    code, out, err = run_cli(["capacity", "--in", str(narrow), *_PARAMS])
    assert embedded[0] == code == 3
    assert embedded[1] == out == ""
    assert embedded[2] == err
    assert "ImageTooNarrow" in err and "remedy: " in err


def test_oversized_payload_exits_four(tmp_path, cover):
    data = tmp_path / "big.bin"
    data.write_bytes(bytes(100_000))  # far beyond any 40x36 capacity
    code, _, err = run_cli([
        "embed", "--in", str(cover), "--data", str(data),
        "--sigma", "1.5", "--low", "5", "--high", "40",
        "--out", str(tmp_path / "c.bmp"),
    ])
    assert code == 4
    assert "CapacityExceeded" in err
    assert not (tmp_path / "c.bmp").exists()


def test_version_flag():
    code, out, _ = run_cli(["--version"])
    assert code == 0
    assert "edgestego" in out


# The README's exit-code table: 1 usage, 3 image format, 4 capacity, 5 extraction/header.
README_EXIT_CODES = {
    "ParamOutOfRange": 1,
    "MalformedFile": 3,
    "UnsupportedFormat": 3,
    "ZeroDimension": 3,
    "ImageTooSmall": 3,
    "ImageTooNarrow": 3,
    "DimensionMismatch": 3,
    "CapacityExceeded": 4,
    "BadMagic": 5,
    "UnsupportedVersion": 5,
    "CorruptHeader": 5,
    "TruncatedPayload": 5,
}
ERROR_TYPES = sorted(
    (obj for obj in vars(edgestego.errors).values()
     if isinstance(obj, type) and issubclass(obj, StegoError) and obj is not StegoError),
    key=lambda cls: cls.__name__,
)


def test_exit_code_table_lists_every_error():
    assert sorted(README_EXIT_CODES) == [cls.__name__ for cls in ERROR_TYPES]


# The README's §Library list of what the package exports besides the errors.
README_LIBRARY = {
    "read_bmp", "write_bmp", "RgbImage", "EdgeMap", "CannyParams", "detect_edges",
    "carrier_arrays", "capacity_bytes", "embed", "extract", "read_header", "diff",
    "verify_stability",
}


def test_package_exports_the_pipeline():
    public = {
        name for name, value in vars(edgestego).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    errors = {cls.__name__ for cls in ERROR_TYPES} | {"StegoError"}
    assert len(errors) == 13
    assert public == README_LIBRARY | errors


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_carries_its_exit_code_and_a_remedy(error):
    assert error.exit_code == README_EXIT_CODES[error.__name__]
    assert error.remedy


def test_error_subclass_inherits_its_parents_exit_code(monkeypatch, cover):
    class StrayMagic(BadMagic):
        pass

    def read_header(carrier):
        raise StrayMagic("planted")

    monkeypatch.setattr(edgestego.cli, "read_header", read_header)
    code, out, err = run_cli(["inspect", "--in", str(cover)])
    assert code == 5
    assert out == ""
    assert "StrayMagic: planted" in err
    assert f"remedy: {BadMagic.remedy}" in err


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Input files of every kind an invocation may name, and a directory for outputs."""
    base = tmp_path_factory.mktemp("fuzz")
    inputs = base / "in"
    inputs.mkdir()
    rng = np.random.default_rng(47)
    cover = write_bmp(RgbImage(rng.integers(0, 256, (36, 40, 3), dtype=np.uint8)))
    (inputs / "cover.bmp").write_bytes(cover)
    (inputs / "payload.bin").write_bytes(bytes(range(64)))
    code, _, err = run_cli([
        "embed", "--in", str(inputs / "cover.bmp"), "--data", str(inputs / "payload.bin"),
        "--sigma", "1.5", "--low", "5", "--high", "40", "--out", str(inputs / "carrier.bmp"),
    ])
    assert code == 0, err
    carrier = (inputs / "carrier.bmp").read_bytes()
    (inputs / "truncated.bmp").write_bytes(carrier[: len(carrier) // 2])
    flipped = bytearray(carrier)
    for position in rng.integers(0, len(flipped), 40):
        flipped[position] ^= 1 << int(rng.integers(0, 8))
    (inputs / "flipped.bmp").write_bytes(bytes(flipped))
    (inputs / "junk.bin").write_bytes(rng.bytes(300))
    (inputs / "empty.bmp").write_bytes(b"")
    (base / "out").mkdir()
    (base / "out" / "existing.bmp").write_bytes(b"old")
    names = ["cover.bmp", "carrier.bmp", "truncated.bmp", "flipped.bmp", "junk.bin",
             "empty.bmp", "payload.bin", "", "missing.bmp"]  # "" names the directory
    outputs = ["new.bmp", "existing.bmp", "", "no/such/dir.bmp"]
    return base, [str(inputs / name) for name in names], [str(base / "out" / n) for n in outputs]


_FLAGS = {  # each subcommand's flags, as the parser defines them
    "embed": ["--in", "--data", "--sigma", "--low", "--high", "--out"],
    "extract": ["--in", "--out", "--expect-sigma", "--expect-low", "--expect-high"],
    "capacity": ["--in", "--sigma", "--low", "--high", "--coords"],
    "edges": ["--in", "--sigma", "--low", "--high", "--out"],
    "inspect": ["--in"],
    "metrics": ["--a", "--b", "--machine"],
}
# valid values come first and three times over, so most draws are valid
_SIGMAS = ["1.5", "1.0", "3.0"] * 3 + ["0.9", "3.1", "1.55", "2", "x", "-1.5", "99999999999999.9"]
_NUMBERS = ["5", "40", "0", "255"] * 3 + ["256", "-1", "1000", "x", "1e3"]


@st.composite
def _argv(draw, paths, outputs):
    subcommand = draw(st.sampled_from([*_FLAGS, "frobnicate", "--version", "--help"]))
    argv = [subcommand]
    for flag in _FLAGS.get(subcommand, []):
        if draw(st.sampled_from([False] * 9 + [True])):
            continue  # a missing flag, required or not
        if flag == "--machine":
            argv.append(flag)
        elif flag == "--out":
            argv += [flag, draw(st.sampled_from(outputs))]
        elif flag in ("--in", "--data", "--a", "--b"):
            argv += [flag, draw(st.sampled_from(paths))]
        elif "sigma" in flag:
            argv += [flag, draw(st.sampled_from(_SIGMAS))]
        else:
            argv += [flag, draw(st.sampled_from(_NUMBERS))]
    extra = draw(st.sampled_from([None] * 9 + ["--bogus", "extra", "--in"]))
    return argv if extra is None else [*argv, extra]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_invocations_exit_cleanly_and_leave_no_temp_file(fuzz_files, data):
    base, paths, outputs = fuzz_files
    argv = data.draw(_argv(paths, outputs))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    assert code in range(6), (argv, err.getvalue())
    assert [p for p in base.rglob("*") if p.name.endswith(".tmp")] == []
