"""Command-line interface for covering and uncovering payloads in BMP images.

Exit codes: 0 success, 1 usage, 2 I/O, 3 image format, 4 capacity,
5 extraction/header. Diagnostics go to stderr; results go to stdout or to
the requested output files.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import secrets
import sys

import numpy as np

from . import __version__
from .bmp import read_bmp, write_bmp
from .canny import CannyParams, detect_edges
from .carrier import BITS_PER_CARRIER, capacity_of, carrier_arrays
from .codec import HEADER_MAGIC, HEADER_VERSION, check_geometry, embed_at, extract, read_header
from .errors import CorruptHeader, StegoError
from .image import EdgeMap, RgbImage
from .metrics import diff

EXIT_USAGE = 1
EXIT_IO = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this tool reserves 1 for that."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sigma_tenths(text: str) -> int:
    if not re.fullmatch(r"\d+\.\d", text):
        raise argparse.ArgumentTypeError(
            f"sigma must be a decimal with exactly one fractional digit (e.g. 1.5), got '{text}'"
        )
    return int(text.replace(".", ""))  # CannyParams checks the range


def _coord_count(text: str) -> int:
    with contextlib.suppress(ValueError):
        if int(text) >= 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"--coords must be a whole number 0 or more, got '{text}'")


def _add_param_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--sigma", type=_sigma_tenths, required=True, metavar="S",
                        help="Gaussian sigma, 1.0..3.0 with one fractional digit")
    parser.add_argument("--low", type=int, required=True, metavar="T",
                        help="low threshold, 0..255")
    parser.add_argument("--high", type=int, required=True, metavar="T",
                        help="high threshold, 0..255")


def _load_image(path: str) -> RgbImage:
    with open(path, "rb") as handle:
        return read_bmp(handle.read())


def _write_file(path: str, data: bytes):
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a new file in the same directory, which then replaces
    ``path`` in one rename, so ``path`` never holds part of the output; on
    an error (or Ctrl-C) the new file is removed again.
    """
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        # mode 0o666 less the umask, as open() gives; mkstemp would make it 0o600
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temp)
            raise
    except OSError as exc:  # name only the path given: the user never named the temporary file
        raise OSError(exc.errno, exc.strerror, path) from exc  # same subclass, by errno


def _header_lines(params: CannyParams, payload_len: int) -> list[str]:
    return [f"sigma: {params.sigma:.1f}", f"low threshold: {params.low_threshold}",
            f"high threshold: {params.high_threshold}", f"payload bytes: {payload_len}"]


def _detect(args) -> tuple[RgbImage, EdgeMap]:
    params = CannyParams(args.sigma, args.low, args.high)
    image = _load_image(args.in_path)
    return image, detect_edges(image, params)


def _cmd_embed(args) -> list[str]:
    params = CannyParams(args.sigma, args.low, args.high)
    cover = _load_image(args.in_path)
    with open(args.data, "rb") as handle:
        payload = handle.read()

    carriers = carrier_arrays(detect_edges(cover, params))
    _write_file(args.out, write_bmp(embed_at(cover, payload, params, carriers)))
    return [f"carrier pixels: {carriers.size}", f"capacity bytes: {capacity_of(carriers.size)}",
            f"payload bytes: {len(payload)}"]


def _cmd_extract(args) -> list[str]:
    # one stand-in checks every rule, so contradictory expectations are a usage error
    sigma, low, high = args.expect_sigma, args.expect_low, args.expect_high
    CannyParams(10 if sigma is None else sigma, 0 if low is None else low,
                255 if high is None else high)
    carrier = _load_image(args.in_path)
    header = read_header(carrier)
    for flag, expected, actual in (  # sigma in units, not tenths: 15 / 10 prints as 1.5
        ("--expect-sigma", None if sigma is None else sigma / 10, header.params.sigma),
        ("--expect-low", low, header.params.low_threshold),
        ("--expect-high", high, header.params.high_threshold),
    ):
        if expected is not None and expected != actual:
            raise CorruptHeader(
                f"{flag} mismatch: carrier header says {actual}, expected {expected}"
            )

    payload, params = extract(carrier)
    _write_file(args.out, payload)
    return _header_lines(params, len(payload))


def _cmd_capacity(args) -> list[str]:
    image, edges = _detect(args)
    check_geometry(image)  # a cover that embed refuses has no capacity to report
    carriers = carrier_arrays(edges)
    lines = [f"edge pixels: {edges.count}", f"carrier pixels: {carriers.size}",
             f"capacity bits: {BITS_PER_CARRIER * carriers.size}",
             f"capacity bytes: {capacity_of(carriers.size)}"]
    if args.coords:
        ys, xs = np.divmod(carriers[: args.coords], edges.width)
        lines.append(" ; ".join(f"({x:03d},{y:03d})" for x, y in zip(xs.tolist(), ys.tolist())))
    return lines


def _cmd_edges(args) -> list[str]:
    _, edges = _detect(args)
    rendered = np.zeros((edges.height, edges.width, 3), dtype=np.uint8)
    rendered[edges.membership] = 255
    _write_file(args.out, write_bmp(RgbImage(rendered)))
    return [f"edge pixels: {edges.count}"]


def _cmd_inspect(args) -> list[str]:
    header = read_header(_load_image(args.in_path))
    return [f"magic: 0x{HEADER_MAGIC:04X}", f"version: {HEADER_VERSION}",
            *_header_lines(header.params, header.payload_len)]


def _cmd_metrics(args) -> list[str]:
    report = diff(_load_image(args.a), _load_image(args.b))
    psnr = "inf" if report.psnr_db == float("inf") else f"{report.psnr_db:.4f}"
    fields = [  # (--machine key, aligned label, value)
        ("changed_pixels", "changed pixels:", report.changed_pixels),
        ("changed_channels", "changed channels:", report.changed_channels),
        ("max_channel_delta", "max channel delta:", report.max_channel_delta),
        ("mse", "mse:", f"{report.mse:.6f}"),
        ("psnr_db", "psnr (dB):", psnr),
    ]
    if args.machine:
        return [" ".join(f"{key}={value}" for key, _, value in fields)]
    return [f"{label:<18} {value}" for _, label, value in fields]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgestego",
        description="Hide binary payloads in the 3 LSBs of edge pixels of 24-bit BMPs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("embed", help="hide a payload file inside a cover image")
    p.add_argument("--in", dest="in_path", required=True, metavar="BMP", help="cover image")
    p.add_argument("--data", required=True, metavar="FILE", help="payload file")
    _add_param_flags(p)
    p.add_argument("--out", required=True, metavar="BMP", help="carrier image to write")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("extract", help="recover the payload from a carrier image")
    p.add_argument("--in", dest="in_path", required=True, metavar="BMP", help="carrier image")
    p.add_argument("--out", required=True, metavar="FILE", help="recovered payload file")
    p.add_argument("--expect-sigma", type=_sigma_tenths, metavar="S",
                   help="fail if the carrier header's sigma differs")
    p.add_argument("--expect-low", type=int, metavar="T",
                   help="fail if the carrier header's low threshold differs")
    p.add_argument("--expect-high", type=int, metavar="T",
                   help="fail if the carrier header's high threshold differs")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("capacity", help="report how many bytes an image can hide")
    p.add_argument("--in", dest="in_path", required=True, metavar="BMP")
    _add_param_flags(p)
    p.add_argument("--coords", type=_coord_count, default=0, metavar="N",
                   help="also print the first N carrier coordinates")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("edges", help="render the detected edges as a black/white BMP")
    p.add_argument("--in", dest="in_path", required=True, metavar="BMP")
    _add_param_flags(p)
    p.add_argument("--out", required=True, metavar="BMP")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("inspect", help="dump the embedded header of a carrier image")
    p.add_argument("--in", dest="in_path", required=True, metavar="BMP")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("metrics", help="channel-level difference report for two images")
    p.add_argument("--a", required=True, metavar="BMP")
    p.add_argument("--b", required=True, metavar="BMP")
    p.add_argument("--machine", action="store_true",
                   help="single-line key=value output")
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print("\n".join(args.func(args)))  # nothing reaches stdout unless the command succeeded
        return 0
    except (OSError, StegoError) as exc:
        io_error = isinstance(exc, OSError)
        remedy = "check the file paths and permissions" if io_error else exc.remedy
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if remedy:
            print(f"remedy: {remedy}", file=sys.stderr)
        return EXIT_IO if io_error else exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
