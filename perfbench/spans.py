"""Span tracing and memory probing from outside the program.

Nothing in ``src/`` is edited: while a traced or probed pass lasts, the
module globals at each call site are replaced by recording wrappers and
restored afterwards. The untimed memory pass and the traced run are the only
users; the timed run installs no wrappers.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, global, span name). The first five are the detector stages that
# canny.detect_edges looks up in its own module; the rest are the globals
# codec and cli imported, and the entry points the benchmark itself calls.
# "cli" spans are named after the subcommand: cli.embed, cli.extract.
STAGE_SITES = (
    ("edgestego.canny", "to_masked_gray", "canny.to_masked_gray"),
    ("edgestego.canny", "smooth", "canny.smooth"),
    ("edgestego.canny", "gradients", "canny.gradients"),
    ("edgestego.canny", "non_max_suppression", "canny.non_max_suppression"),
    ("edgestego.canny", "hysteresis", "canny.hysteresis"),
)
SITES = STAGE_SITES + (
    ("edgestego.codec", "detect_edges", "canny.detect_edges"),
    ("edgestego.cli", "read_bmp", "bmp.read_bmp"),
    ("edgestego.cli", "write_bmp", "bmp.write_bmp"),
    ("edgestego.cli", "detect_edges", "canny.detect_edges"),
    ("edgestego.cli", "enumerate_carriers", "carrier.enumerate_carriers"),
    ("edgestego.cli", "capacity_bytes", "carrier.capacity_bytes"),
    ("edgestego.cli", "embed", "codec.embed"),
    ("edgestego.cli", "extract", "codec.extract"),
    ("edgestego.cli", "read_header", "codec.read_header"),
    ("edgestego.cli", "diff", "metrics.diff"),
    ("edgestego.canny", "detect_edges", "canny.detect_edges"),
    ("edgestego.codec", "embed", "codec.embed"),
    ("edgestego.codec", "extract", "codec.extract"),
    ("edgestego.bmp", "read_bmp", "bmp.read_bmp"),
    ("edgestego.bmp", "write_bmp", "bmp.write_bmp"),
    ("edgestego.carrier", "capacity_bytes", "carrier.capacity_bytes"),
    ("edgestego.metrics", "diff", "metrics.diff"),
    ("edgestego.cli", "main", "cli"),
)
BOOKKEEPING = "trace.bookkeeping"


def _hysteresis_counts(args, edges):
    thinned, params = args[0], args[1]
    strong = int(np.count_nonzero(thinned >= params.high_threshold))
    candidate = int(np.count_nonzero(thinned >= params.low_threshold))
    return {"strong_px": strong, "weak_px": candidate - strong,
            "edge_px": edges.count, "candidate_px": candidate}


def _smooth_counts(args, smoothed):
    radius = -(-3 * args[1].sigma_tenths // 10)  # ceil(3 sigma), the documented radius
    return {"mflop_computed": 2 * (2 * radius + 1) * 2 * smoothed.values.size / 1e6}


# Work counts taken from a call's arguments and result, outside its span.
COUNTS = {
    "canny.smooth": _smooth_counts,
    "canny.non_max_suppression": lambda a, r: {"survivors": int(np.count_nonzero(r))},
    "canny.hysteresis": _hysteresis_counts,
    "carrier.enumerate_carriers": lambda a, r: {"count": len(r)},
    "carrier.capacity_bytes": lambda a, r: {"capacity_bytes": r},
    "codec.embed": lambda a, r: {"payload_bits": 8 * len(a[1])},
    "bmp.read_bmp": lambda a, r: {"bytes": len(a[0])},
    "bmp.write_bmp": lambda a, r: {"bytes": len(r)},
}


@contextmanager
def patched(sites, make):
    """Replace each site's global with ``make(span_name, original)``, then restore.

    A site whose global no longer exists is skipped, so a refactor that drops
    a call site loses that span instead of breaking the benchmark.
    """
    saved = []
    try:
        for module_name, attr, name in sites:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, make(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class Span:
    sid: int
    parent: int | None
    op: str | None  # the operation id every span of one operation shares
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; ``op`` is set by the caller before each operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            span = self._open(f"cli.{args[0][0]}" if name == "cli" else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                # counting is real work inside the parent's interval; its own
                # span keeps it out of the parent's self time
                book = self._open(BOOKKEEPING)
                span.counts = count(args, result)
                self._close(book)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by the union of its direct children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.sid], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = (span.end - span.start) - covered
    return result


class MemoryProbe:
    """tracemalloc peak of one operation and of each detector stage inside it.

    A stage's peak is counted above the memory held when it was entered.
    """

    def __init__(self):
        self.stage_peaks: dict[str, list[int]] = defaultdict(list)
        self.peaks: list[int] = []
        self._high = 0

    def wrap(self, name, fn):
        def probed(*args, **kwargs):
            self._high = max(self._high, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.stage_peaks[name].append(peak - base)
                self._high = max(self._high, peak)

        return probed

    def peak_of(self, fn) -> int:
        """Run ``fn`` with tracemalloc on and the stage probes installed.

        Its peak, in bytes, is appended to ``peaks``.
        """
        self._high = 0
        tracemalloc.start()
        try:
            with patched(STAGE_SITES, self.wrap):
                fn()
            self.peaks.append(max(self._high, tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
