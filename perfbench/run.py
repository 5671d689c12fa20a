"""edgestego benchmark: one workload per run, closed loop, single thread.

    python3 perfbench/run.py --workload large-smooth --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. A run makes its covers and payloads from ``--seed`` (numpy only),
then:

1. set-up: a cold import of ``edgestego`` and a first, untimed embed+extract.
   Two more cold starts run the same in fresh processes (coldstart.py), one
   after the other; ``setup_s`` is the median of the three;
2. the timed closed loop: embed then extract, one cover after another, each
   call starting when the previous one returned, for ``--seconds``. With
   ``--trace 1`` every second pair runs with span wrappers installed;
3. the gate (gate.py) on every cover, with fresh library and CLI calls that
   must agree byte for byte. The timed path's pair runs there under
   tracemalloc for ``peak_mem_mb``.

Every operation's output is checked outside its timing. The last line of
stdout is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from gate import CoverCheck, check_cover, load_digests, sha256
from spans import SITES, STAGE_SITES, MemoryProbe, Tracer, patched, self_times
from workloads import WORKLOADS, Workload, encode_bmp, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
COLD_STARTS = 3  # setup_s is their median
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclasses.dataclass
class Op:
    cover: int
    kind: str  # "embed" or "extract"
    ok: bool
    digest: str | None = None  # the carrier digest of an embed


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it, as context."""
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - pct / 100) >= 10:
            return f"p{pct:g}={float(np.percentile(values, pct)):.3f}"
    return "(no percentile has 10 samples beyond it)"


class Bench:
    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.w = workload
        self.dir = workdir
        start = time.perf_counter()
        self.inputs = make_inputs(workload, seed)
        for i, (cover, payload) in enumerate(self.inputs):
            Path(self._file("cover", i, ".bmp")).write_bytes(encode_bmp(cover))
            Path(self._file("payload", i, ".bin")).write_bytes(payload)
        self.synth_s = time.perf_counter() - start
        self.es = None
        self.params = None
        self.tracer = None  # set while a traced pair runs
        self.ops: list[Op] = []
        self.failures: list[str] = []

    # -- the program ------------------------------------------------------

    def import_program(self) -> float:
        """Import edgestego (and its CLI, if timed); returns the seconds taken."""
        start = time.perf_counter()
        es = importlib.import_module("edgestego")
        if self.w.path == "cli":
            importlib.import_module("edgestego.cli")
        elapsed = time.perf_counter() - start
        if Path(es.__file__).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"imported edgestego from {es.__file__}, not from {SRC}")
        self.es = es
        self.params = es.canny.CannyParams(self.w.sigma_tenths, self.w.low, self.w.high)
        return elapsed

    def cli(self, argv: list[str]) -> tuple[int, str]:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.es.cli.main(argv)
        return code, stdout.getvalue()

    def _file(self, stem: str, i: int, suffix: str) -> str:
        return str(self.dir / f"{stem}{i}{suffix}")

    def traced(self):
        """Span wrappers installed while a tracer is set, else nothing."""
        return patched(SITES, self.tracer.wrap) if self.tracer else contextlib.nullcontext()

    def embed(self, i: int, path: str):
        cover, payload = self.inputs[i]
        if path == "library":
            return self.es.codec.embed(self.es.image.RgbImage(cover), payload, self.params)
        return self.cli(["embed", "--in", self._file("cover", i, ".bmp"),
                         "--data", self._file("payload", i, ".bin"),
                         "--sigma", self.w.sigma_arg, "--low", str(self.w.low),
                         "--high", str(self.w.high),
                         "--out", self._file("carrier", i, ".bmp")])

    def extract(self, i: int, carrier, path: str):
        if path == "library":
            return self.es.codec.extract(carrier)
        return self.cli(["extract", "--in", self._file("carrier", i, ".bmp"),
                         "--out", self._file("extracted", i, ".bin")])

    def carrier_digest(self, i: int, embedded, path: str) -> str | None:
        """SHA-256 of an embed's carrier (pixels, or the CLI's file); None if it failed."""
        if path == "library":
            return sha256(np.ascontiguousarray(embedded.pixels))
        code, _ = embedded
        return sha256(Path(self._file("carrier", i, ".bmp")).read_bytes()) if code == 0 else None

    def extracted_ok(self, i: int, extracted, path: str) -> bool:
        """Whether an extract gave back cover ``i``'s exact payload and params."""
        payload = self.inputs[i][1]
        if path == "library":
            return extracted == (payload, self.params)
        code, printed = extracted
        expected = (f"sigma: {self.w.sigma_arg}", f"low threshold: {self.w.low}",
                    f"high threshold: {self.w.high}")
        return (code == 0 and Path(self._file("extracted", i, ".bin")).read_bytes() == payload
                and all(line in printed.splitlines() for line in expected))

    # -- one closed-loop step ---------------------------------------------

    def pair(self, i: int, label: str) -> tuple[float, float] | None:
        """Embed then extract cover ``i``; returns their seconds, or None on failure.

        Each output is checked after its call returns, outside its timing;
        embeds are compared with the gate's carrier at the end of the run.
        """
        path, times, carrier = self.w.path, [], None
        for kind in ("embed", "extract"):
            if self.tracer is not None:
                self.tracer.op = f"{kind}#{label}"
            start = time.perf_counter()
            try:
                out = self.embed(i, path) if kind == "embed" else self.extract(i, carrier, path)
            except Exception as exc:  # an operation failure is counted, not fatal
                self.ops.append(Op(i, kind, False))
                self.failures.append(f"cover {i} {kind}: {type(exc).__name__}: {exc}")
                return None
            times.append(time.perf_counter() - start)
            if kind == "embed":
                carrier, digest = out, self.carrier_digest(i, out, path)
                self.ops.append(Op(i, kind, digest is not None, digest))
            else:
                self.ops.append(Op(i, kind, self.extracted_ok(i, out, path)))
        return times[0], times[1]

    # -- the phases -------------------------------------------------------

    def setup(self) -> float | None:
        """Cold import plus the first pair, in seconds; None if the pair failed."""
        import_s = self.import_program()
        pair = self.pair(0, "setup")
        importlib.import_module("edgestego.cli")  # the gate's cross-check uses it
        return import_s + sum(pair) if pair else None

    def cold_start_elsewhere(self, workload: Workload, seed: int) -> float | None:
        """``setup`` in a fresh process; its operations join this run's."""
        argv = [sys.executable, str(HERE / "coldstart.py"),
                json.dumps(dataclasses.asdict(workload)), str(seed)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        self.ops += [Op(**op) for op in child["ops"]]
        self.failures += child["failures"]
        return child["setup_s"]

    def loop(self, seconds: float, traced_every_other: bool):
        """Closed loop for ``seconds``; returns untraced and traced pair timings."""
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        n = 0
        while n == 0 or time.perf_counter() < deadline:
            i = n % len(self.inputs)
            if traced_every_other and n % 2:
                with self.traced():
                    traced.append(self.pair(i, str(n)))
            else:
                plain.append(self.pair(i, str(n)))
            n += 1
        return [p for p in plain if p], [p for p in traced if p]

    def gate(self, expected: list[dict] | None, probe: MemoryProbe) -> list[CoverCheck]:
        """Check every cover with fresh library and CLI calls.

        The timed path's pair runs under the memory probe and untraced; the
        other path's pair and the checks run traced when a tracer is set.
        """
        checks = []
        for i, (cover, payload) in enumerate(self.inputs):
            if self.tracer is not None:
                self.tracer.op = f"gate#{i}"
            try:
                check = self._gate_cover(i, cover, payload,
                                         None if expected is None else expected[i], probe)
            except Exception as exc:  # a crash in the gate fails the cover
                check = CoverCheck(problems=[f"{type(exc).__name__}: {exc}"])
            checks.append(check)
        return checks

    def _gate_cover(self, i, cover, payload, expected, probe) -> CoverCheck:
        outputs = {}

        def run_pair(path):
            carrier = self.embed(i, path)
            outputs[path] = carrier, self.extract(i, carrier, path)

        probe.peak_of(lambda: run_pair(self.w.path))
        with self.traced():
            run_pair("cli" if self.w.path == "library" else "library")
            check = check_cover(self.es, cover, payload, self.params, *outputs["library"],
                                expected)
        embedded, extracted = outputs["cli"]
        digest = self.carrier_digest(i, embedded, "cli")
        if digest is None or digest != check.digests.get("carrier_bmp"):
            check.problems.append("the CLI carrier differs from write_bmp(embed(...))")
        if not self.extracted_ok(i, extracted, "cli"):
            check.problems.append("the CLI did not extract the embedded payload and params")
        return check

    def failed_ops(self, checks: list[CoverCheck]) -> int:
        ref = "carrier_pixels" if self.w.path == "library" else "carrier_bmp"
        return sum(
            not op.ok or bool(checks[op.cover].problems)
            or (op.kind == "embed" and op.digest != checks[op.cover].digests.get(ref))
            for op in self.ops
        )


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, setups, pairs, peak, checks) -> dict:
    embed_ms = [1e3 * e for e, _ in pairs]
    extract_ms = [1e3 * x for _, x in pairs]
    mpix = bench.w.size * bench.w.size / 1e6
    busy_s = sum(e + x for e, x in pairs)
    print(f"embed_ms   p50={median(embed_ms):.3f} n={len(embed_ms)} {tail(embed_ms)}")
    print(f"extract_ms p50={median(extract_ms):.3f} n={len(extract_ms)} {tail(extract_ms)}")
    print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
    return {
        "embed_ms_p50": metric(median(embed_ms), "ms"),
        "extract_ms_p50": metric(median(extract_ms), "ms"),
        "mpix_per_s": metric(mpix * len(pairs) / busy_s if busy_s else 0.0, "Mpix/s"),
        "peak_mem_mb": metric(peak / 1e6, "MB"),
        "setup_s": metric(median(setups), "s"),
        "psnr_db": metric(median([c.psnr_db for c in checks]), "dB"),
    }


def per_layer(bench: Bench, plain, traced, peak, probe: MemoryProbe, checks) -> dict:
    spans = bench.tracer.spans
    own = self_times(spans)
    took, self_s, counts = {}, {}, {}
    for span in spans:
        took.setdefault(span.name, []).append(span.end - span.start)
        self_s.setdefault(span.name, []).append(own[span.sid])
        for key, value in span.counts.items():
            counts.setdefault(f"{span.name}.{key}", []).append(value)

    def ms(name, table=took):
        return metric(1e3 * median(table.get(name, [])), "ms")

    def count(name, unit="count"):
        return metric(median(counts.get(name, [])), unit)

    stages = [name.split(".")[1] for _, _, name in STAGE_SITES]
    out = {f"canny.{s}_ms": ms(f"canny.{s}") for s in stages}
    out["canny.detect_edges_self_ms"] = ms("canny.detect_edges", self_s)
    out["canny.smooth_mflop_computed"] = count("canny.smooth.mflop_computed", "Mflop")
    out["canny.nms_survivors"] = count("canny.non_max_suppression.survivors")
    for key in ("strong_px", "weak_px", "edge_px"):
        out[f"canny.{key}"] = count(f"canny.hysteresis.{key}")
    out["canny.hysteresis_keep_ratio"] = metric(median(
        [s.counts["edge_px"] / s.counts["candidate_px"] for s in spans
         if s.name == "canny.hysteresis" and s.counts.get("candidate_px")]), "ratio")
    for kind in ("embed", "extract"):
        ops = {s.op for s in spans if s.op and s.op.startswith(f"{kind}#")}
        calls = [s.op for s in spans if s.op in ops and s.name == "canny.detect_edges"]
        out[f"canny.detect_calls_per_op.{kind}"] = metric(len(calls) / max(len(ops), 1), "count")
    for s in stages:
        out[f"canny.{s}_peak_mb"] = metric(median(probe.stage_peaks.get(f"canny.{s}", [])) / 1e6, "MB")
    out["mem_ratio"] = metric(peak / bench.inputs[0][0].nbytes, "ratio")
    out["carrier.enumerate_carriers_ms"] = ms("carrier.enumerate_carriers")
    out["carrier.capacity_bytes_ms"] = ms("carrier.capacity_bytes")
    out["carrier.count"] = count("carrier.enumerate_carriers.count")
    out["carrier.capacity_bytes"] = count("carrier.capacity_bytes.capacity_bytes", "B")
    out["carrier.utilization"] = metric(median(
        [bench.w.payload_bytes / c.capacity for c in checks if c.capacity]), "ratio")
    out["codec.embed_self_ms"] = ms("codec.embed", self_s)
    out["codec.extract_self_ms"] = ms("codec.extract", self_s)
    out["codec.read_header_ms"] = ms("codec.read_header")
    out["codec.payload_bits"] = count("codec.embed.payload_bits", "bit")
    out["bmp.read_bmp_ms"] = ms("bmp.read_bmp")
    out["bmp.write_bmp_ms"] = ms("bmp.write_bmp")
    out["bmp.bytes_read"] = count("bmp.read_bmp.bytes", "B")
    out["bmp.bytes_written"] = count("bmp.write_bmp.bytes", "B")
    out["cli.embed_self_ms"] = ms("cli.embed", self_s)
    out["cli.extract_self_ms"] = ms("cli.extract", self_s)
    out["metrics.diff_ms"] = ms("metrics.diff")
    plain_s, traced_s = median([sum(p) for p in plain]), median([sum(p) for p in traced])
    out["trace_overhead"] = metric(traced_s / plain_s - 1 if plain_s and traced_s else 0.0,
                                   "ratio")
    print(f"trace: {len(spans)} spans, {len(traced)} traced and {len(plain)} untraced pairs")
    return out


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench = Bench(workload, seed, Path(tmp))
        print(f"workload {workload.name} seed {seed}: {len(bench.inputs)} cover(s) "
              f"{workload.size}x{workload.size}, sigma {workload.sigma_arg}, thresholds "
              f"{workload.low}/{workload.high}, payload {workload.payload_bytes} B, "
              f"{workload.path} path")
        print(f"input synthesis {bench.synth_s:.3f} s (context; not part of setup_s)")
        setups = [bench.setup()]
        setups += [bench.cold_start_elsewhere(workload, seed) for _ in range(COLD_STARTS - 1)]
        setups = [s for s in setups if s is not None]  # a failed pair is counted, not timed
        if trace:
            bench.tracer = Tracer()
        plain, traced = bench.loop(seconds, trace)
        expected = None
        if seed == DEFAULT_SEED:
            expected = load_digests(workload.name) or [{}] * len(bench.inputs)
        probe = MemoryProbe()
        checks = bench.gate(expected, probe)
        peak = median(probe.peaks)
    with contextlib.suppress(OSError):
        WORK.rmdir()

    for i, c in enumerate(checks):
        state = "ok" if not c.problems else "FAILED: " + "; ".join(c.problems)
        print(f"cover {i}: edge density {c.edge_density:.4f}, capacity {c.capacity} B, "
              f"utilization {workload.payload_bytes / max(c.capacity, 1):.3f}, "
              f"psnr {c.psnr_db:.2f} dB, gate {state}")
    for line in bench.failures[:5]:
        print(f"failure: {line}")
    attempted = len(bench.ops) + len(checks)
    failed = bench.failed_ops(checks) + sum(bool(c.problems) for c in checks)
    print(f"fail_ratio {failed / attempted:.4f} ({failed}/{attempted} operations and gates)")

    if trace:
        metrics = per_layer(bench, plain, traced, peak, probe, checks)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{workload.name}-seed{seed}.json").write_text(
            json.dumps([dataclasses.asdict(s) for s in bench.tracer.spans]))
    else:
        metrics = end_to_end(bench, setups, plain, peak, checks)
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgestego" / "__init__.py").is_file():
        print(f"error: no edgestego package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
