"""Run every workload and print one row per workload.

    python3 perfbench/report.py [--seeds 3]

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``. Each run
is a separate ``run.py`` process, started only after the previous one ended. For each workload and end-to-end
metric the table gives the median over the seeds and, with three or more
seeds, the spread: the distance between the first and third quartiles as a
share of the median. One traced run per workload then gives the per-layer
metrics, one column per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 3 or not statistics.median(values):
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"±{(q3 - q1) / statistics.median(values):.3f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]

    e2e = SPEC["end_to_end"]
    print("workload".ljust(14) + "".join(f"{m['name']} ({m['unit']})".rjust(26) for m in e2e)
          + "  fail_ratio")
    layers = {}
    for workload in workloads:
        results = [run_once(workload, seed, 0) for seed in range(args.seeds)]
        cells = []
        for m in e2e:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            cells.append(f"{statistics.median(values):.3f} {spread(values)}".rjust(26))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(workload.ljust(14) + "".join(cells) + f"  {failed / attempted:.4f}", flush=True)
        layers[workload] = run_once(workload, 0, 1)["metrics"]

    print("\nper-layer (one traced run, seed 0)".ljust(44)
          + "".join(w.rjust(16) for w in workloads))
    for m in SPEC["per_layer"]:
        row = "".join(f"{layers[w][m['name']]['value']:16.3f}" for w in workloads)
        print(f"  {m['name']} ({m['unit']})".ljust(44) + row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
