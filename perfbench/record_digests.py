"""Record the gate's digests for the default seed into digests.json.

    python3 perfbench/record_digests.py

Run it only when a change to the wire format or the detector is meant to
change the output; every performance change must leave the file as it is.
It refuses to record a cover that fails any other check of the gate.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
from pathlib import Path

from gate import DIGESTS_PATH
from spans import MemoryProbe
from run import DEFAULT_SEED, SRC, WORK, Bench
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(SRC))
    digests = {}
    WORK.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            bench = Bench(workload, DEFAULT_SEED, Path(tmp))
            bench.import_program()
            importlib.import_module("edgestego.cli")
            checks = bench.gate(None, MemoryProbe())
        for i, check in enumerate(checks):
            if check.problems:
                print(f"{name} cover {i}: {'; '.join(check.problems)}", file=sys.stderr)
                return 1
        digests[name] = [{k: c.digests[k] for k in ("edges", "carrier_bmp")} for c in checks]
        print(f"{name}: {len(checks)} cover(s) recorded")
    DIGESTS_PATH.write_text(json.dumps({"seed": DEFAULT_SEED, **digests}, indent=2) + "\n")
    WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
