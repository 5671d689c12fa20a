"""One cold start of a run, in a process of its own.

    python3 perfbench/coldstart.py '<workload as JSON>' <seed>

run.py starts this for its extra ``setup_s`` samples, so that each sample
imports ``edgestego`` cold. It makes the run's inputs, times ``Bench.setup``
(the import plus a first embed+extract) and prints, as its last line, the
seconds and the operations it checked.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import Workload


def main() -> int:
    workload, seed = Workload(**json.loads(sys.argv[1])), int(sys.argv[2])
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bench = run.Bench(workload, seed, Path(tmp))
        setup_s = bench.setup()
    print(json.dumps({"setup_s": setup_s, "ops": [dataclasses.asdict(op) for op in bench.ops],
                      "failures": bench.failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
