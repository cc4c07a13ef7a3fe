"""Time one workload's set-up in a fresh interpreter.

Usage: python3 bench/probe.py WORKLOAD SEED [--sizes]

Prints one JSON object: `setup_s` (import of the package, which builds the
closed forms, plus the workload's one-time preparation, calibrated by the
reference loop sampled while it runs; `raw_setup_s` is uncalibrated),
`closedforms_s` (a re-execution of the `closedforms` module body alone)
and, with `--sizes`, the SHA-256 of the symbolic size table, so that the
table can be compared across processes with different hash seeds.
"""

import hashlib
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with calibrate.Speedometer() as meter:
        import butterfly  # noqa: F401  (the import is what is being timed)
        import workloads
        workloads.WORKLOADS[workload](ROOT, seed).prepare()

    del sys.modules["butterfly.closedforms"]
    start = perf_counter()
    importlib.import_module("butterfly.closedforms")
    result = {"setup_s": meter.calibrated, "raw_setup_s": meter.seconds,
              "closedforms_s": perf_counter() - start}
    if "--sizes" in sys.argv[3:]:
        table = workloads.size_bytes(workloads.size_table())
        result["sizes_sha256"] = hashlib.sha256(table).hexdigest()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
