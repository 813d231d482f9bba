"""Record a baseline: every workload, tracing off and on, into one JSON file.

    python3 bench/record.py --seeds 1,2,3 --seconds 20 --out bench/BENCH_2.json

Each run is `bench/run.py --report`; the file keeps every run's result
without its raw spans, and per workload the median of each metric over
the seeds.  Compare two files only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in s.split(",")])
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    runs, medians = [], {}
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=run.WORK))
    report = scratch / "report.json"
    try:
        for workload in run.WORKLOADS:
            values: dict[str, list[float]] = {}
            for trace in (0, 1):
                for seed in args.seeds:
                    subprocess.run(
                        [sys.executable, str(Path(run.__file__)), "--workload", workload,
                         "--seed", str(seed), "--seconds", str(args.seconds),
                         "--trace", str(trace), "--report", str(report)],
                        check=True, stdout=subprocess.DEVNULL,
                    )
                    result = json.loads(report.read_text(encoding="utf-8"))
                    result.pop("spans", None)
                    runs.append(result)
                    for name, value in result["metrics"].items():
                        values.setdefault(name, []).append(value)
            medians[workload] = {name: statistics.median(v) for name, v in values.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()

    Path(args.out).write_text(
        json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                    "median": medians, "runs": runs}, indent=1) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
