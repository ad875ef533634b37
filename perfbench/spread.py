"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10 --seconds 10

For every metric: the median of the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median.  ``--out FILE``
also writes the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
              file=sys.stderr)
    summary = {}
    for key, first in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[key] = {"unit": first["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                        "spread": spread, "values": values}
        print(f"{key:28s} median {statistics.median(values):12.6g} {first['unit']:6s} spread {spread:8.2%}")
    failed = [r["failed"] for r in runs]
    print(f"correct in every run: {all(r['correct'] for r in runs)}; failed per run: {failed}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
                       "metrics": summary, "failed": failed, "attempted": [r["attempted"] for r in runs]},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
