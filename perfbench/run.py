"""Benchmark entry point.

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its src/.
Each workload runs in a fresh process (perfbench/workload.py), on one CPU.
Set-up is timed in that process and in SETUP_PROBES more that stop after
set-up; the median of those that ran in the host's fast phase (host.py) is
reported.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  ``--workload all``
runs every workload in turn and prints every table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import host
from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search", "shortcuts", "cutvalues", "cli")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150

PER_LAYER_UNITS = {"busy_s": "s", "reduce_s": "s", "query_s": "s", "op_s": "s", "states_per_s": "1/s",
                   "colorings_per_s": "1/s", "vertices_per_s": "1/s", "edges_per_s": "1/s",
                   "interp_ms": "ms", "import_ms": "ms", "run_ms": "ms",
                   "settled_frac": "frac", "overhead_frac": "frac"}


def child(root: str, workload: str, seed: int, seconds: float, trace: int, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + HERE
    env.pop("BALANCEABLE_WORKERS", None)
    argv = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned_at = time.monotonic()
    done = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], capture_output=True, text=True, cwd=root,
                          env=env, timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} workload process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(root: str, name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    # (set-up seconds, host probe before the process started, probe after set-up)
    setups = []
    for setup_only in [True] * (0 if trace else SETUP_PROBES) + [False]:
        before = host.probe()
        res = child(root, name, seed, seconds, trace, setup_only, deadline)
        setups.append((res["setup_s"], before, res["setup_probe_s"]))
    limit = host.SLOW_FACTOR * (res["fast_probe_s"] or min(p for _, a, b in setups for p in (a, b)))
    fast = [s for s, a, b in setups if a <= limit and b <= limit] or [s for s, _, _ in setups]
    res["setup_samples"] = [s for s, _, _ in setups]
    res["setup_fast"] = fast
    n = res["ops"]
    if trace:
        metrics = {key: (value, PER_LAYER_UNITS.get(key.split(".", 1)[1], "count"))
                   for key, value in res["layers"].items()}
    else:
        metrics = {
            "ops_per_s": (n / res["busy_s"], "1/s"),
            "latency_p50_ms": (1000 * res["p50_s"], "ms"),
            "latency_p90_ms": (1000 * res["p90_s"], "ms"),
            "decided_frac": (res["decided"] / n, "frac"),
            "setup_s": (statistics.median(fast), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    res["metrics"] = metrics
    return res


def print_table(name: str, res: dict, trace: int) -> None:
    n, att, kept = res["ops"], res["attempted"], res["kept"]
    print(f"== {name}: {n} timed operations, {kept} of them in the host's fast phase; "
          f"{res['busy_s']:.2f} s of operation time at its speed")
    for key, (value, unit) in res["metrics"].items():
        note = ""
        if key == "latency_p50_ms":
            note = f"  (nearest rank, {kept} samples, {kept - -(-kept // 2)} beyond)"
        elif key == "latency_p90_ms":
            note = f"  (nearest rank, {kept} samples, {kept - -(-9 * kept // 10)} beyond)"
        elif key == "decided_frac":
            note = f"  ({res['decided']}/{n})"
        elif key == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in res["setup_fast"]) + \
                f"; {len(res['setup_fast'])} of {len(res['setup_samples'])} set-ups in the fast phase)"
        print(f"  {key:28s} {value:14.6g} {unit:6s}{note}")
    if not trace:
        print(f"  {'fail_frac':28s} {res['failed'] / att:14.6g} {'frac':6s}  ({res['failed']}/{att})")
    else:
        busy = res["metrics"]["trace.op_s"][0]
        shares = ", ".join(f"{layer} {res['metrics'][layer + '.busy_s'][0] / busy:.0%}" for layer in LAYERS)
        print(f"  self-time share of operation time: {shares}")
        if name == "cli":
            m = res["metrics"]
            start = m["cli.interp_ms"][0] + m["cli.import_ms"][0]
            print(f"  interpreter start plus import: {start:.1f} ms of {start + m['cli.run_ms'][0]:.1f} ms (medians)")
    for why, count in sorted(res["failures"].items()):
        print(f"  failure x{count}: {why}")
    defects = res["defects"]
    for why, count in sorted(defects["failures"].items()):
        print(f"  known seed defect, untimed and not counted above: {why} on {count} of {defects['probed']} "
              "condition_reports calls on graphs of order above 1000")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = os.getcwd()
    host.pin_one_cpu()
    if not os.path.isfile(os.path.join(root, "src", "balanceable", "__init__.py")):
        print("run.py: no src/balanceable under the current directory; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        results[name] = run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
        print_table(name, results[name], args.trace)
    prefix = args.workload == "all"
    summary = {
        "correct": all(r["rejected"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}." if prefix else "") + key: {"value": value, "unit": unit}
            for name, r in results.items()
            for key, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
