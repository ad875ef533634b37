"""One workload in its own process: set up, run the closed loop, check.

Started by run.py with the parent's clock reading at spawn time, so set-up
is timed from the start of this process.  Prints one JSON object on stdout.

The timed phase is the sum of operation latencies: checking an answer,
and any traced-run bookkeeping, happen between operations and are not
counted.  A traced run spends the first half of its time untraced and the
second half traced, and compares the two.  Latencies are kept only from the
host's fast phases (host.py); the figures report how many were kept.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from collections import Counter

import check
import host
import ops
import spans


def percentile(samples: list[tuple[float, float]], q: float) -> float:
    """Nearest-rank percentile of (value, weight) pairs sorted by value."""
    target, total = q * sum(weight for _, weight in samples), 0.0
    for value, weight in samples:
        total += weight
        if total >= target * (1 - 1e-12):
            return value
    return samples[-1][0]


class Loop:
    """The closed loop: one caller, the next operation after the last one."""

    def __init__(self, workload, tracer=None, counters=None, probed=False):
        self.w = workload
        self.probes: list[float] | None = [] if probed else None
        self.tracer = tracer
        self.counters = counters
        self.latencies: list[float] = []
        self.strata: list[str] = []
        self.kinds: list[str] = []
        self.keys: list[str] = []
        self.decided = 0
        self.failures: Counter = Counter()
        self.raised_by_kind: Counter = Counter()

    def one(self, op) -> None:
        w, tracer = self.w, self.tracer
        if self.probes is not None:
            self.probes.append(host.probe())
        if tracer is not None:
            tracer.begin(len(self.latencies), f"op:{op[0]}")
        self.kinds.append(op[0])
        self.strata.append(w.stratum(op))
        text = repr(op)
        self.keys.append(text if len(text) < 120 else op[0])
        start = time.perf_counter()
        try:
            result = w.run(op)
        except Exception as exc:  # every raise is a failed operation
            self.latencies.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end()
            self.failures[f"raised {type(exc).__name__}"] += 1
            self.raised_by_kind[op[0]] += 1
            return
        self.latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end()
        try:
            self.decided += bool(w.check(op, result))
        except check.Rejected as exc:
            self.failures[f"rejected: {exc}"] += 1
            return
        if self.counters is not None:
            w.account(op, result, self.counters)

    def run_for(self, stream, seconds: float) -> None:
        busy = len(self.latencies) and sum(self.latencies)
        while busy < seconds:
            self.one(next(stream))
            busy += self.latencies[-1]
        if self.probes is not None:
            self.probes.append(host.probe())  # closes the last operation

    def fast(self) -> list[int]:
        """Indices of the operations run in the host's fast phase."""
        if self.probes is None:
            return list(range(len(self.latencies)))
        return host.fast_between(self.probes, host.fast_limit(self.probes))

    def samples(self, fast: list[int]) -> list[tuple[float, float]]:
        """The kept latencies as sorted (seconds, weight) pairs.  Each is
        weighted by how many operations of its stratum (cost class) ran per
        kept one, so the figures describe the whole run's mix however the
        fast phases fell.  A stratum with no kept operation keeps them all."""
        ran: Counter = Counter(self.strata)
        by: dict[str, list[float]] = {}
        for i in fast:
            by.setdefault(self.strata[i], []).append(self.latencies[i])
        missing = set(ran) - set(by)
        for stratum, seconds in zip(self.strata, self.latencies):
            if stratum in missing:
                by.setdefault(stratum, []).append(seconds)
        return sorted((t, ran[stratum] / len(times)) for stratum, times in by.items() for t in times)


def layer_metrics(tracer, counters: Counter, loop: Loop, untraced: Loop, workload) -> dict:
    table = tracer.layers()

    def row(layer):
        return table.get(layer, {"calls": 0, "self_s": 0.0, "size": 0, "by_name_s": {}})

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.busy_s"] = row(layer)["self_s"]
        out[f"{layer}.calls"] = row(layer)["calls"]
    states = counters["oracle.cut_states"] + counters["oracle.induced_states"]
    out["oracle.cut_states"] = counters["oracle.cut_states"]
    out["oracle.induced_states"] = counters["oracle.induced_states"]
    out["oracle.states_per_s"] = rate(states, out["oracle.busy_s"])
    out["oracle.undecided"] = counters["oracle.undecided"]
    out["oracle.parity_settled"] = counters["oracle.parity_settled"]
    out["ramsey.colorings"] = counters["ramsey.colorings"]
    out["ramsey.colorings_per_s"] = rate(counters["ramsey.colorings"], out["ramsey.busy_s"])
    out["conditions.budget_exhausted"] = counters["conditions.budget_exhausted"]
    out["conditions.raised"] = loop.raised_by_kind["conditions"]  # plus the defect probes, added later
    reports = counters["conditions.reports"] + out["conditions.raised"]
    out["conditions.settled_frac"] = rate(counters["conditions.settled"], reports)
    out["witnesses.vertices_per_s"] = rate(row("witnesses")["size"], out["witnesses.busy_s"])
    out["families.edges_per_s"] = rate(row("families")["size"], out["families.busy_s"])
    by_name = row("reduction")["by_name_s"]
    out["reduction.reduce_s"] = by_name.get("reduce_maxcut_to_exactcut", 0.0)
    out["reduction.query_s"] = sum((s for name, s in by_name.items() if name != "reduce_maxcut_to_exactcut"), 0.0)
    out["reduction.states_per_s"] = rate(counters["reduction.states"], out["reduction.query_s"])
    stamps = getattr(workload, "stamps", [])
    for i, key in enumerate(("cli.interp_ms", "cli.import_ms", "cli.run_ms")):
        out[key] = 1000 * sorted(s[i] for s in stamps)[len(stamps) // 2] if stamps else 0.0
    out["trace.op_s"] = sum(loop.latencies)
    # each traced operation against the mean untraced time of the same
    # operation (same inputs); kinds stand in only when no input recurs
    for attr in ("keys", "kinds"):
        plain: dict[str, list[float]] = {}
        for key, seconds in zip(getattr(untraced, attr), untraced.latencies):
            plain.setdefault(key, []).append(seconds)
        pairs = [(seconds, sum(plain[key]) / len(plain[key]))
                 for key, seconds in zip(getattr(loop, attr), loop.latencies) if key in plain]
        if pairs:
            break
    out["trace.overhead_frac"] = sum(t for t, _ in pairs) / sum(u for _, u in pairs) - 1 if pairs else 0.0
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()

    import balanceable  # the program under test, from src/ of this checkout

    workload = ops.WORKLOADS[args.workload](balanceable, random.Random(args.seed), root)
    try:
        warm = Loop(workload)
        for op in workload.warmup():
            warm.one(op)
        if warm.failures:
            print(f"warm-up failed: {dict(warm.failures)}", file=sys.stderr)
            return 1
        stream = workload.stream()
        first = next(stream)
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s, "setup_probe_s": host.probe()}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        if args.trace:
            untraced = Loop(workload)
            loops = [untraced]
            untraced.one(first)
            untraced.run_for(stream, args.seconds / 2)
            tracer, counters = spans.Tracer(), Counter()
            tracer.install(balanceable)
            workload.traced = True
            loop = Loop(workload, tracer, counters)
            loops.append(loop)
            try:
                loop.run_for(stream, args.seconds / 2)
            finally:
                tracer.uninstall()
            result["layers"] = layer_metrics(tracer, counters, loop, untraced, workload)
            out_dir = os.path.join(root, "perfbench", "out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"))
        else:
            loop = Loop(workload, probed=True)
            loops = [loop]
            loop.one(first)
            loop.run_for(stream, args.seconds)

        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        # known seed defects, untimed and apart from the timed operations
        defects = Loop(workload)
        for op in workload.probes():
            defects.one(op)
        result["defects"] = {"probed": len(defects.latencies), "failures": dict(defects.failures)}
        if args.trace:
            result["layers"]["conditions.raised"] += defects.raised_by_kind["conditions"]
        for op, error in workload.finish():
            loop.failures[f"rejected: {error}"] += 1
            loop.decided -= 1
    finally:
        workload.close()

    fast = loop.fast()
    samples = loop.samples(fast)
    failures = sum((lp.failures for lp in loops), Counter())
    result.update(
        ops=len(loop.latencies),
        kept=len(fast),
        busy_s=sum(t * weight for t, weight in samples),
        fast_probe_s=host.fast_limit(loop.probes) / host.SLOW_FACTOR if loop.probes else None,
        decided=loop.decided,
        attempted=sum(len(lp.latencies) for lp in loops),
        failed=sum(failures.values()),
        rejected=sum(n for why, n in (failures + defects.failures).items() if why.startswith("rejected")),
        failures=dict(failures),
        p50_s=percentile(samples, 0.5),
        p90_s=percentile(samples, 0.9),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
