"""The host's speed, so that timings come from its fast phases.

On a shared host a vCPU can run at half speed for seconds at a time while
its sibling thread is busy: a fixed pure-Python loop then takes 15.5 ms
instead of 7.7 ms, in phases of 1-6 s, on each vCPU independently.  Left
in, those phases make a run's figures depend on how much of it the host
spent slow.  So the benchmark runs on one CPU, times a short fixed loop
(``probe``) before every operation and after the last one, and keeps an
operation's latency only when the probes on both sides of it ran at the
run's fast speed (``fast_limit``).  Every operation is still run, counted
and checked.
"""

from __future__ import annotations

import os
import time

PROBE_LOOP = 20_000  # iterations: about 0.4 ms at full speed
FAST_QUANTILE = 0.1  # the probe time taken as the run's fast speed
SLOW_FACTOR = 1.3  # probes slower than this multiple of it mark a slow phase


def pin_one_cpu() -> None:
    """Run this process and its children on one CPU, the one the probes time."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def probe() -> float:
    """Seconds for a fixed loop, the faster of two tries."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def fast_limit(probes: list[float]) -> float:
    """The slowest probe time still counted as the fast phase."""
    ordered = sorted(probes)
    return SLOW_FACTOR * ordered[int(FAST_QUANTILE * (len(ordered) - 1))]


def fast_between(probes: list[float], limit: float) -> list[int]:
    """Indices i whose bracketing probes i and i + 1 are both fast."""
    return [i for i in range(len(probes) - 1) if probes[i] <= limit and probes[i + 1] <= limit]
