"""Regenerate data/expected.json: the answers the search workload checks.

Run from the repository root:  python3 perfbench/make_expected.py

The random graphs are G(n, p) with n in 15..24 and p in {0.2, 0.5, 0.8},
drawn from a fixed seed.  Each library verdict is written down only after
the numpy brute force in brute.py reproduces it exactly: the status, the
smallest-mask cut side and induced set, or the obstruction kind.  The same
holds for bal_number(6, .) on the search patterns.  Any disagreement stops
the script with a non-zero exit and writes nothing.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import balanceable as lib  # noqa: E402

import brute  # noqa: E402
import check  # noqa: E402
from ops import BAL_PATTERNS, random_edges  # noqa: E402

POOL_SEED = 2003
PER_DENSITY = 60


def brute_verdict(n: int, edges) -> dict:
    if check.parity_blocked(n, edges):
        return {"status": check.NOT, "kind": check.PARITY, "cut": None, "induced": None}
    cut = brute.smallest_half_cut(n, edges)
    induced = brute.smallest_half_induced(n, edges)
    if cut is not None and induced is not None:
        return {"status": check.BAL, "kind": None, "cut": cut, "induced": induced}
    kind = {(False, True): "NoHalfInduced", (True, False): "NoHalfCut", (True, True): "Both"}
    return {"status": check.NOT, "kind": kind[(cut is None, induced is None)], "cut": None, "induced": None}


def library_verdict(v) -> dict:
    w = v.witness
    return {
        "status": v.status,
        "kind": v.obstruction.kind.value if v.obstruction else None,
        "cut": w.cut_side.mask if w else None,
        "induced": w.induced_set.mask if w else None,
    }


def main() -> int:
    rng = random.Random(POOL_SEED)
    graphs = []
    for p in (0.2, 0.5, 0.8):
        for _ in range(PER_DENSITY):
            n = rng.randrange(15, 25)
            edges = random_edges(rng, n, p)
            got = library_verdict(lib.decide_balanceable(lib.Graph(n, edges)))
            want = brute_verdict(n, edges)
            if got != want:
                print(f"disagreement on n={n} p={p}: library {got}, brute force {want}", file=sys.stderr)
                return 1
            graphs.append({"n": n, "p": p, "rows": check.rows_of(n, edges), **got})
    bal6 = []
    for spec in BAL_PATTERNS:
        pn, pedges = check.family(spec)
        got = lib.bal_number(6, lib.graph_from_spec(spec))
        want = brute.bal_number(6, pn, pedges)
        if got != want:
            print(f"bal_number(6, {spec}): library {got}, brute force {want}", file=sys.stderr)
            return 1
        bal6.append({"pattern": spec, "value": got})
    out = {
        "about": "answers cross-checked against perfbench/brute.py; regenerate with perfbench/make_expected.py",
        "pool_seed": POOL_SEED,
        "budget": 1 << 28,
        "random_graphs": graphs,
        "bal6": bal6,
    }
    with open(os.path.join(HERE, "data", "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, separators=(",", ":"))
        handle.write("\n")
    statuses = [g["status"] for g in graphs]
    print(f"{len(graphs)} graphs ({statuses.count(check.BAL)} balanceable), {len(bal6)} bal_number values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
