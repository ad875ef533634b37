"""Answer checker, written without the library's counting code.

Edge lists come from this module's own family generators (same vertex
labels as the library documents), and every witness is recounted from
them.  Verdicts are held to the paper's rules for its families, to closed
forms for complete graphs, to brute force for small cut-value queries, and
to ``data/expected.json`` for random graphs and ``bal_number(6, .)``.
A rejected answer raises :class:`Rejected`.
"""

from __future__ import annotations

import json
import math
from itertools import combinations

BAL = "Balanceable"
NOT = "NotBalanceable"
UNDECIDED = "Undecided"
PARITY = "ParityEulerian"

# criterion 09 of the acceptance tests: bal_number(n, pattern)
FROZEN_BAL = {(4, "path:2"): 0, (5, "path:2"): 0, (4, "complete:4"): 2}


class Rejected(Exception):
    """An answer the checker does not accept."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Rejected(message)


def band(m: int) -> tuple[int, int]:
    return m // 2, (m + 1) // 2


# ---------------------------------------------------------------- families


def _norm(pairs) -> list[tuple[int, int]]:
    return sorted({(min(u, v), max(u, v)) for u, v in pairs})


def circulant_edges(k: int, steps) -> list[tuple[int, int]]:
    return _norm((i, (i + j) % k) for j in steps for i in range(k))


def tri_label(row: int, pos: int) -> int:
    return (row - 1) * row // 2 + pos - 1


def family(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """Order and edge list of a family spec such as ``chorded:38,8``."""
    kind, _, rest = spec.partition(":")
    if kind == "cycle":
        k = int(rest)
        return k, circulant_edges(k, (1,))
    if kind == "chorded":
        k, ell = map(int, rest.split(","))
        return k, circulant_edges(k, (1, min(ell, k - ell)))
    if kind == "antiprism":
        k = int(rest)
        return 2 * k, circulant_edges(2 * k, (1, 2))
    if kind == "complete":
        n = int(rest)
        return n, list(combinations(range(n), 2))
    if kind == "path":
        e = int(rest)
        return e + 1, [(i, i + 1) for i in range(e)]
    if kind == "wheel":
        rim = int(rest)
        return rim + 1, circulant_edges(rim, (1,)) + [(i, rim) for i in range(rim)]
    if kind == "grid":
        r, c = map(int, rest.split("x"))
        edges = [(v, v + 1) for v in range(r * c) if v % c + 1 < c]
        edges += [(v, v + c) for v in range(r * c - c)]
        return r * c, sorted(edges)
    if kind == "tri":
        h = int(rest)
        edges = []
        for row in range(1, h + 1):
            for pos in range(1, row + 1):
                v = tri_label(row, pos)
                if pos < row:
                    edges.append((v, v + 1))
                if row < h:
                    edges += [(v, tri_label(row + 1, pos)), (v, tri_label(row + 1, pos + 1))]
        return h * (h + 1) // 2, sorted(edges)
    raise ValueError(f"checker has no generator for {spec!r}")


# ---------------------------------------------------------------- counting


def _members(mask: int, n: int) -> str:
    bits = bin(mask)[:1:-1]
    return bits + "0" * (n - len(bits))


def cut_count(n: int, edges, mask: int) -> int:
    side = _members(mask, n)
    return sum(side[u] != side[v] for u, v in edges)


def induced_count(n: int, edges, mask: int) -> int:
    side = _members(mask, n)
    return sum(side[u] == side[v] == "1" for u, v in edges)


def rows_of(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def degrees(n: int, edges) -> list[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def parity_blocked(n: int, edges) -> bool:
    """All degrees even forces every cut even, so an odd m/2 is unreachable."""
    m = len(edges)
    return m % 2 == 0 and (m // 2) % 2 == 1 and all(d % 2 == 0 for d in degrees(n, edges))


def bipartite(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if colour[u] < 0:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def brute_cut_values(n: int, edges) -> set[int]:
    """Every cut size, over all 2^n sides (small graphs only)."""
    return {cut_count(n, edges, mask) for mask in range(1 << n)}


# ---------------------------------------------------------------- verdicts


def circulant_rule(k: int, ell: int) -> tuple[str, str | None]:
    """C_k(1, l): balanceable exactly for even k, except C_6(1, 2)."""
    if k % 2:
        return NOT, PARITY
    if (k, min(ell, k - ell)) == (6, 2):
        return NOT, "NoHalfInduced"
    return BAL, None


def rect_rule(rows: int, cols: int) -> tuple[str, str | None]:
    expect((rows - cols) % 2 == 0, f"grid {rows}x{cols} is outside the same-parity rule")
    return BAL, None


def tri_rule(h: int) -> tuple[str, str | None]:
    """T_h: m even only for h mod 8 in {0, 1, 4, 5}; {4, 5} are parity-blocked."""
    return {0: (BAL, None), 1: (BAL, None), 4: (NOT, PARITY), 5: (NOT, PARITY)}[h % 8]


def family_rule(spec: str) -> tuple[str, str | None]:
    kind, _, rest = spec.partition(":")
    if kind == "chorded":
        return circulant_rule(*map(int, rest.split(",")))
    if kind == "grid":
        return rect_rule(*map(int, rest.split("x")))
    if kind == "tri":
        return tri_rule(int(rest))
    n, edges = family(spec)
    expect(parity_blocked(n, edges), f"no rule for {spec}")
    return NOT, PARITY


def complete_rule(n: int, budget: int) -> dict:
    """Verdict of the exhaustive oracle on K_n, from closed forms.

    A cut with s vertices on vertex 0's side crosses s(n - s) edges and t
    vertices induce C(t, 2); the smallest masks are the prefixes.  A scan
    whose answer sits at index i needs i < budget; an empty scan of a space
    of size N completes only when N <= budget.
    """
    m = n * (n - 1) // 2
    lo, hi = band(m)
    if m % 2 == 0 and (m // 2) % 2 and (n - 1) % 2 == 0:
        return {"status": NOT, "kind": PARITY}
    s = next((s for s in range(1, n + 1) if lo <= s * (n - s) <= hi), None)
    t = next((t for t in range(n + 1) if lo <= t * (t - 1) // 2 <= hi), None)
    if s is None:
        if 1 << (n - 1) > budget:
            return {"status": UNDECIDED}
        both = t is None and 1 << n <= budget
        return {"status": NOT, "kind": "Both" if both else "NoHalfCut"}
    if (1 << (s - 1)) - 1 >= budget:
        return {"status": UNDECIDED}
    if t is None:
        if 1 << n > budget:
            return {"status": UNDECIDED}
        return {"status": NOT, "kind": "NoHalfInduced"}
    if (1 << t) - 1 >= budget:
        return {"status": UNDECIDED}
    return {"status": BAL, "cut": (1 << s) - 1, "induced": (1 << t) - 1}


def witness(n: int, edges, cut_mask: int, induced_mask: int, cut_edges: int, induced_edges: int):
    lo, hi = band(len(edges))
    cut = cut_count(n, edges, cut_mask)
    inside = induced_count(n, edges, induced_mask)
    expect(cut == cut_edges, f"cut side crosses {cut} edges, reported {cut_edges}")
    expect(inside == induced_edges, f"set induces {inside} edges, reported {induced_edges}")
    expect(lo <= cut <= hi and lo <= inside <= hi, f"counts {cut}, {inside} miss {lo}..{hi}")


def verdict(n: int, edges, got, want: dict) -> None:
    """Hold a Verdict to ``want``: status, and the obstruction kind or the
    exact witness masks where they are known."""
    expect(got.status == want["status"], f"status {got.status}, expected {want['status']}")
    if got.status == BAL:
        w = got.witness
        witness(n, edges, w.cut_side.mask, w.induced_set.mask, w.cut_edges, w.induced_edges)
        for key, vs in (("cut", w.cut_side), ("induced", w.induced_set)):
            if want.get(key) is not None:
                expect(vs.mask == want[key], f"{key} mask {vs.mask:#x}, expected {want[key]:#x}")
    elif got.status == NOT and want.get("kind"):
        kind = got.obstruction.kind.value
        expect(kind == want["kind"], f"obstruction {kind}, expected {want['kind']}")


def construction(spec: str, result) -> None:
    """A closed-form witness for a family spec, against the family rule."""
    n, edges = family(spec)
    status, kind = family_rule(spec)
    verdict(n, edges, result.verdict, {"status": status, "kind": kind})
    ind = result.independent_set
    if ind is not None:
        lo, hi = band(len(edges))
        expect(induced_count(n, edges, ind.mask) == 0, "independent set has an inner edge")
        deg = degrees(n, edges)
        expect(lo <= sum(deg[v] for v in ind.indices()) <= hi, "independent set misses the band")


def conditions(n: int, edges, reports) -> bool:
    """Check a condition_reports tuple; return False when the independent-set
    search ran out of budget (the only undecided outcome)."""
    names = [r.condition.value for r in reports]
    expect(
        names == ["DegreeHalfEdges", "BigVertex", "ParityEulerian", "RegularObstruction", "BipartiteRegular4n"],
        f"condition order {names}",
    )
    m, deg = len(edges), degrees(n, edges)
    lo, hi = band(m)
    for r in reports:
        expect((r.witness is not None) == (r.outcome == "implies-balanceable"), f"{r.condition} witness/outcome")

    ind, big, par, reg, quarter = reports
    decided = "exhausted" not in ind.note
    if ind.witness is not None:
        expect(induced_count(n, edges, ind.witness.mask) == 0, "DegreeHalfEdges set is not independent")
        expect(lo <= sum(deg[v] for v in ind.witness.indices()) <= hi, "DegreeHalfEdges sum misses the band")
    elif decided:
        step = math.gcd(*deg) if m else 0
        expect(step > 1 and lo % step and hi % step, "unproven claim that no independent set fits")

    want_big = next((v for v in range(n) if m % 2 == 0 and deg[v] == m // 2), None)
    got_big = big.witness.indices()[0] if big.witness is not None else None
    expect(got_big == want_big, f"BigVertex {got_big}, expected {want_big}")

    blocked = parity_blocked(n, edges)
    expect((par.outcome == "implies-not-balanceable") == blocked, "ParityEulerian outcome")
    regular = n > 0 and min(deg) == max(deg)
    expect((reg.outcome == "implies-not-balanceable") == (regular and blocked), "RegularObstruction outcome")

    shape = regular and n > 0 and n % 4 == 0 and bipartite(n, edges)
    expect((quarter.witness is not None) == shape, "BipartiteRegular4n applicability")
    if quarter.witness is not None:
        expect(induced_count(n, edges, quarter.witness.mask) == 0, "quarter set is not independent")
        expect(sum(deg[v] for v in quarter.witness.indices()) * 2 == m, "quarter set misses m/2")
    return decided


def load_expected(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def rows_to_edges(rows) -> list[tuple[int, int]]:
    return [(u, v) for u, row in enumerate(rows) for v in range(u + 1, row.bit_length()) if row >> v & 1]
