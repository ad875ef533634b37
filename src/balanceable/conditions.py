"""Cheap certificates that settle balanceability without exhaustive search.

Positive conditions hand back a witness vertex set:

* an independent set I whose degree sum hits the half band works outright,
  because X = I crosses exactly that sum and W = V minus I keeps the rest;
* a single vertex with degree exactly m/2 is the singleton case of that;
* a bipartite d-regular graph on 4t vertices always yields such an I by
  taking t vertices of one part (degree sum d*t = m/2).

Negative conditions are parity arguments: with all degrees even every cut
is even, so an even m with odd m/2 is unreachable; for regular graphs the
same test depends on (d, n) alone.  The independent-set search uses one
too: every independent set's degree sum is a multiple of the gcd of the
degrees, so a target the gcd does not divide is refused without searching.

Every report keeps the invariant: it carries a witness exactly when its
outcome is implies-balanceable.  These checks are advisory shortcuts;
the exhaustive oracle stays the ground truth.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .graphs import Graph, VertexSet, bipartition
from .oracle import BudgetExceeded, DEFAULT_BUDGET, half_edge_targets, parity_obstruction

__all__ = [
    "independent_degree_sum",
    "big_vertex",
    "bipartite_regular_4n",
    "regular_obstruction",
    "ConditionId",
    "ConditionReport",
    "condition_reports",
    "IMPLIES_BALANCEABLE",
    "IMPLIES_NOT_BALANCEABLE",
    "INAPPLICABLE",
]


def independent_degree_sum(
    g: Graph, target: int, *, node_budget: int = DEFAULT_BUDGET
) -> VertexSet | None:
    """First independent set (in index-sequence order) with degree sum ``target``.

    Branch and bound over vertices in ascending order, include before
    exclude, so the first hit is the lexicographically smallest witness as
    an index sequence.  A node is pruned when the degrees left cannot make
    up the rest of the target, and a vertex is skipped when it neighbours
    the set or overshoots.  Each include pushes a frame holding the state
    before it; a dead end pops the newest frame and resumes at its exclude
    branch, so there is no depth limit.  Raises BudgetExceeded on the node
    after ``node_budget``.

    A positive target that the gcd of the degrees does not divide (every
    positive target, on a graph without edges) returns None before the
    first node: no independent set's degree sum can reach it.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target == 0:
        return VertexSet(g.n, 0)
    n, adj, degs = g.n, g.adj, g.degrees()
    step = math.gcd(*degs)  # 0 on an edgeless graph, which reaches no positive target
    if step == 0 or target % step:
        return None
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + degs[v]
    frames: list[tuple[int, int, int]] = []  # (vertex, remaining, forbidden) before it joined
    v, remaining, forbidden = 0, target, 0
    for _ in range(node_budget):
        if remaining == 0:
            return VertexSet.from_indices(n, [frame[0] for frame in frames])
        if v < n and suffix[v] >= remaining:
            if not forbidden >> v & 1 and degs[v] <= remaining:
                frames.append((v, remaining, forbidden))
                remaining -= degs[v]
                forbidden |= adj[v]
            v += 1
        elif frames:
            v, remaining, forbidden = frames.pop()
            v += 1
        else:
            return None
    raise BudgetExceeded("independent-set", node_budget)


def big_vertex(g: Graph) -> int | None:
    """Smallest vertex with degree exactly m/2, for even m."""
    if g.m % 2:
        return None
    half = g.m // 2
    for v, d in enumerate(g.degrees()):
        if d == half:
            return v
    return None


def bipartite_regular_4n(g: Graph) -> VertexSet | None:
    """For bipartite regular graphs on 4t vertices: t vertices of one part.

    With degree d >= 1 both parts hold exactly n/2 vertices, and any t of
    one part form an independent set with degree sum d*t = m/2.  Returns
    the t smallest vertices of the part containing vertex 0, or None when
    the shape does not apply.
    """
    degs = g.degrees()
    if g.n == 0 or g.n % 4 or min(degs) != max(degs):
        return None
    side = bipartition(g)
    if side is None:
        return None
    return VertexSet.from_indices(g.n, side.indices()[: g.n // 4])


def regular_obstruction(d: int, n: int) -> bool:
    """Whether every d-regular graph on n vertices lacks a half cut.

    This is the parity argument specialized to m = d*n/2: true exactly
    when d = 2 mod 4 and n = 2 mod 4, or d = 4 mod 8 and n odd.  The
    preconditions pin the regime where the question is well-posed.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if not 0 <= d < n:
        raise ValueError(f"degree {d} impossible on {n} vertices")
    if d % 2:
        raise ValueError("degree must be even")
    if (d * n // 2) % 2:
        raise ValueError(f"{d}-regular on {n} vertices has an odd edge count")
    return (d % 4 == 2 and n % 4 == 2) or (d % 8 == 4 and n % 2 == 1)


class ConditionId(enum.Enum):
    DEGREE_HALF_EDGES = "DegreeHalfEdges"
    BIG_VERTEX = "BigVertex"
    PARITY_EULERIAN = "ParityEulerian"
    REGULAR_OBSTRUCTION = "RegularObstruction"
    BIPARTITE_REGULAR_4N = "BipartiteRegular4n"


IMPLIES_BALANCEABLE = "implies-balanceable"
IMPLIES_NOT_BALANCEABLE = "implies-not-balanceable"
INAPPLICABLE = "inapplicable"


class ConditionReport(NamedTuple):
    condition: ConditionId
    outcome: str
    witness: VertexSet | None
    note: str


def _positive(condition: ConditionId, witness: VertexSet | None, note: str) -> ConditionReport:
    """A certificate holds exactly when it found its witness."""
    outcome = IMPLIES_BALANCEABLE if witness is not None else INAPPLICABLE
    return ConditionReport(condition, outcome, witness, note)


def _negative(condition: ConditionId, blocked: bool, note: str) -> ConditionReport:
    """An obstruction holds when it blocks; it never has a witness."""
    outcome = IMPLIES_NOT_BALANCEABLE if blocked else INAPPLICABLE
    return ConditionReport(condition, outcome, None, note)


def condition_reports(
    g: Graph, *, node_budget: int = DEFAULT_BUDGET
) -> tuple[ConditionReport, ...]:
    """Evaluate every condition against ``g``, in a fixed order."""
    lo, hi = half_edge_targets(g.m)
    band = f"{lo}..{hi}" if lo != hi else str(lo)
    try:
        ind = independent_degree_sum(g, lo, node_budget=node_budget)
        if ind is None and hi != lo:
            ind = independent_degree_sum(g, hi, node_budget=node_budget)
        note = (
            f"independent set {list(ind.indices())} has degree sum in {band}"
            if ind is not None
            else f"no independent set reaches degree sum {band}"
        )
    except BudgetExceeded as exc:
        ind, note = None, str(exc)
    reports = [_positive(ConditionId.DEGREE_HALF_EDGES, ind, note)]

    v = big_vertex(g)
    if v is None:
        reports.append(_positive(ConditionId.BIG_VERTEX, None, "no vertex has degree exactly m/2"))
    else:
        note = f"vertex {v} has degree {g.degree(v)} = m/2"
        reports.append(_positive(ConditionId.BIG_VERTEX, VertexSet.from_indices(g.n, [v]), note))

    parity = parity_obstruction(g)
    note = parity.detail if parity is not None else "degree parities do not block half cuts"
    reports.append(_negative(ConditionId.PARITY_EULERIAN, parity is not None, note))

    degs = g.degrees()
    d = degs[0] if g.n and min(degs) == max(degs) else None
    blocked = d is not None and d % 2 == 0 and g.m % 2 == 0 and regular_obstruction(d, g.n)
    note = (
        f"{d}-regular on {g.n} vertices has m = 2 mod 4"
        if blocked
        else "regular-degree parity does not apply"
    )
    reports.append(_negative(ConditionId.REGULAR_OBSTRUCTION, blocked, note))

    quarter = bipartite_regular_4n(g)
    note = (
        "bipartite regular on 4t vertices: t vertices of one part"
        if quarter is not None
        else "not a bipartite regular graph on 4t vertices"
    )
    reports.append(_positive(ConditionId.BIPARTITE_REGULAR_4N, quarter, note))
    return tuple(reports)
