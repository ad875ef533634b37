"""Exhaustive search for half cuts and half-sized induced edge sets.

A graph with m edges is *balanceable* when both of these exist:

* a cut (X, Y) whose crossing-edge count lands in {floor(m/2), ceil(m/2)};
* a vertex set W with e(G[W]) in the same band.

One kernel, ``_scan``, does every search here and in the reduction: it
walks vertex sets as ascending bitmask integers and keeps a score up to
date as each vertex joins or leaves (a binary-counter step touches O(1)
vertices amortized).  The score is the crossing-edge count for cuts, with
vertex 0 pinned inside X to halve the space, and the induced edge count
for induced sets.  Because masks are visited in increasing order, the first
hit is the smallest-mask witness, which keeps every answer deterministic
and lets tests pin exact witnesses.

A cut witness X costs (X >> 1) + 1 states and an induced witness W costs
W + 1; an empty scan costs its whole space.  Each scan has a state budget:
exceeding it raises BudgetExceeded (or surfaces as an Undecided verdict)
rather than returning a wrong answer.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graphs import Graph, VertexSet, e_cut, e_induced

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "half_edge_targets",
    "find_half_cut",
    "find_half_induced",
    "parity_obstruction",
    "BalanceWitness",
    "ObstructionKind",
    "Obstruction",
    "Verdict",
    "decide_balanceable",
]

DEFAULT_BUDGET = 1 << 28


class BudgetExceeded(Exception):
    """Raised when a search would need more nodes or subsets than allowed."""

    def __init__(self, scan: str, budget: int):
        super().__init__(f"{scan} search exhausted its budget of {budget}")
        self.scan = scan
        self.budget = budget


def half_edge_targets(m: int) -> tuple[int, int]:
    """Acceptable edge-count band (floor(m/2), ceil(m/2))."""
    return m // 2, (m + 1) // 2


def _scan(adj, cut, targets, budget, scan, collect=False):
    """The subset scan behind every search, over the cut sides X that hold
    vertex 0 when ``cut`` is set, else over the induced sets W, in
    ascending mask order.

    Vertex v joining the set changes its score by gain[v] + sign * |N(v) & X|:
    (deg, -2) counts crossing edges of a cut, (0, +1) induced edges.
    ``targets`` is a bitmask of scores.  Returns the first set whose score
    is a target (None if none), or with ``collect`` the targets reached.
    A scan visits at most max(``budget``, 1) sets; one cut short by that
    raises BudgetExceeded.
    """
    if cut:  # vertex 0 stays inside X, so the scan walks X = 1 | (s << 1)
        gain = [row.bit_count() for row in adj]
        sign, low, x, score = -2, 1, 1, gain[0]
    else:
        gain = (0,) * len(adj)
        sign, low, x, score = 1, 0, 0, 0
    space = 1 << (len(adj) - low)
    stop = min(space, max(budget, 1))
    # the lowest free vertex is tested inline: each counter step over the
    # vertices above it visits two sets, X and X + {low}
    row0, gain0 = (adj[low], gain[low]) if low < len(adj) else (0, 0)
    bit0 = 1 << low
    reached = 0
    for h in range((stop + 1) >> 1):
        if h:
            t = (h & -h).bit_length()
            for v in range(low + 1, low + t):
                x ^= 1 << v
                score -= gain[v] + sign * (adj[v] & x).bit_count()
            v = low + t
            score += gain[v] + sign * (adj[v] & x).bit_count()
            x |= 1 << v
        if targets >> score & 1:
            if not collect:
                return x
            reached |= 1 << score
            targets ^= 1 << score
        odd = score + gain0 + sign * (row0 & x).bit_count()
        if targets >> odd & 1 and 2 * h + 1 < stop:
            if not collect:
                return x | bit0
            reached |= 1 << odd
            targets ^= 1 << odd
    if stop < space:
        raise BudgetExceeded(scan, budget)
    return reached if collect else None


def find_half_cut(g: Graph, *, budget: int = DEFAULT_BUDGET) -> VertexSet | None:
    """Smallest-mask X containing vertex 0 whose cut lands in the half band."""
    lo, hi = half_edge_targets(g.m)
    if g.n == 0:
        return VertexSet(0, 0) if lo == 0 else None
    x = _scan(g.adj, True, 1 << lo | 1 << hi, budget, "cut")
    return None if x is None else VertexSet(g.n, x)


def find_half_induced(g: Graph, *, budget: int = DEFAULT_BUDGET) -> VertexSet | None:
    """Smallest-mask W with e(G[W]) in the half band."""
    lo, hi = half_edge_targets(g.m)
    w = _scan(g.adj, False, 1 << lo | 1 << hi, budget, "induced")
    return None if w is None else VertexSet(g.n, w)


class ObstructionKind(enum.Enum):
    NO_HALF_CUT = "NoHalfCut"
    NO_HALF_INDUCED = "NoHalfInduced"
    PARITY = "ParityEulerian"
    BOTH = "Both"


class Obstruction(NamedTuple):
    kind: ObstructionKind
    detail: str


def parity_obstruction(g: Graph) -> Obstruction | None:
    """Parity reason (if any) why no cut can reach m/2.

    When every degree is even, e(X, Y) = sum of deg over X minus twice
    e(G[X]) is even for every X.  With m even and m/2 odd, the half band
    is the single odd value m/2, so no cut attains it.
    """
    if any(map((1).__and__, g.degrees())):  # an odd degree
        return None
    if g.m % 2 or (g.m // 2) % 2 == 0:
        return None
    return Obstruction(
        ObstructionKind.PARITY,
        f"all degrees even forces even cuts, but the half target {g.m // 2} is odd",
    )


class BalanceWitness(NamedTuple):
    """Certificate: a cut side and an induced set, with their edge counts."""

    cut_side: VertexSet
    induced_set: VertexSet
    cut_edges: int
    induced_edges: int

    def verify(self, g: Graph) -> bool:
        lo, hi = half_edge_targets(g.m)
        return (
            self.cut_side.n == g.n
            and self.induced_set.n == g.n
            and e_cut(g, self.cut_side) == self.cut_edges
            and e_induced(g, self.induced_set) == self.induced_edges
            and lo <= self.cut_edges <= hi
            and lo <= self.induced_edges <= hi
        )


class Verdict(NamedTuple):
    status: str
    witness: BalanceWitness | None = None
    obstruction: Obstruction | None = None
    reason: str | None = None

    @property
    def is_balanceable(self) -> bool:
        return self.status == "Balanceable"

    @classmethod
    def balanceable(cls, witness: BalanceWitness) -> "Verdict":
        return cls(status="Balanceable", witness=witness)

    @classmethod
    def not_balanceable(cls, obstruction: Obstruction) -> "Verdict":
        return cls(status="NotBalanceable", obstruction=obstruction)

    @classmethod
    def undecided(cls, reason: str) -> "Verdict":
        return cls(status="Undecided", reason=reason)


def decide_balanceable(g: Graph, *, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Decide balanceability outright; each scan gets its own budget.

    The even-degree parity shortcut runs first, so large eulerian graphs
    with m/2 odd never pay for a doomed cut scan.  When the cut scan
    completes empty, the induced scan still runs so the obstruction can
    name both missing halves; if that scan runs out of budget, the kind
    stays NoHalfCut and the detail says the induced half is unsettled.
    """
    lo, hi = half_edge_targets(g.m)
    band = f"{lo}..{hi}" if lo != hi else str(lo)
    parity = parity_obstruction(g)
    if parity is not None:
        return Verdict.not_balanceable(parity)
    try:
        x = find_half_cut(g, budget=budget)
    except BudgetExceeded as exc:
        return Verdict.undecided(str(exc))
    if x is None:
        kind = ObstructionKind.NO_HALF_CUT
        detail = f"no cut attains {band} crossing edges"
        try:
            if find_half_induced(g, budget=budget) is None:
                kind = ObstructionKind.BOTH
                detail = f"no cut and no induced subgraph attains {band} edges"
        except BudgetExceeded as exc:
            detail += f"; the {exc}"
        return Verdict.not_balanceable(Obstruction(kind, detail))
    try:
        w = find_half_induced(g, budget=budget)
    except BudgetExceeded as exc:
        return Verdict.undecided(str(exc))
    if w is None:
        return Verdict.not_balanceable(
            Obstruction(
                ObstructionKind.NO_HALF_INDUCED,
                f"no induced subgraph attains {band} edges",
            )
        )
    return Verdict.balanceable(
        BalanceWitness(
            cut_side=x,
            induced_set=w,
            cut_edges=e_cut(g, x),
            induced_edges=e_induced(g, w),
        )
    )
