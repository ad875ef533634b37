"""Exact-cut questions, max-cut questions, and the transform between them.

Attaching a star with one leaf per original edge turns "is there a cut of
size at least k" into "is there a cut of size exactly k + m": the star's
hub-leaf edges can pad any cut by 0..m crossing edges, and nothing else.

Both questions are answered from the full set of achievable cut sizes,
computed exactly.  One walk per connected component lists its vertices,
and the per-component value sets combine by sumset.  A tree component on
c vertices reaches every value 0..c-1, since every edge subset of a forest
is a cut, so trees (the star among them) cost no search.  Any other
component is relabeled in ascending vertex order and its 2^(c-1) sides are
walked by the oracle's cut scan, which collects every value it reaches;
those value sets are memoized on the relabeled adjacency rows.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, _frozen, format_edge_list
from .oracle import BudgetExceeded, DEFAULT_BUDGET, _scan

__all__ = [
    "CutInstance",
    "reduce_maxcut_to_exactcut",
    "cut_value_set",
    "has_cut_exactly",
    "has_cut_at_least",
    "max_cut_value",
    "format_cut_instance",
]


class CutInstance:
    """A graph and a cut-size target ``k`` in ``0..m``."""

    __slots__ = ("graph", "k")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, graph: Graph, k: int):
        if not 0 <= k <= graph.m:
            raise ValueError(f"target {k} outside 0..{graph.m}")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "k", k)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CutInstance:
            return NotImplemented
        return self.graph == other.graph and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.graph, self.k))

    def __repr__(self) -> str:
        return f"CutInstance(graph={self.graph!r}, k={self.k!r})"

    def __reduce__(self):
        return CutInstance, (self.graph, self.k)


def reduce_maxcut_to_exactcut(inst: CutInstance) -> CutInstance:
    """Max-cut >= k on G becomes exact-cut = k + m on G plus a star K_{1,m}
    with its hub at vertex n and its leaves at n+1..n+m."""
    g = inst.graph
    n, m = g.n, g.m
    star = [(n, n + i) for i in range(1, m + 1)]
    return CutInstance(Graph(n + m + 1, [*g.edges(), *star]), inst.k + m)


@lru_cache(maxsize=None)
def _cut_values_of_rows(rows: tuple[int, ...]) -> int:
    """Bitmask of achievable cut sizes of one connected component: the
    oracle's cut scan over all sides, collecting every value reached."""
    every = (1 << sum(row.bit_count() for row in rows) // 2 + 1) - 1
    return _scan(rows, True, every, 1 << len(rows), "component cut", True)


def _cut_value_mask(g: Graph, *, budget: int = DEFAULT_BUDGET) -> int:
    """Bitmask of all achievable e(X, Y) over bipartitions of ``g``.

    Each component of c vertices needs a budget of 2^(c-1) sides, trees
    included, so graphs with small components stay cheap at any order.
    """
    adj, deg = g.adj, g.degrees()
    total = 1  # value 0, from the empty side
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        comp = [root]
        ends = 0
        for v in comp:  # the walk appends to the list it reads
            ends += deg[v]
            new = adj[v] & ~seen
            seen |= new
            while new:
                low = new & -new
                comp.append(low.bit_length() - 1)
                new ^= low
        c = len(comp)
        if c > 1 and 1 << (c - 1) > budget:
            raise BudgetExceeded("component cut", budget)
        if ends == 2 * (c - 1):
            values = (1 << c) - 1  # a tree
        else:
            comp.sort()
            rows = tuple(sum(1 << i for i, u in enumerate(comp) if adj[v] >> u & 1) for v in comp)
            values = _cut_values_of_rows(rows)
        merged = 0
        while values:
            low = values & -values
            merged |= total << (low.bit_length() - 1)
            values ^= low
        total = merged
    return total


def cut_value_set(g: Graph, *, budget: int = DEFAULT_BUDGET) -> set[int]:
    """All achievable cut sizes e(X, Y) over bipartitions of ``g``."""
    mask = _cut_value_mask(g, budget=budget)
    return {k for k in range(mask.bit_length()) if mask >> k & 1}


def has_cut_exactly(g: Graph, k: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    if k < 0:
        raise ValueError("cut size must be nonnegative")
    if k > g.m:
        return False
    return bool(_cut_value_mask(g, budget=budget) >> k & 1)


def has_cut_at_least(g: Graph, k: int, *, budget: int = DEFAULT_BUDGET) -> bool:
    return _cut_value_mask(g, budget=budget) >> max(k, 0) != 0


def max_cut_value(g: Graph, *, budget: int = DEFAULT_BUDGET) -> int:
    return _cut_value_mask(g, budget=budget).bit_length() - 1


def format_cut_instance(inst: CutInstance) -> str:
    """Edge-list text with the cut target in a leading comment."""
    return f"# target {inst.k}\n{format_edge_list(inst.graph)}"
