"""Exact-cut questions, max-cut questions, and the transform between them.

Attaching a star with one leaf per original edge turns "is there a cut of
size at least k" into "is there a cut of size exactly k + m": the star's
hub-leaf edges can pad any cut by 0..m crossing edges, and nothing else.

Both questions are answered from the full set of achievable cut sizes,
computed exactly.  The graph splits into connected components; each one's
2^(c-1) sides are walked by the oracle's cut scan, which collects every
value it reaches, and the per-component value sets combine by sumset.
Component value sets are memoized on the relabeled adjacency rows, so
repeated shapes (every star leaf count, say) are enumerated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .families import star
from .graphs import Graph, _iter_bits, disjoint_union
from .oracle import BudgetExceeded, DEFAULT_BUDGET, _scan

__all__ = [
    "CutInstance",
    "reduce_maxcut_to_exactcut",
    "cut_value_set",
    "has_cut_exactly",
    "has_cut_at_least",
    "max_cut_value",
    "parse_cut_instance",
    "format_cut_instance",
]


@dataclass(frozen=True)
class CutInstance:
    graph: Graph
    k: int

    def __post_init__(self):
        if not 0 <= self.k <= self.graph.m:
            raise ValueError(f"target {self.k} outside 0..{self.graph.m}")


def reduce_maxcut_to_exactcut(inst: CutInstance) -> CutInstance:
    """Max-cut >= k on G becomes exact-cut = k + m on G plus a star K_{1,m}."""
    m = inst.graph.m
    return CutInstance(disjoint_union(inst.graph, star(m)), inst.k + m)


def _components(g: Graph) -> list[int]:
    seen = 0
    comps = []
    for v0 in range(g.n):
        if seen >> v0 & 1:
            continue
        comp = 0
        frontier = 1 << v0
        while frontier:
            comp |= frontier
            grown = 0
            for v in _iter_bits(frontier):
                grown |= g.adj[v]
            frontier = grown & ~comp
        seen |= comp
        comps.append(comp)
    return comps


def _subgraph_rows(g: Graph, comp: int) -> tuple[int, ...]:
    verts = list(_iter_bits(comp))
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for u in _iter_bits(g.adj[v] & comp):
            row |= 1 << index[u]
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def _cut_values_of_rows(rows: tuple[int, ...]) -> int:
    """Bitmask of achievable cut sizes of one connected component: the
    oracle's cut scan over all sides, collecting every value reached."""
    deg = [row.bit_count() for row in rows]
    every = (1 << sum(deg) // 2 + 1) - 1
    return _scan(rows, deg, -2, 1, 1, deg[0], every, 1 << len(rows), "component cut", True)


def _cut_value_mask(g: Graph, *, budget: int = DEFAULT_BUDGET) -> int:
    """Bitmask of all achievable e(X, Y) over bipartitions of ``g``.

    Computed per connected component (vertex 0 of each pinned to one side)
    and combined as a sumset, so graphs with small components stay cheap
    even when the total order is large.
    """
    total = 1  # value 0, from the empty side
    for comp in _components(g):
        size = comp.bit_count()
        if size > 1 and 1 << (size - 1) > budget:
            raise BudgetExceeded("component cut", budget)
        comp_values = _cut_values_of_rows(_subgraph_rows(g, comp))
        merged = 0
        v = comp_values
        while v:
            low = v & -v
            merged |= total << (low.bit_length() - 1)
            v ^= low
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
    from .graphs import format_edge_list

    return f"# target {inst.k}\n{format_edge_list(inst.graph)}"


def parse_cut_instance(text: str) -> CutInstance:
    from .graphs import parse_edge_list

    target = None
    for line in text.splitlines():
        token = line.strip()
        if token.startswith("#") and token[1:].split()[:1] == ["target"]:
            parts = token[1:].split()
            if len(parts) != 2:
                raise ValueError("target comment must be '# target <k>'")
            try:
                target = int(parts[1])
            except ValueError:
                raise ValueError(f"bad cut target {parts[1]!r}") from None
    if target is None:
        raise ValueError("no '# target <k>' line found")
    return CutInstance(parse_edge_list(text), target)
