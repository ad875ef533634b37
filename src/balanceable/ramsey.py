"""Balanced-copy search in 2-colored complete graphs, at desk scale.

A 2-coloring of K_n is its red graph on n vertices: every non-edge is blue.
A copy of a graph G inside it is *balanced* when its red edge count lands in
{floor(m/2), ceil(m/2)}.  The threshold number for (n, G) is the largest
min(|red|, |blue|) over colorings of K_n containing no balanced copy of G;
when every coloring contains one, there is no threshold and None is
returned instead of an invented sentinel.

Both questions depend only on the isomorphism class of the red graph, so
``bal_number`` walks the classes of graphs on n vertices instead of the
2^(n(n-1)/2) colorings.  The classes come from canonical augmentation: each
class on n-1 vertices gains a new vertex joined to every subset of the old
ones, and the results are canonized and deduplicated.  The canonizer's code,
private to it, is the smallest edge mask over the relabelings that permute
vertices only within the cells of the colour-refined degree partition.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product
from typing import NamedTuple

from .graphs import Graph
from .oracle import half_edge_targets

__all__ = [
    "BalancedCopy",
    "find_balanced_copy",
    "bal_number",
    "BAL_ORDER_LIMIT",
]

BAL_ORDER_LIMIT = 7


class BalancedCopy(NamedTuple):
    """An embedding (indexed by the pattern's vertices) and its red count."""

    embedding: tuple[int, ...]
    red_edges: int


def find_balanced_copy(red: Graph, g: Graph) -> BalancedCopy | None:
    """First embedding of ``g`` into K_n, n = ``red.n``, with a half-red edge set.

    Edges of ``red`` are red and its non-edges blue.  Backtracking over
    injective vertex maps; pattern vertices are placed highest degree first,
    host vertices tried in ascending order, so the first hit is
    deterministic.  Prunes a partial map when its red count already
    overshoots, or cannot reach the target even if every remaining edge came
    up red.
    """
    if g.n > red.n:
        raise ValueError(f"pattern on {g.n} vertices cannot embed in K_{red.n}")
    lo, hi = half_edge_targets(g.m)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    # edges from each newly placed vertex back to already placed ones
    back: list[list[int]] = []
    for i, v in enumerate(order):
        back.append([u for u in order[:i] if g.adj[v] >> u & 1])
    remaining_after = [0] * (g.n + 1)
    for i in range(g.n - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1] + len(back[i])

    rows = red.adj
    image = [-1] * g.n

    def place(i: int, used: int, reds: int) -> BalancedCopy | None:
        if reds > hi or reds + remaining_after[i] < lo:
            return None
        if i == g.n:
            return BalancedCopy(tuple(image), reds)
        v = order[i]
        # host vertices holding the placed neighbours of v
        anchors = 0
        for u in back[i]:
            anchors |= 1 << image[u]
        for w in range(red.n):
            if used >> w & 1:
                continue
            image[v] = w
            found = place(i + 1, used | 1 << w, reds + (rows[w] & anchors).bit_count())
            if found is not None:
                return found
        return None

    return place(0, 0, 0)


@cache
def _slot_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """``bits[a][b]`` is the code bit of edge (a, b), pairs in lexicographic order."""
    bits = [[0] * n for _ in range(n)]
    for slot, (a, b) in enumerate(combinations(range(n), 2)):
        bits[a][b] = bits[b][a] = 1 << slot
    return tuple(map(tuple, bits))


def _canonical(rows: list[int]) -> int:
    """Canonical code of the graph with adjacency ``rows``.

    Cells start as degree classes and split by the multiset of neighbour
    cells until stable; cells are ordered by their sort keys, so the ordered
    partition is isomorphism-invariant.  The code is the smallest edge mask
    (in ``_slot_bits`` order) over the labelings that give each cell its own
    block of labels.
    """
    n = len(rows)
    neighbours = [[u for u in range(n) if row >> u & 1] for row in rows]
    cell = [len(nb) for nb in neighbours]
    count = len(set(cell))
    # a key packs a vertex's cell above its count of neighbours per cell;
    # counts stay below n, so each takes n.bit_length() bits
    width = n.bit_length()
    while count < n:
        keys = [
            cell[v] << width * n | sum(1 << width * cell[u] for u in neighbours[v]) for v in range(n)
        ]
        ranked = sorted(set(keys))
        if len(ranked) == count:
            break
        index = {k: i for i, k in enumerate(ranked)}
        cell = [index[k] for k in keys]
        count = len(ranked)
    groups = [[v for v in range(n) if cell[v] == c] for c in sorted(set(cell))]
    edges = [(u, v) for u in range(n) for v in neighbours[u] if u < v]
    bit = _slot_bits(n)
    best = 1 << n * (n - 1) // 2
    label = [0] * n
    for arrangement in product(*(permutations(group) for group in groups)):
        position = 0
        for block in arrangement:
            for v in block:
                label[v] = position
                position += 1
        mask = sum(bit[label[u]][label[v]] for u, v in edges)
        best = min(best, mask)
    return best


@cache
def _classes(n: int) -> tuple[Graph, ...]:
    """One red graph on n vertices per isomorphism class, each the class's
    canonical labeling, in ascending order of canonical code."""
    if n <= 1:
        return (Graph(n),)
    codes = set()
    for red in _classes(n - 1):
        rows = red.adj
        # swapping twins u < v is an automorphism, so joining v without u
        # repeats the class of joining u without v
        twins = [
            (u, v)
            for u in range(n - 1)
            for v in range(u + 1, n - 1)
            if rows[u] & ~(1 << v) == rows[v] & ~(1 << u)
        ]
        for joined in range(1 << (n - 1)):
            if any(joined >> v & 1 and not joined >> u & 1 for u, v in twins):
                continue
            extended = [row | (joined >> v & 1) << (n - 1) for v, row in enumerate(rows)]
            codes.add(_canonical(extended + [joined]))
    pairs = list(combinations(range(n), 2))
    return tuple(
        Graph(n, (pair for slot, pair in enumerate(pairs) if code >> slot & 1))
        for code in sorted(codes)
    )


def bal_number(n: int, g: Graph) -> int | None:
    """Largest min(red, blue) over colorings of K_n with no balanced copy.

    None means every coloring of K_n contains a balanced copy of ``g``.
    Relabeling the host keeps both answers, so one red graph per
    isomorphism class is searched, and only the classes with at most half
    the edges red: the complement of every other class is among them, and
    both balancedness and min(red, blue) are swap-invariant.
    """
    if not 1 <= n <= BAL_ORDER_LIMIT:
        raise ValueError(f"host order must lie in 1..{BAL_ORDER_LIMIT} (the order cap), got {n}")
    slots = n * (n - 1) // 2
    best: int | None = None
    for red in _classes(n):
        if 2 * red.m <= slots and find_balanced_copy(red, g) is None:
            if best is None or red.m > best:
                best = red.m
    return best
