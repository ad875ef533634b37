"""Dense bitset graphs and the edge-counting primitives everything else uses.

Vertices are integers ``0..n-1``.  Adjacency is stored as one Python int per
vertex with bit ``v`` set when the row's vertex is adjacent to ``v``;
arbitrary-precision ints keep the layout uniform past 64 vertices.  Graph and
VertexSet are immutable value types, so they can be shared freely between
threads and used as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "VertexSet",
    "e_cut",
    "e_induced",
    "bipartition",
    "disjoint_union",
    "parse_edge_list",
    "format_edge_list",
]


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in ascending order.

    Two walks.  Clearing the lowest set bit costs one step per set bit, but
    each step rewrites the whole int, so on a wide mask it takes time
    proportional to width times set bits.  Writing the mask out once, lowest
    bit first, as ``bin(mask)[:1:-1]`` and walking it with
    ``str.find("1", i)`` takes time linear in the width.  The first walk is
    kept for masks of at most 64 bits and for masks with at most 32 set bits
    (the rows of sparse graphs, breadth-first layers), where it is the
    faster of the two; the second takes wide dense masks such as witness
    sets of large graphs.
    """
    if mask.bit_length() <= 64 or mask.bit_count() <= 32:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class Graph:
    """Simple undirected graph over vertices ``0..n-1``."""

    __slots__ = ("n", "adj", "m", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self._degrees = tuple(r.bit_count() for r in rows)
        self.m = sum(self._degrees) // 2

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        rows = tuple(rows)
        g = object.__new__(cls)
        g.n = len(rows)
        for v, row in enumerate(rows):
            if row >> g.n:
                raise ValueError(f"row {v} references vertices beyond n={g.n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in _iter_bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        g.adj = rows
        g._degrees = tuple(r.bit_count() for r in rows)
        g.m = sum(g._degrees) // 2
        return g

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def neighbors(self, v: int) -> Iterator[int]:
        return _iter_bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of a graph of order ``n``, as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("owner size must be nonnegative")
        if not 0 <= self.mask < 1 << self.n:
            raise ValueError(f"mask {self.mask:#x} out of range for n={self.n}")

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in indices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            mask |= 1 << v
        return cls(n, mask)

    def indices(self) -> tuple[int, ...]:
        return tuple(_iter_bits(self.mask))

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, (1 << self.n) - 1 ^ self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _iter_bits(self.mask)


def _check_owner(g: Graph, s: VertexSet) -> None:
    if s.n != g.n:
        raise ValueError(f"vertex set indexes a graph of order {s.n}, not {g.n}")


def e_cut(g: Graph, x: VertexSet) -> int:
    """Number of edges with exactly one endpoint in ``x``."""
    _check_owner(g, x)
    outside = (1 << g.n) - 1 ^ x.mask
    adj = g.adj
    return sum((adj[v] & outside).bit_count() for v in _iter_bits(x.mask))


def e_induced(g: Graph, w: VertexSet) -> int:
    """Number of edges with both endpoints in ``w``."""
    _check_owner(g, w)
    inside = w.mask
    adj = g.adj
    return sum((adj[v] & inside).bit_count() for v in _iter_bits(inside)) // 2


def bipartition(g: Graph) -> VertexSet | None:
    """The side of a proper 2-colouring that holds each component's smallest
    vertex, or None when ``g`` has an odd cycle.

    Each component is walked in breadth-first layers of bitmasks from its
    smallest vertex; the even layers form the side.  An edge inside a layer
    closes an odd cycle.
    """
    adj = g.adj
    unseen = (1 << g.n) - 1
    side = 0
    while unseen:
        layer = unseen & -unseen
        even = True
        while layer:
            unseen ^= layer
            if even:
                side |= layer
            reach = 0
            for v in _iter_bits(layer):
                if adj[v] & layer:
                    return None
                reach |= adj[v]
            layer = reach & unseen
            even = not even
    return VertexSet(g.n, side)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """The graph on ``g.n + h.n`` vertices with ``h`` relabeled above ``g``."""
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph.from_rows(rows)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text format: a header line ``n m`` and then one line
    ``u v`` per edge with ``0 <= u < v < n``.

    Blank lines and ``#`` comments are ignored.  Errors carry the offending
    line number.
    """
    lines = text.splitlines()
    header = None
    edges: list[tuple[int, int]] = []
    expected = None
    n = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            header = lineno
            n, expected = a, b
            if n < 0 or expected < 0:
                raise ValueError(f"line {lineno}: header counts must be nonnegative")
            continue
        if not 0 <= a < b < n:
            raise ValueError(f"line {lineno}: edge ({a},{b}) must satisfy 0 <= u < v < n={n}")
        edges.append((a, b))
    if header is None:
        raise ValueError("line 1: missing 'n m' header")
    if expected != len(edges):
        raise ValueError(f"header promised {expected} edges, found {len(edges)}")
    g = Graph(n, edges)
    if g.m != len(edges):
        raise ValueError("duplicate edges in input")
    return g


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
