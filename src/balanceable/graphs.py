"""Graphs and vertex sets, and the edge-counting primitives everything else uses.

Vertices are integers ``0..n-1``.  This module alone decides how a graph is
stored, and the order alone decides it, however the graph was built: from
edges, from rows, or from the neighbour tuples the family builders write in
closed form (``Graph._from_neighbours``).  A graph of at most
``DENSE_LIMIT`` vertices stores one Python int per vertex with bit ``v`` set
when the row's vertex is adjacent to ``v``, the form the subset scans read.
A larger graph stores one sorted tuple of neighbours per vertex, so
building, counting and walking it take O(n + m) time and memory;
``Graph.adj`` builds its rows on first use.  Built from edges, the tuples
are collected and sorted per vertex.  The counts and walks over wide vertex
sets (``e_cut``, ``e_induced``, ``_iter_bits``) run as ``map``, ``sum`` and
``compress`` chains, with no Python step per vertex.  Graph and VertexSet
are immutable value types, so they can be shared freely between threads and
used as cache keys.
"""

from __future__ import annotations

from functools import partial
from itertools import compress, count
from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "VertexSet",
    "e_cut",
    "e_induced",
    "bipartition",
    "parse_edge_list",
    "format_edge_list",
]

# Largest order stored as bitset rows: near it, building and checking a
# closed-form witness costs the same in both forms.
DENSE_LIMIT = 8192


# bin()'s digits as the bytes 0 and 1, the selectors compress() reads
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in ascending order.

    Two walks.  Clearing the lowest set bit costs one step per set bit, but
    each step rewrites the whole int, so on a wide mask it takes time
    proportional to width times set bits.  Writing the mask out once, lowest
    bit first, as ``bin(mask)[:1:-1]`` and letting ``compress`` pick the
    positions of its ones takes time linear in the width, with no Python
    step per bit.  The first walk is kept for masks of at most 64 bits and
    for masks with at most 32 set bits (the rows of sparse graphs,
    breadth-first layers), where it is the faster of the two; the second
    takes wide dense masks such as witness sets of large graphs.
    """
    if mask.bit_length() <= 64 or mask.bit_count() <= 32:
        return _lowest_bits(mask)
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGITS))


def _lowest_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbour_tuples(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of the graph on ``n`` vertices with these
    edges, a repeated edge counted once; edges are checked as Graph checks them."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(map(tuple, map(sorted, map(set, nbrs))))


def _rows_of(nbrs: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Bitset rows of the graph with these neighbour tuples, ORed together
    by ``sum`` over each tuple's powers of two, with no Python step per
    vertex or edge."""
    return tuple(map(sum, map(partial(map, (1).__lshift__), nbrs)))


class Graph:
    """Simple undirected graph over vertices ``0..n-1``."""

    __slots__ = ("n", "m", "_rows", "_nbrs", "_degrees")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > DENSE_LIMIT:
            self._rows, self._nbrs = None, _neighbour_tuples(n, edges)
            self._degrees = tuple(map(len, self._nbrs))
        else:
            rows = [0] * n
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {u}")
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            self._rows, self._nbrs = tuple(rows), None
            self._degrees = tuple(r.bit_count() for r in rows)
        self.n = n
        self.m = sum(self._degrees) // 2

    @classmethod
    def _from_neighbours(cls, nbrs: tuple[tuple[int, ...], ...]) -> "Graph":
        """The graph whose sorted neighbour tuples are ``nbrs``, not checked:
        the family builders write them in closed form.  Stored by its order
        as ``Graph(n, edges)`` stores it: above ``DENSE_LIMIT`` the tuples
        are kept as given, else they become bitset rows."""
        g = cls.__new__(cls)
        if len(nbrs) > DENSE_LIMIT:
            g._rows, g._nbrs = None, nbrs
        else:
            g._rows, g._nbrs = _rows_of(nbrs), None
        g._degrees = tuple(map(len, nbrs))
        g.n = len(nbrs)
        g.m = sum(g._degrees) // 2
        return g

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        """The graph with these bitset rows; like any graph, it is stored by
        its order, as rows or as neighbour tuples."""
        rows = tuple(rows)
        n = len(rows)
        edges = []
        for v, row in enumerate(rows):
            if row >> n:
                raise ValueError(f"row {v} references vertices beyond n={n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in _iter_bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
                if u > v:  # each edge once
                    edges.append((v, u))
        return cls(n, edges)

    @property
    def adj(self) -> tuple[int, ...]:
        """One int per vertex with bit ``v`` set for each neighbour ``v``;
        a graph stored as neighbour tuples builds them on first use."""
        if self._rows is None:
            self._rows = _rows_of(self._nbrs)
        return self._rows

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def neighbors(self, v: int) -> Iterator[int]:
        if self._nbrs is not None:
            return iter(self._nbrs[v])
        return _iter_bits(self._rows[v])

    def has_edge(self, u: int, v: int) -> bool:
        if self._nbrs is not None:
            return v in self._nbrs[u]
        return bool(self._rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            if self._nbrs is not None:
                above = (v for v in self._nbrs[u] if v > u)
            else:
                above = _iter_bits(self._rows[u] >> (u + 1) << (u + 1))
            for v in above:
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return False
        return (self._nbrs or self._rows) == (other._nbrs or other._rows)

    def __hash__(self) -> int:
        return hash(self._nbrs or self._rows)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _frozen(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of an immutable value type."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class VertexSet:
    """A subset of the vertices of a graph of order ``n``, as a bitmask."""

    __slots__ = ("n", "mask")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, mask: int):
        if n < 0:
            raise ValueError("owner size must be nonnegative")
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask {mask:#x} out of range for n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not VertexSet:
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n!r}, mask={self.mask!r})"

    def __reduce__(self):
        return VertexSet, (self.n, self.mask)

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "VertexSet":
        """The set of ``indices``, written as the digits of one base-2
        string, so a wide set costs time linear in n."""
        digits = bytearray(b"0") * (n + 1)  # the leading 0 keeps n = 0 parseable
        for v in indices:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            digits[n - v] = 49  # ord("1")
        return cls(n, int(digits, 2))

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
    """Number of edges with exactly one endpoint in ``x``: the degree sum
    of ``x`` counts each edge inside it twice."""
    _check_owner(g, x)
    return sum(map(g._degrees.__getitem__, x)) - 2 * e_induced(g, x)


def e_induced(g: Graph, w: VertexSet) -> int:
    """Number of edges with both endpoints in ``w``."""
    _check_owner(g, w)
    if g._nbrs is not None:
        members = set(w)
        inside = map(members.intersection, map(g._nbrs.__getitem__, members))
        return sum(map(len, inside)) // 2
    inside = w.mask
    adj = g._rows
    return sum((adj[v] & inside).bit_count() for v in _iter_bits(inside)) // 2


def bipartition(g: Graph) -> VertexSet | None:
    """The side of a proper 2-colouring that holds each component's smallest
    vertex, or None when ``g`` has an odd cycle.

    Each component is walked breadth first from its smallest vertex; the
    even layers form the side.  An edge inside a layer closes an odd cycle.
    Bitset rows are walked a whole layer at a time, neighbour tuples one
    vertex at a time.
    """
    if g._nbrs is not None:
        colour = [-1] * g.n
        for root in range(g.n):
            if colour[root] >= 0:
                continue
            colour[root] = 0
            queue = [root]
            for v in queue:  # the walk appends to the list it reads
                for u in g._nbrs[v]:
                    if colour[u] < 0:
                        colour[u] = colour[v] ^ 1
                        queue.append(u)
                    elif colour[u] == colour[v]:
                        return None
        return VertexSet.from_indices(g.n, [v for v in range(g.n) if colour[v] == 0])
    adj = g._rows
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
