"""Generators for the graph families the analyses target.

Labeling conventions matter here because the closed-form witness
constructions quote concrete vertex indices:

* cycles and circulants: ``u_0 .. u_{k-1}`` in cyclic order;
* rectangular grids: row-major, ``(row r, col c) -> r * cols + c``;
* triangular grids: rows counted from the apex, row ``j`` holding ``j``
  vertices, with 1-based ``(row j, pos i) -> (j-1)j/2 + (i-1)``;
* wheels: rim ``0 .. rim-1`` in cyclic order, hub last;
* stars: hub 0, leaves after it.

A spec ``<family>:<params>`` names its builder by the family's key in
``_BUILDERS`` and lists that builder's positional arguments, so
``chorded:38,8`` is ``chorded_cycle(38, 8)`` and ``grid:4x8`` is
``rect_grid(4, 8)``.  ``build_family`` refuses a spec over ``ORDER_LIMIT``
vertices or ``EDGE_LIMIT`` edges from its arithmetic, before building.

Every builder lists its edges, and ``Graph`` stores them as bitset rows,
up to ``DENSE_LIMIT`` vertices.  Above it, cycles, circulants (and so
chorded cycles, Moebius ladders and antiprisms), rectangular grids and
triangular grids take their sorted neighbour tuples in closed form from
``_large_families``, with no edge list and no sort, and load that module
only then.  Small graphs keep the edge path, where building rows from the
tuples measured about twice as slow.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import DENSE_LIMIT, Graph

__all__ = [
    "FamilyParams",
    "build_family",
    "parse_family_spec",
    "graph_from_spec",
    "cycle",
    "path",
    "complete",
    "wheel",
    "star",
    "circulant",
    "chorded_cycle",
    "rect_grid",
    "tri_grid",
    "tri_vertex",
    "moebius",
    "antiprism",
]


def cycle(k: int) -> Graph:
    """Cycle on ``k >= 3`` vertices."""
    if k < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {k}")
    return circulant(k, (1,))


def path(edge_count: int) -> Graph:
    """Path with ``edge_count >= 0`` edges (so ``edge_count + 1`` vertices)."""
    if edge_count < 0:
        raise ValueError("path length must be nonnegative")
    return Graph(edge_count + 1, [(i, i + 1) for i in range(edge_count)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def wheel(rim: int) -> Graph:
    """Cycle on ``rim >= 3`` vertices plus a hub (vertex ``rim``) joined to all."""
    if rim < 3:
        raise ValueError(f"wheel rim needs at least 3 vertices, got {rim}")
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def star(leaves: int) -> Graph:
    """Hub (vertex 0) joined to ``leaves >= 0`` leaves."""
    if leaves < 0:
        raise ValueError("leaf count must be nonnegative")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def circulant(k: int, steps: tuple[int, ...]) -> Graph:
    """Vertices ``0..k-1`` with ``i ~ i+j (mod k)`` for every step ``j``.

    Steps must be distinct and lie in ``1..k//2``; the step ``k/2`` (when k
    is even) contributes ``k/2`` edges, every other step contributes ``k``.
    """
    if k < 1:
        raise ValueError("order must be positive")
    seen = set()
    for j in steps:
        if not 1 <= j <= k // 2:
            raise ValueError(f"step {j} outside 1..{k // 2} for order {k}")
        if j in seen:
            raise ValueError(f"duplicate step {j}")
        seen.add(j)
    if k > DENSE_LIMIT:
        from ._large_families import circulant_neighbours

        return Graph._from_neighbours(circulant_neighbours(k, steps))
    return Graph(k, [(i, (i + j) % k) for j in steps for i in range(k)])


def chorded_cycle(k: int, ell: int) -> Graph:
    """Cycle on ``k > 3`` vertices plus all chords ``u_i u_{i+ell}``.

    A chord distance of ``ell`` and of ``k - ell`` describe the same graph,
    so the distance is mirrored into ``2..k/2`` before building.  With
    ``ell = k/2`` the graph is 3-regular with ``3k/2`` edges; otherwise it is
    4-regular with ``2k`` edges.
    """
    if k <= 3:
        raise ValueError(f"chorded cycle needs k > 3, got {k}")
    if not 2 <= ell <= k - 2:
        raise ValueError(f"chord distance must lie in 2..{k - 2}, got {ell}")
    return circulant(k, (1, min(ell, k - ell)))


def rect_grid(rows: int, cols: int) -> Graph:
    """Rectangular grid, ``rows x cols`` vertices, row-major labels."""
    if rows < 2 or cols < 2:
        raise ValueError("grid sides must be at least 2")
    if rows * cols > DENSE_LIMIT:
        from ._large_families import grid_neighbours

        return Graph._from_neighbours(grid_neighbours(rows, cols))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def tri_vertex(row: int, pos: int) -> int:
    """Label of the triangular-grid vertex at 1-based ``(row, pos)``."""
    return (row - 1) * row // 2 + (pos - 1)


def tri_grid(h: int) -> Graph:
    """Triangular grid with ``h`` vertices per side.

    Row ``j`` (from the apex, 1-based) holds ``j`` vertices; each vertex is
    joined to its row neighbors and to the two vertices below it.  Corners
    have degree 2, other boundary vertices 4, interior vertices 6, so the
    graph is always eulerian; the edge count is ``3 h (h-1) / 2``.
    """
    if h < 1:
        raise ValueError("side length must be positive")
    if h * (h + 1) // 2 > DENSE_LIMIT:
        from ._large_families import tri_neighbours

        return Graph._from_neighbours(tri_neighbours(h))
    edges = []
    for row in range(1, h + 1):
        labels = range(tri_vertex(row, 1), tri_vertex(row + 1, 1))
        edges += [(v, v + 1) for v in labels[:-1]]
        if row < h:  # v = (row, pos) lies above (row + 1, pos) = v + row and v + row + 1
            edges += [(v, v + row) for v in labels]
            edges += [(v, v + row + 1) for v in labels]
    return Graph(h * (h + 1) // 2, edges)


def moebius(n: int) -> Graph:
    """Cycle on even ``n >= 4`` vertices plus all antipodal chords."""
    if n < 4 or n % 2:
        raise ValueError(f"antipodal-chord cycle needs even order >= 4, got {n}")
    return chorded_cycle(n, n // 2)


def antiprism(k: int) -> Graph:
    """The ``k``-antiprism, ``k >= 3``: order ``2k`` circulant with steps 1, 2."""
    if k < 3:
        raise ValueError(f"antiprism needs at least 3 rim pairs, got {k}")
    return circulant(2 * k, (1, 2))


class FamilyParams(NamedTuple):
    """Parsed family request: the spec's family name and its builder's arguments."""

    kind: str
    args: tuple


_BUILDERS = {
    "cycle": cycle,
    "path": path,
    "complete": complete,
    "wheel": wheel,
    "star": star,
    "tri": tri_grid,
    "moebius": moebius,
    "antiprism": antiprism,
    "grid": rect_grid,
    "chorded": chorded_cycle,
    "circulant": circulant,
}


# The largest graph a spec may ask for.  A scan of the largest order builds
# bitset rows of about 64 MB.
ORDER_LIMIT = 1 << 15
EDGE_LIMIT = 1 << 17

# each family's order and a bound on its edge count, from its arguments
_SIZES = {
    "cycle": lambda k: (k, k),
    "path": lambda edge_count: (edge_count + 1, edge_count),
    "complete": lambda n: (n, n * (n - 1) // 2),
    "wheel": lambda rim: (rim + 1, 2 * rim),
    "star": lambda leaves: (leaves + 1, leaves),
    "tri": lambda h: (h * (h + 1) // 2, 3 * h * (h - 1) // 2),
    "moebius": lambda n: (n, 3 * n // 2),
    "antiprism": lambda k: (2 * k, 4 * k),
    "grid": lambda rows, cols: (rows * cols, 2 * rows * cols - rows - cols),
    "chorded": lambda k, ell: (k, 2 * k),
    "circulant": lambda k, steps: (k, k * len(steps)),
}


def _refuse_oversized(params: FamilyParams) -> None:
    """Refuse a family graph over ``ORDER_LIMIT`` vertices or ``EDGE_LIMIT``
    edges by its arithmetic alone, before anything is built."""
    if params.kind in _SIZES:
        n, m = _SIZES[params.kind](*params.args)
        if n > ORDER_LIMIT or m > EDGE_LIMIT:
            raise ValueError(
                f"{params.kind} graph of {n} vertices and up to {m} edges is over the "
                f"limit of {ORDER_LIMIT} vertices and {EDGE_LIMIT} edges"
            )


def build_family(params: FamilyParams) -> Graph:
    builder = _BUILDERS.get(params.kind)
    if builder is None:
        raise ValueError(f"unknown family kind {params.kind!r}")
    _refuse_oversized(params)
    return builder(*params.args)


def parse_family_spec(text: str) -> FamilyParams:
    """Parse specs like ``cycle:12``, ``circulant:38,1+8``, ``chorded:38,8``,
    ``grid:4x8``, ``tri:9``, ``moebius:12``, ``antiprism:6``."""
    kind, sep, rest = text.strip().partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if not sep or not rest:
        raise ValueError(f"family spec {text!r}: expected '<family>:<params>'")

    def as_int(token: str, label: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"family spec {text!r}: {label} must be an integer") from None

    def halves(body: str, mark: str, form: str) -> list[str]:
        parts = body.split(mark)
        if len(parts) != 2:
            raise ValueError(f"family spec {text!r}: expected '{form}'")
        return parts

    if kind == "grid":
        rows, cols = halves(rest.lower(), "x", "grid:<rows>x<cols>")
        args = (as_int(rows, "rows"), as_int(cols, "cols"))
    elif kind == "chorded":
        k, ell = halves(rest, ",", "chorded:<k>,<distance>")
        args = (as_int(k, "order"), as_int(ell, "chord distance"))
    elif kind == "circulant":
        k, steps = halves(rest, ",", "circulant:<k>,<step>+<step>...")
        steps = tuple(as_int(tok, "step") for tok in steps.split("+") if tok)
        if not steps:
            raise ValueError(f"family spec {text!r}: at least one step required")
        args = (as_int(k, "order"), steps)
    elif kind in _BUILDERS:
        args = (as_int(rest, "parameter"),)
    else:
        raise ValueError(f"family spec {text!r}: unknown family {kind!r}")
    return FamilyParams(kind, args)


def graph_from_spec(text: str) -> Graph:
    return build_family(parse_family_spec(text))
