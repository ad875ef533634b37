"""Sorted neighbour tuples of the large family graphs, in closed form.

``families`` builds a cycle, circulant, rectangular grid or triangular grid
of more than ``DENSE_LIMIT`` vertices from these tables, with the labels
its docstring gives, and imports this module only then, so a process that
builds no large graph never compiles it.  Each table is written as zips of
``range`` columns: one Python step per row of the grid or per run of
vertices with the same offsets, none per vertex or edge, and no sort.
"""

from __future__ import annotations

from itertools import chain


def circulant_neighbours(k: int, steps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of ``circulant(k, steps)``, in closed form.

    With D the sorted residues of the steps and their negatives mod k,
    vertex i's neighbours are i + d - k for the d >= k - i, then i + d for
    the rest.  The vertices with t wrapped offsets form one run of i, so
    each column of the table is a chain of |D| + 1 ranges, and zip writes
    the rows in C.
    """
    d = sorted({j % k for step in steps for j in (step, -step)})
    if not d:
        return ((),) * k
    cuts = [0, *(k - x for x in reversed(d)), k]
    runs = [
        (cuts[t], cuts[t + 1], [x - k for x in d[len(d) - t :]] + d[: len(d) - t])
        for t in range(len(d) + 1)
    ]
    columns = [chain(*[range(lo + ds[c], hi + ds[c]) for lo, hi, ds in runs]) for c in range(len(d))]
    return tuple(zip(*columns))


def _append_row(nbrs: list, first: int, last: int, head: tuple, inner: tuple, tail: tuple) -> None:
    """Append the neighbour tuples of a row of vertices ``first..last``, two
    or more: vertex v's are v + d for the sorted offsets d in ``head`` (the
    first vertex), ``tail`` (the last) or ``inner`` (the rest, zipped from
    one range per offset)."""
    nbrs.append(tuple(first + d for d in head))
    nbrs.extend(zip(*[range(first + 1 + d, last + d) for d in inner]))
    nbrs.append(tuple(last + d for d in tail))


def grid_neighbours(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of ``rect_grid(rows, cols)``, row by row."""
    nbrs: list = []
    for r in range(rows):
        up, down = (-cols,) * (r > 0), (cols,) * (r < rows - 1)
        head, inner, tail = up + (1,) + down, up + (-1, 1) + down, up + (-1,) + down
        _append_row(nbrs, r * cols, r * cols + cols - 1, head, inner, tail)
    return tuple(nbrs)


def tri_neighbours(h: int) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of ``tri_grid(h)``, row by row: vertex v of
    row j has v - j and v - j + 1 above it and v + j and v + j + 1 below."""
    nbrs: list = [(1, 2) if h > 1 else ()]  # the apex
    for j in range(2, h + 1):
        below = (j, j + 1) if j < h else ()
        head, inner, tail = (1 - j, 1) + below, (-j, 1 - j, -1, 1) + below, (-j, -1) + below
        first = j * (j - 1) // 2
        _append_row(nbrs, first, first + j - 1, head, inner, tail)
    return tuple(nbrs)
