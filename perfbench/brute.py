"""Brute-force references in numpy, independent of the library's scans.

Each table is built by doubling: after vertex v is added, the array holds
the count for every subset of the vertices seen so far, indexed by the
subset's bitmask.  Because the array grows in ascending mask order, the
first hit in it is the smallest-mask answer, and a search can stop at the
first vertex whose array holds a hit.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from check import band, rows_of


def _grow(arr: np.ndarray, neighbours: int, base: int, sign: int) -> np.ndarray:
    """Append the half where the new vertex is present: each entry moves by
    ``base + sign * |neighbours & index|``."""
    index = np.arange(len(arr), dtype=np.uint32)
    hits = np.bitwise_count(index & np.uint32(neighbours)).astype(np.int32)
    return np.concatenate([arr, arr + base + sign * hits])


def _first_hit(arr: np.ndarray, lo: int, hi: int) -> int | None:
    found = np.flatnonzero((arr >= lo) & (arr <= hi))
    return int(found[0]) if len(found) else None


def smallest_half_cut(n: int, edges) -> int | None:
    """Smallest mask X containing vertex 0 whose cut is in the half band."""
    rows, lo, hi = rows_of(n, edges), *band(len(edges))
    if n == 0:
        return 0 if lo <= 0 <= hi else None
    arr = np.array([rows[0].bit_count()], dtype=np.int32)
    for v in range(1, n + 1):
        s = _first_hit(arr, lo, hi)
        if s is not None:
            return 1 | s << 1
        if v == n:
            return None
        # index bit b stands for vertex b + 1; vertex 0 is always in X
        toward_zero = rows[v] & 1
        arr = _grow(arr, rows[v] >> 1, rows[v].bit_count() - 2 * toward_zero, -2)
    return None


def smallest_half_induced(n: int, edges) -> int | None:
    """Smallest mask W whose induced edge count is in the half band."""
    rows, lo, hi = rows_of(n, edges), *band(len(edges))
    arr = np.array([0], dtype=np.int32)
    for v in range(n + 1):
        w = _first_hit(arr, lo, hi)
        if w is not None:
            return w
        if v == n:
            return None
        arr = _grow(arr, rows[v], 0, 1)
    return None


def cut_value_mask(n: int, edges) -> int:
    """Bitmask of every cut size of the graph, component by component."""
    rows = rows_of(n, edges)
    seen, total = 0, 1
    for root in range(n):
        if seen >> root & 1:
            continue
        comp, frontier = 0, 1 << root
        while frontier:
            comp |= frontier
            grown = 0
            for v in range(n):
                if frontier >> v & 1:
                    grown |= rows[v]
            frontier = grown & ~comp
        seen |= comp
        verts = [v for v in range(n) if comp >> v & 1]
        index = {v: i for i, v in enumerate(verts)}
        local = [sum(1 << index[u] for u in verts if rows[v] >> u & 1) for v in verts]
        arr = np.array([0], dtype=np.int32)
        # the first vertex stays outside X; index bit b stands for vertex b + 1
        for i in range(1, len(verts)):
            arr = _grow(arr, local[i] >> 1, local[i].bit_count(), -2)
        merged = 0
        for value in np.unique(arr).tolist():
            merged |= total << value
        total = merged
    return total


def bal_number(n: int, pattern_n: int, pattern_edges) -> int | None:
    """Largest min(red, blue) over colourings of K_n with no balanced copy.

    Every colouring and every injective placement of the pattern is tried.
    """
    slot = {}
    for u in range(n):
        for v in range(u + 1, n):
            slot[(u, v)] = slot[(v, u)] = len(slot) // 2
    slots = n * (n - 1) // 2
    placements = {
        sum(1 << slot[(image[a], image[b])] for a, b in pattern_edges)
        for image in permutations(range(n), pattern_n)
    }
    lo, hi = band(len(pattern_edges))
    colourings = np.arange(1 << slots, dtype=np.uint32)
    balanced = np.zeros(len(colourings), dtype=bool)
    masks = np.array(sorted(placements), dtype=np.uint32)
    for start in range(0, len(masks), 64):
        chunk = masks[start : start + 64]
        red = np.bitwise_count(colourings[:, None] & chunk[None, :])
        balanced |= ((red >= lo) & (red <= hi)).any(axis=1)
    free = colourings[~balanced]
    if len(free) == 0:
        return None
    red = np.bitwise_count(free).astype(np.int32)
    return int(np.minimum(red, slots - red).max())
