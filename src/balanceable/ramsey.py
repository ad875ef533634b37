"""Balanced-copy search in 2-colored complete graphs, at desk scale.

A copy of a graph G inside an edge-colored K_n is *balanced* when its red
edge count lands in {floor(m/2), ceil(m/2)}.  The threshold number for
(n, G) is the largest min(|red|, |blue|) over colorings of K_n containing
no balanced copy of G; when every coloring contains one, there is no
threshold and None is returned instead of an invented sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .oracle import BudgetExceeded, half_edge_targets

__all__ = [
    "edge_slot",
    "Coloring",
    "BalancedCopy",
    "find_balanced_copy",
    "bal_number",
    "BAL_ORDER_LIMIT",
]

BAL_ORDER_LIMIT = 7


def edge_slot(n: int, u: int, v: int) -> int:
    """Bitmask slot of edge (u, v) of K_n, edges ordered (0,1), (0,2), ..."""
    if u > v:
        u, v = v, u
    if not 0 <= u < v < n:
        raise ValueError(f"({u},{v}) is not an edge slot of K_{n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@dataclass(frozen=True)
class Coloring:
    """Red/blue edge coloring of K_n as a red bitmask over the edge slots."""

    n: int
    red: int

    def __post_init__(self):
        slots = self.n * (self.n - 1) // 2
        if not 0 <= self.red < 1 << slots:
            raise ValueError(f"red mask out of range for K_{self.n}")

    @property
    def slots(self) -> int:
        return self.n * (self.n - 1) // 2

    def red_count(self) -> int:
        return self.red.bit_count()

    def blue_count(self) -> int:
        return self.slots - self.red_count()

    def is_red(self, u: int, v: int) -> bool:
        return bool(self.red >> edge_slot(self.n, u, v) & 1)


@dataclass(frozen=True)
class BalancedCopy:
    """An embedding (indexed by the pattern's vertices) and its red count."""

    embedding: tuple[int, ...]
    red_edges: int


def find_balanced_copy(c: Coloring, g: Graph) -> BalancedCopy | None:
    """First embedding of ``g`` into the colored K_n with a half-red edge set.

    Backtracking over injective vertex maps; pattern vertices are placed
    highest degree first, host vertices tried in ascending order, so the
    first hit is deterministic.  Prunes a partial map when its red count
    already overshoots, or cannot reach the target even if every remaining
    edge came up red.
    """
    if g.n > c.n:
        raise ValueError(f"pattern on {g.n} vertices cannot embed in K_{c.n}")
    lo, hi = half_edge_targets(g.m)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    # edges from each newly placed vertex back to already placed ones
    back: list[list[int]] = []
    for i, v in enumerate(order):
        back.append([u for u in order[:i] if g.adj[v] >> u & 1])
    remaining_after = [0] * (g.n + 1)
    for i in range(g.n - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1] + len(back[i])

    host = list(range(c.n))
    image = [-1] * g.n

    def place(i: int, used: int, red: int) -> BalancedCopy | None:
        if red > hi or red + remaining_after[i] < lo:
            return None
        if i == g.n:
            return BalancedCopy(tuple(image), red)
        v = order[i]
        for w in host:
            if used >> w & 1:
                continue
            gained = 0
            for u in back[i]:
                if c.is_red(image[u], w):
                    gained += 1
            image[v] = w
            found = place(i + 1, used | 1 << w, red + gained)
            if found is not None:
                return found
            image[v] = -1
        return None

    return place(0, 0, 0)


def bal_number(n: int, g: Graph) -> int | None:
    """Largest min(red, blue) over colorings of K_n with no balanced copy.

    None means every coloring of K_n contains a balanced copy of ``g``.
    Enumeration covers half the colorings; the other half are complements,
    and both balancedness and min(red, blue) are swap-invariant.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n > BAL_ORDER_LIMIT:
        raise BudgetExceeded("coloring enumeration", 1 << (BAL_ORDER_LIMIT * (BAL_ORDER_LIMIT - 1) // 2))
    slots = n * (n - 1) // 2
    best: int | None = None
    for red in range(1 << max(slots - 1, 0)):
        c = Coloring(n, red)
        if find_balanced_copy(c, g) is None:
            value = min(c.red_count(), c.blue_count())
            if best is None or value > best:
                best = value
    return best
