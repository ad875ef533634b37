"""Closed-form balance witnesses for chorded cycles and grid graphs.

Each public function dispatches on the arithmetic shape of its parameters
(order mod 4, chord parity, grid parity, side length mod 8) to a hand-built
vertex pattern, then re-verifies the pattern by counting edges before
returning it.  A pattern that fails verification raises ConstructionBug;
that is a library defect, never a property of the input.

Positive constructions differ only in how they name their sets, and share
one check, which counts each edge count once:

* an independent set I with degree sum m/2 (then X = I, W = V minus I):
  e_cut(I) is counted, and I is independent exactly when it equals I's
  degree sum, so W induces the other m - e_cut(I) edges;
* an explicit cut side X and induced set W built separately: e_cut(X) and
  e(G[W]) are counted.

Negative results carry the obstruction that blocks them: a parity argument,
or (for the one exceptional chorded cycle on 6 vertices with chord distance
2) the exhaustively checked absence of a half-sized induced subgraph.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .families import (
    FamilyParams,
    _refuse_oversized,
    build_family,
    chorded_cycle,
    rect_grid,
    tri_grid,
    tri_vertex,
)
from .graphs import Graph, VertexSet, e_cut, e_induced
from .oracle import (
    BalanceWitness,
    Obstruction,
    ObstructionKind,
    Verdict,
    find_half_induced,
    half_edge_targets,
    parity_obstruction,
)

__all__ = [
    "ConstructionBug",
    "ConstructionResult",
    "circulant_witness",
    "rect_grid_witness",
    "tri_grid_witness",
    "witness_for_spec",
]


class ConstructionBug(AssertionError):
    """A closed-form pattern failed its own verification."""


class ConstructionResult(NamedTuple):
    graph: Graph
    case_id: str
    verdict: Verdict
    independent_set: VertexSet | None
    notes: str

    @property
    def witness(self) -> BalanceWitness | None:
        return self.verdict.witness


def _closed_neighborhood(k: int, ell: int, vertices: Iterable[int]) -> set[int]:
    """``vertices`` and their neighbours in C_k(1, ell), by arithmetic mod k."""
    return {(v + d) % k for v in vertices for d in (0, 1, -1, ell, -ell)}


def _result(
    g: Graph,
    case_id: str,
    cut_side: VertexSet,
    induced_set: VertexSet,
    cut: int,
    inside: int,
    notes: str,
    independent_set: VertexSet | None = None,
) -> ConstructionResult:
    """The positive result for counts already taken, checked against the
    half band; an independent set's cut must also take all its degrees."""
    lo, hi = half_edge_targets(g.m)
    if not lo <= cut <= hi:
        raise ConstructionBug(
            f"{case_id}: cut {sorted(cut_side.indices())} crosses {cut}, wanted {lo}..{hi}"
        )
    if not lo <= inside <= hi:
        raise ConstructionBug(
            f"{case_id}: set {sorted(induced_set.indices())} induces {inside}, wanted {lo}..{hi}"
        )
    if independent_set is not None and cut != sum(map(g.degrees().__getitem__, independent_set)):
        raise ConstructionBug(
            f"{case_id}: {sorted(independent_set.indices())} is not independent"
        )
    witness = BalanceWitness(cut_side, induced_set, cut, inside)
    return ConstructionResult(g, case_id, Verdict.balanceable(witness), independent_set, notes)


def _checked(
    g: Graph, case_id: str, x: Iterable[int], w: Iterable[int], notes: str
) -> ConstructionResult:
    cut_side = VertexSet.from_indices(g.n, x)
    induced_set = VertexSet.from_indices(g.n, w)
    cut = e_cut(g, cut_side)
    return _result(g, case_id, cut_side, induced_set, cut, e_induced(g, induced_set), notes)


def _via_independent_set(
    g: Graph, case_id: str, indices: Iterable[int], notes: str
) -> ConstructionResult:
    """X = I and W = V minus I.  The cut e_cut(I) is I's degree sum less
    twice e(G[I]), so it equals the degree sum exactly when I is
    independent, and then W keeps the other m - e_cut(I) edges."""
    ind = VertexSet.from_indices(g.n, indices)
    cut = e_cut(g, ind)
    return _result(g, case_id, ind, ind.complement(), cut, g.m - cut, notes, ind)


def _obstructed(
    g: Graph, case_id: str, obstruction: Obstruction | None, notes: str
) -> ConstructionResult:
    """A negative result; a missing ``obstruction`` is a defect of the case analysis."""
    if obstruction is None:
        raise ConstructionBug(f"{case_id}: expected an obstruction on {g.n} vertices")
    return ConstructionResult(g, case_id, Verdict.not_balanceable(obstruction), None, notes)


def _spread_runs(run: int, count: int, forbidden: set[int], limit: int) -> list[int]:
    """Greedy positions: runs of ``run`` picks 2 apart, then a gap of 3.

    A forbidden position shifts the scan forward by one and starts a fresh
    run.  Positions must stay below ``limit``.
    """
    picks: list[int] = []
    pos = 0
    in_run = 0
    while len(picks) < count:
        if pos >= limit:
            raise ConstructionBug(
                f"spread scan past {limit} with only {len(picks)}/{count} picks"
            )
        if pos in forbidden:
            pos += 1
            in_run = 0
            continue
        picks.append(pos)
        in_run += 1
        if in_run == run:
            pos += 3
            in_run = 0
        else:
            pos += 2
    return picks


def _evens_outside(k: int, blocked: set[int], count: int, case_id: str) -> list[int]:
    picked = [v for v in range(0, k, 2) if v not in blocked][:count]
    if len(picked) < count:
        raise ConstructionBug(f"{case_id}: only {len(picked)}/{count} free even vertices")
    return picked


def circulant_witness(k: int, ell: int) -> ConstructionResult:
    """Balance witness (or obstruction) for the cycle on k vertices with
    all chords at distance ell."""
    return _circulant_cases(chorded_cycle(k, ell))


def _circulant_cases(g: Graph) -> ConstructionResult:
    """circulant_witness on the chorded cycle ``g`` already built.

    Its chord distance ell, mirrored into ``2..k/2``, is vertex 0's smallest
    neighbour above 1.
    """
    k = g.n
    ell = next(v for v in g.neighbors(0) if v > 1)

    if k % 2:
        notes = f"m = 2k with k odd, so the half target {g.m // 2} is unreachable"
        return _obstructed(g, "odd-order", parity_obstruction(g), notes)

    if (k, ell) == (6, 2):
        obs = None
        if find_half_induced(g) is None:
            obs = Obstruction(
                ObstructionKind.NO_HALF_INDUCED, "no vertex set induces exactly 6 of the 12 edges"
            )
        notes = "induced counts by size are 0, 0-1, 2-3, 4-5, 8, 12; never 6"
        return _obstructed(g, "exception-6-2", obs, notes)

    a, rem = divmod(k, 4)

    if ell == k // 2:
        # 3-regular: cycle plus a perfect matching of antipodal chords
        if rem == 0:
            ind = list(range(0, 2 * a - 1, 2))
            return _via_independent_set(
                g, "antipodal-0mod4", ind, f"{a} alternating vertices, degree sum {3 * a}"
            )
        x = list(range(0, 2 * a - 3, 2)) + [2 * a - 2, 2 * a - 1]
        w = list(range(0, 2 * a + a // 2 + 2))
        return _checked(
            g,
            "antipodal-2mod4",
            x,
            w,
            f"{a - 1} spread evens plus the pair ({2 * a - 2},{2 * a - 1}); "
            f"prefix of {len(w)} vertices",
        )

    if rem == 0:
        if ell % 2:
            # both steps are odd, so the evens form vertex 0's bipartition class
            return _via_independent_set(
                g,
                "0mod4-odd-chord",
                range(0, 2 * a, 2),
                f"{a} vertices of one bipartition class",
            )
        b = ell // 2
        ind = _spread_runs(b, a, set(), k - ell)
        return _via_independent_set(
            g,
            "0mod4-even-chord",
            ind,
            f"runs of {b} picks 2 apart, top pick {max(ind)} below {k - ell}",
        )

    # k = 4a + 2 from here on
    if ell % 2:
        blocked = _closed_neighborhood(k, ell, (0, 1))
        x = [0, 1] + _evens_outside(k, blocked, a - 1, "2mod4-odd-chord")
        if k == 10:
            w = list(range(7))
            notes = "adjacent pair plus free evens; compact prefix induced set"
        else:
            removed = [0, 1, 5, 6] if ell == 3 else [0, 1, 3, 4]
            blocked_w = _closed_neighborhood(k, ell, removed)
            removed += _evens_outside(k, blocked_w, a - 3, "2mod4-odd-chord")
            out = set(removed)
            w = [v for v in range(k) if v not in out]
            notes = (
                f"adjacent pair plus free evens; removed two adjacent pairs "
                f"and {a - 3} isolated evens"
            )
        return _checked(g, "2mod4-odd-chord", x, w, notes)

    if ell == 2:
        x = list(range(0, 3 * (a - 2) + 1, 3)) + [4 * a - 2, 4 * a - 1]
        if k == 10:
            w = [0, 1, 2, 3, 4, 6, 8]
        else:
            out = set(range(0, max(3 * (a - 4) + 1, 0), 3))
            out |= {4 * a - 6, 4 * a - 5, 4 * a - 2, 4 * a - 1}
            w = [v for v in range(k) if v not in out]
        return _checked(
            g,
            "2mod4-chord-two",
            x,
            w,
            f"{a - 1} picks 3 apart plus the pair ({4 * a - 2},{4 * a - 1})",
        )

    b = ell // 2
    pair_x = [4 * a - 1, 4 * a]
    x = _spread_runs(b, a - 1, _closed_neighborhood(k, ell, pair_x), k) + pair_x
    if k == 10:
        w = [0, 1, 2, 4, 5, 6, 8]
        notes = "spread picks plus one adjacent pair; compact induced set"
    else:
        pair_v2 = [4 * a - 7, 4 * a - 6] if ell == 4 else [4 * a - 4, 4 * a - 3]
        removed = pair_v2 + pair_x
        v1 = _spread_runs(b, a - 3, _closed_neighborhood(k, ell, removed), k)
        out = set(removed) | set(v1)
        w = [v for v in range(k) if v not in out]
        notes = (
            f"spread picks plus pair ({pair_x[0]},{pair_x[1]}); removed pairs "
            f"({pair_v2[0]},{pair_v2[1]}), ({pair_x[0]},{pair_x[1]}) and {len(v1)} spread picks"
        )
    return _checked(g, "2mod4-even-chord", x, w, notes)


def rect_grid_witness(k: int, ell: int) -> ConstructionResult:
    """Independent-set witness for the k-by-ell rectangular grid.

    Only same-parity sides have an even edge count; mixed parity is
    rejected rather than guessed at.
    """
    if k < 2 or ell < 2:
        raise ValueError("grid sides must be at least 2")
    if (k - ell) % 2:
        raise ValueError(f"grid {k}x{ell} has an odd edge count; sides must share parity")
    g = rect_grid(k, ell)
    half = k + ell
    if k % 2 == 0:
        case = "rect-even"
        quotas = (1, half // 2 - 2, k * ell // 4 - half // 2 + 1)
    elif half % 4:
        case = "rect-odd-one-corner"
        quotas = (1, half // 2 - 3, (k * ell + 7) // 4 - half // 2)
    else:
        case = "rect-odd-two-corners"
        quotas = (2, half // 2 - 3, (k * ell + 5) // 4 - half // 2)

    need = {2: quotas[0], 3: quotas[1], 4: quotas[2]}
    picks = []
    for r in range(k):
        for c in range(ell):
            if (r + c) % 2:
                continue
            v = r * ell + c
            d = g.degree(v)
            if need[d]:
                need[d] -= 1
                picks.append(v)
    if any(need.values()):
        raise ConstructionBug(f"{case}: quotas {quotas} infeasible, short by {need}")
    return _via_independent_set(
        g,
        case,
        picks,
        f"checkerboard class of corner 0; quotas corners={quotas[0]}, "
        f"sides={quotas[1]}, interior={quotas[2]}",
    )


def _row_odd_picks(g: Graph, h: int, row: int) -> list[int]:
    """Alternating picks 1, 3, ..., row of a row, checked for the expected
    degree census (two of degree 4, the rest degree 6) on interior rows."""
    picks = [tri_vertex(row, p) for p in range(1, row + 1, 2)]
    if row < h:
        census = sorted(g.degree(v) for v in picks)
        if census != [4, 4] + [6] * ((row - 3) // 2):
            raise ConstructionBug(f"odd picks of row {row}: degree census {census}")
    return picks


def _row_even_picks(g: Graph, h: int, row: int) -> list[int]:
    """Alternating picks 2, 4, ..., row-1 of a row; all of degree 6 on
    interior rows."""
    picks = [tri_vertex(row, p) for p in range(2, row, 2)]
    if row < h and any(g.degree(v) != 6 for v in picks):
        raise ConstructionBug(f"even picks of row {row} are not all degree 6")
    return picks


def tri_grid_witness(h: int) -> ConstructionResult:
    """Witness (or obstruction) for the triangular grid with h vertices per side.

    The edge count 3h(h-1)/2 is even only for h mod 8 in {0, 1, 4, 5};
    other side lengths are rejected.  Within the even cases, h mod 8 in
    {4, 5} is blocked by parity, and {0, 1} admit independent sets found
    row by row.
    """
    if h < 1:
        raise ValueError("side length must be positive")
    if h % 8 in (2, 3, 6, 7):
        raise ValueError(f"triangular grid h={h} has an odd edge count")
    g = tri_grid(h)

    if h % 8 in (4, 5):
        notes = f"all degrees even and m/2 = {g.m // 2} is odd"
        return _obstructed(g, "tri-parity", parity_obstruction(g), notes)

    if h == 1:
        return _via_independent_set(g, "tri-1mod8", [], "single vertex, no edges")

    t = h // 8
    apex = tri_vertex(1, 1)
    if h % 8 == 0:
        picks = [apex]
        for row in range(3, 2 * t + 2, 2):
            picks += _row_even_picks(g, h, row)
        for row in range(2 * t + 3, h, 2):
            picks += _row_odd_picks(g, h, row)
        return _via_independent_set(
            g,
            "tri-0mod8",
            picks,
            f"apex, even picks of rows 3..{2 * t + 1}, odd picks of rows {2 * t + 3}..{h - 1}",
        )

    picks = [apex]
    for row in range(3, h - 1, 2):
        picks += _row_odd_picks(g, h, row)
    picks += [tri_vertex(h, p) for p in range(1, h + 1, 2)]
    removable = [
        v
        for row in range(h - 2, 2, -2)
        for v in sorted(_row_odd_picks(g, h, row), reverse=True)
        if g.degree(v) == 6
    ]
    if len(removable) < t:
        raise ConstructionBug(f"tri-1mod8: only {len(removable)} removable degree-6 picks")
    drop = set(removable[:t])
    picks = [v for v in picks if v not in drop]
    return _via_independent_set(
        g,
        "tri-1mod8",
        picks,
        f"apex, odd picks of rows 3..{h - 2} and of the last row, "
        f"minus {t} bottom-right degree-6 picks",
    )


def witness_for_spec(params: FamilyParams) -> ConstructionResult:
    """Dispatch a family request to the matching closed-form construction.

    Parameters are checked by the family's own builder, with its messages,
    and sizes as ``build_family`` checks them, so every spec rejected here
    is rejected by ``build_family`` too.
    """
    kind, args = params.kind, params.args
    _refuse_oversized(params)
    if kind == "grid":
        return rect_grid_witness(*args)
    if kind == "tri":
        return tri_grid_witness(*args)
    if kind not in ("chorded", "moebius", "antiprism", "circulant"):
        raise ValueError(f"no closed-form construction for family {kind!r}")
    g = build_family(params)
    if kind == "circulant" and (len(args[1]) != 2 or 1 not in args[1]):
        raise ValueError("closed-form constructions cover circulants with steps {1, l} only")
    return _circulant_cases(g)
