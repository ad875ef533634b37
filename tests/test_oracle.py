import itertools
import random

import pytest

from balanceable import (
    BudgetExceeded,
    Graph,
    VertexSet,
    chorded_cycle,
    complete,
    cycle,
    decide_balanceable,
    e_cut,
    e_induced,
    find_half_cut,
    find_half_induced,
    half_edge_targets,
    parity_obstruction,
    star,
    wheel,
)


def brute_half_cut(g):
    """Reference scan: smallest mask containing vertex 0 whose cut lands on a
    half target."""
    lo, hi = half_edge_targets(g.m)
    if g.n == 0:
        return 0 if lo <= 0 <= hi else None
    for mask in range(1 << g.n):
        if not mask & 1:
            continue
        if lo <= e_cut(g, VertexSet(g.n, mask)) <= hi:
            return mask
    return None


def brute_half_induced(g):
    lo, hi = half_edge_targets(g.m)
    for mask in range(1 << g.n):
        if lo <= e_induced(g, VertexSet(g.n, mask)) <= hi:
            return mask
    return None


def test_half_edge_targets():
    assert half_edge_targets(6) == (3, 3)
    assert half_edge_targets(7) == (3, 4)
    assert half_edge_targets(0) == (0, 0)


def test_find_half_cut_examples():
    assert find_half_cut(cycle(4)).indices() == (0,)
    assert find_half_cut(cycle(6)) is None
    assert find_half_cut(complete(5)) is None


def test_find_half_induced_examples():
    w = find_half_induced(cycle(6))
    assert w.indices() == (0, 1, 2, 3)
    assert e_induced(cycle(6), w) == 3
    assert find_half_induced(chorded_cycle(6, 2)) is None
    assert find_half_induced(complete(5)) is None


def test_scans_match_reference_on_random_graphs():
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.randrange(1, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        got = find_half_cut(g)
        want = brute_half_cut(g)
        assert (got.mask if got is not None else None) == want, (n, edges)
        got = find_half_induced(g)
        want = brute_half_induced(g)
        assert (got.mask if got is not None else None) == want, (n, edges)


def test_witnesses_are_smallest_masks():
    g = wheel(5)
    x = find_half_cut(g)
    assert x.mask == brute_half_cut(g)
    w = find_half_induced(g)
    assert w.mask == brute_half_induced(g)


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        find_half_cut(cycle(20), budget=10)
    with pytest.raises(BudgetExceeded):
        find_half_induced(cycle(20), budget=10)
    # the exception names the scan and the cap
    try:
        find_half_cut(cycle(20), budget=10)
    except BudgetExceeded as exc:
        assert exc.budget == 10
        assert "cut" in str(exc)


def test_parity_obstruction_cases():
    assert parity_obstruction(cycle(6)) is not None
    assert parity_obstruction(cycle(10)) is not None
    assert parity_obstruction(cycle(8)) is None  # m/2 = 4 even
    assert parity_obstruction(cycle(5)) is None  # m odd
    assert parity_obstruction(star(4)) is None  # odd degrees
    obs = parity_obstruction(complete(5))
    assert obs is not None
    assert obs.kind.value == "ParityEulerian"


def test_decide_examples():
    assert decide_balanceable(complete(4)).status == "Balanceable"
    v = decide_balanceable(complete(5))
    assert v.status == "NotBalanceable"
    assert v.obstruction.kind.value == "ParityEulerian"
    v = decide_balanceable(cycle(10))
    assert v.obstruction.kind.value == "ParityEulerian"
    v = decide_balanceable(chorded_cycle(6, 2))
    assert v.status == "NotBalanceable"
    assert v.obstruction.kind.value == "NoHalfInduced"


def test_double_miss_only_under_parity():
    # K_5 misses both scans; the verdict still blames parity because the
    # shortcut runs first and every small double miss is a parity instance
    g = complete(5)
    assert find_half_cut(g) is None
    assert find_half_induced(g) is None
    assert decide_balanceable(g).obstruction.kind.value == "ParityEulerian"


def test_decide_witness_verifies():
    v = decide_balanceable(wheel(6))
    assert v.is_balanceable
    w = v.witness
    assert w.verify(wheel(6))
    lo, hi = half_edge_targets(wheel(6).m)
    assert lo <= w.cut_edges <= hi
    assert lo <= w.induced_edges <= hi


def test_decide_budget_returns_undecided():
    v = decide_balanceable(cycle(24), budget=5)
    assert v.status == "Undecided"
    assert v.witness is None and v.obstruction is None
    assert v.reason


def test_degenerate_graphs_balanceable():
    for g in (Graph(0), Graph(1), Graph(3)):
        v = decide_balanceable(g)
        assert v.status == "Balanceable"
        assert v.witness.cut_edges == 0 and v.witness.induced_edges == 0


def _mask(s):
    return None if s is None else s.mask


def test_scan_budget_boundaries():
    """A cut witness X costs (X >> 1) + 1 states, an induced witness W costs
    W + 1 and an empty scan its whole space; one state fewer raises.  The
    first state is free.  The benchmark's state counts rest on these costs."""
    rng = random.Random(20261018)
    for _ in range(150):
        n = rng.randrange(1, 10)
        p = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        scans = (
            (find_half_cut, "cut", lambda x: (x.mask >> 1) + 1, 1 << (n - 1)),
            (find_half_induced, "induced", lambda w: w.mask + 1, 1 << n),
        )
        for find, scan, cost, space in scans:
            hit = find(g)
            need = cost(hit) if hit is not None else space
            found = _mask(hit)
            assert _mask(find(g, budget=need)) == found, (n, g.edges(), scan)
            if need == 1:
                assert _mask(find(g, budget=0)) == found
                continue
            with pytest.raises(BudgetExceeded) as exc:
                find(g, budget=need - 1)
            assert (exc.value.scan, exc.value.budget) == (scan, need - 1)
            assert str(exc.value) == f"{scan} search exhausted its budget of {need - 1}"


def test_decide_reports_unsettled_induced_half():
    # K_8 has no half cut (s(8 - s) never hits 14); its induced scan needs
    # all 256 states, so a budget of 128 leaves that half unsettled
    v = decide_balanceable(complete(8), budget=128)
    assert v.obstruction.kind.value == "NoHalfCut"
    assert v.obstruction.detail == (
        "no cut attains 14 crossing edges; the induced search exhausted its budget of 128"
    )
    v = decide_balanceable(complete(8), budget=256)
    assert v.obstruction.kind.value == "Both"
