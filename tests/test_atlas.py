"""Differential checks against networkx over its atlas of all 1,253 graphs
on at most 7 vertices."""

import pytest

from balanceable import (
    IMPLIES_BALANCEABLE,
    IMPLIES_NOT_BALANCEABLE,
    Graph,
    VertexSet,
    bipartition,
    condition_reports,
    cut_value_set,
    decide_balanceable,
    e_cut,
    find_half_cut,
    find_half_induced,
    half_edge_targets,
)
from balanceable.ramsey import _classes

nx = pytest.importorskip("networkx")
np = pytest.importorskip("numpy")


def atlas():
    for h in nx.graph_atlas_g():
        yield h, Graph(h.number_of_nodes(), h.edges())


def test_cut_value_set_against_brute_force():
    for _, g in atlas():
        brute = {e_cut(g, VertexSet(g.n, mask)) for mask in range(1 << g.n)} if g.n else {0}
        assert cut_value_set(g) == brute, g.adj


def test_bipartite_against_networkx():
    count = 0
    for h, g in atlas():
        side = bipartition(g)
        assert (side is not None) == nx.is_bipartite(h), g.adj
        if side is not None:
            assert all((u in side) != (v in side) for u, v in g.edges()), g.adj
            assert all(min(c) in side for c in nx.connected_components(h)), g.adj
        count += 1
    assert count == 1253


def smallest_half_masks(g):
    """Numpy brute force: the smallest X containing vertex 0 whose cut, and
    the smallest W whose induced edge count, lies in the half band."""
    masks = np.arange(1 << g.n)
    cut = np.zeros_like(masks)
    inside = np.zeros_like(masks)
    for u, v in g.edges():
        a, b = masks >> u & 1, masks >> v & 1
        cut += a ^ b
        inside += a & b
    lo, hi = half_edge_targets(g.m)
    pinned = (masks & 1 == 1) | (g.n == 0)
    x = np.flatnonzero(pinned & ((cut == lo) | (cut == hi)))
    w = np.flatnonzero((inside == lo) | (inside == hi))
    return (int(x[0]) if x.size else None), (int(w[0]) if w.size else None)


def test_scans_against_numpy_brute_force():
    for _, g in atlas():
        found = [None if s is None else s.mask for s in (find_half_cut(g), find_half_induced(g))]
        assert found == list(smallest_half_masks(g)), g.adj


def test_condition_outcomes_against_the_oracle():
    for _, g in atlas():
        status = decide_balanceable(g).status
        for r in condition_reports(g):
            if r.outcome == IMPLIES_BALANCEABLE:
                assert status == "Balanceable", (g.adj, r)
            elif r.outcome == IMPLIES_NOT_BALANCEABLE:
                assert status == "NotBalanceable", (g.adj, r)


def invariant(h):
    return tuple(sorted(d for _, d in h.degree())), tuple(sorted(nx.triangles(h).values()))


def test_red_graph_classes_are_the_atlas():
    by_order = {}
    for h, _ in atlas():
        by_order.setdefault(h.number_of_nodes(), []).append(h)
    for n in range(1, 8):
        graphs = by_order[n]
        buckets = {}
        for i, h in enumerate(graphs):
            buckets.setdefault(invariant(h), []).append(i)
        matched = set()
        for red in _classes(n):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(red.edges())
            hits = [i for i in buckets.get(invariant(h), ()) if nx.is_isomorphic(h, graphs[i])]
            assert len(hits) == 1, (n, red.adj)
            matched.add(hits[0])
        assert len(matched) == len(graphs) == len(_classes(n))
