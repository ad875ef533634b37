"""Differential checks against networkx over its atlas of all 1,253 graphs
on at most 7 vertices."""

import pytest

from balanceable import (
    IMPLIES_BALANCEABLE,
    IMPLIES_NOT_BALANCEABLE,
    Graph,
    VertexSet,
    basic_predicates,
    condition_reports,
    cut_value_set,
    decide_balanceable,
    e_cut,
)

nx = pytest.importorskip("networkx")


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
        assert basic_predicates(g).is_bipartite == nx.is_bipartite(h), g.adj
        count += 1
    assert count == 1253


def test_condition_outcomes_against_the_oracle():
    for _, g in atlas():
        status = decide_balanceable(g).status
        for r in condition_reports(g):
            if r.outcome == IMPLIES_BALANCEABLE:
                assert status == "Balanceable", (g.adj, r)
            elif r.outcome == IMPLIES_NOT_BALANCEABLE:
                assert status == "NotBalanceable", (g.adj, r)
