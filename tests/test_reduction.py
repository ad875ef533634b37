import itertools
import random

import pytest

from balanceable import (
    BudgetExceeded,
    CutInstance,
    Graph,
    VertexSet,
    complete,
    cut_value_set,
    cycle,
    e_cut,
    format_cut_instance,
    has_cut_at_least,
    has_cut_exactly,
    max_cut_value,
    parse_edge_list,
    reduce_maxcut_to_exactcut,
    star,
)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, [(min(u, v), max(u, v)) for u, v in edges])


def brute_cut_values(g):
    if g.n == 0:
        return {0}
    return {e_cut(g, VertexSet(g.n, mask)) for mask in range(1 << g.n)}


def test_instance_validation():
    g = cycle(4)
    CutInstance(g, 0)
    CutInstance(g, 4)
    with pytest.raises(ValueError):
        CutInstance(g, 5)
    with pytest.raises(ValueError):
        CutInstance(g, -1)


def test_reduction_shape():
    g = cycle(5)
    inst = reduce_maxcut_to_exactcut(CutInstance(g, 3))
    assert inst.graph.n == g.n + g.m + 1
    assert inst.graph.m == 2 * g.m
    assert inst.k == 3 + g.m
    # original adjacency preserved on the first block
    for u, v in g.edges():
        assert inst.graph.has_edge(u, v)


def test_cut_value_sets_small():
    assert cut_value_set(cycle(3)) == {0, 2}
    assert cut_value_set(complete(5)) == {0, 4, 6}
    assert cut_value_set(star(3)) == {0, 1, 2, 3}
    assert cut_value_set(Graph(1)) == {0}
    assert cut_value_set(Graph(0)) == {0}


def test_cut_value_set_matches_brute_force():
    rng = random.Random(4242)
    for _ in range(80):
        n = rng.randrange(1, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45]
        g = Graph(n, edges)
        assert cut_value_set(g) == brute_cut_values(g), (n, edges)


def test_cut_value_set_disconnected_sumset():
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # two triangles
    assert cut_value_set(g) == {0, 2, 4}
    g = Graph(6, [(0, 1), (0, 2), (3, 4), (4, 5), (3, 5)])  # a path and a triangle
    assert cut_value_set(g) == {0, 1, 2, 3, 4}


def test_cut_value_set_budget():
    with pytest.raises(BudgetExceeded):
        cut_value_set(complete(12), budget=16)


def test_has_cut_queries():
    g = complete(5)
    assert has_cut_exactly(g, 6)
    assert not has_cut_exactly(g, 5)
    assert has_cut_at_least(g, 6)
    assert not has_cut_at_least(g, 7)
    assert has_cut_at_least(g, 0)
    assert not has_cut_exactly(g, 99)
    with pytest.raises(ValueError):
        has_cut_exactly(g, -1)


def test_petersen_max_cut():
    g = petersen()
    assert max_cut_value(g) == 12
    assert has_cut_at_least(g, 12)
    assert not has_cut_at_least(g, 13)


def test_reduction_preserves_threshold_semantics():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        for k in range(g.m + 1):
            reduced = reduce_maxcut_to_exactcut(CutInstance(g, k))
            assert has_cut_at_least(g, k) == has_cut_exactly(reduced.graph, reduced.k), (
                edges,
                k,
            )


def test_exactly_implies_at_least():
    g = petersen()
    values = cut_value_set(g)
    for k in range(g.m + 1):
        if has_cut_exactly(g, k):
            assert has_cut_at_least(g, k)
    assert max(values) == max_cut_value(g)


def test_format_and_parse_round_trip():
    """The cut-instance text is the edge-list text under a target comment."""
    inst = CutInstance(cycle(4), 3)
    text = format_cut_instance(inst)
    assert text.startswith("# target 3\n")
    assert parse_edge_list(text) == inst.graph


def _largest_component(g):
    seen, largest = set(), 0
    for v0 in range(g.n):
        if v0 in seen:
            continue
        stack, size = [v0], 0
        seen.add(v0)
        while stack:
            v = stack.pop()
            size += 1
            for u in range(g.n):
                if g.has_edge(u, v) and u not in seen:
                    seen.add(u)
                    stack.append(u)
        largest = max(largest, size)
    return largest


def test_cut_value_set_budget_boundary_matches_brute_force():
    """Each component of c vertices needs a budget of 2^(c-1) sides; with
    exactly that for the largest one, the value set is the brute-force set."""
    rng = random.Random(20261018)
    for _ in range(60):
        n = rng.randrange(1, 11)
        p = rng.choice((0.15, 0.3, 0.6))
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        need = 1 << (_largest_component(g) - 1)
        assert cut_value_set(g, budget=need) == brute_cut_values(g), (n, g.edges())
        if need > 1:
            with pytest.raises(BudgetExceeded) as exc:
                cut_value_set(g, budget=need - 1)
            assert str(exc.value) == f"component cut search exhausted its budget of {need - 1}"


def test_cut_value_set_of_forests_is_an_interval():
    """Every edge subset of a forest is a cut, so a forest on n vertices
    with c components reaches exactly the values 0..n-c."""
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randrange(1, 61)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
        components = n - len(edges)
        assert cut_value_set(Graph(n, edges), budget=1 << 60) == set(range(n - components + 1))
