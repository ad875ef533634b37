import math
import random

import pytest

from balanceable import (
    BudgetExceeded,
    Graph,
    IMPLIES_BALANCEABLE,
    IMPLIES_NOT_BALANCEABLE,
    INAPPLICABLE,
    big_vertex,
    bipartite_regular_4n,
    chorded_cycle,
    complete,
    condition_reports,
    cycle,
    decide_balanceable,
    graph_from_spec,
    half_edge_targets,
    independent_degree_sum,
    rect_grid,
    regular_obstruction,
    star,
    wheel,
)


def is_independent(g, vs):
    idx = vs.indices()
    return all(not g.has_edge(u, v) for u in idx for v in idx if u < v)


def test_independent_degree_sum_cycle():
    g = cycle(8)
    got = independent_degree_sum(g, 4)
    assert got.indices() == (0, 2)
    assert is_independent(g, got)


def test_independent_degree_sum_chorded():
    g = chorded_cycle(8, 4)
    got = independent_degree_sum(g, 6)
    assert got.indices() == (0, 2)
    assert is_independent(g, got)


def test_independent_degree_sum_grid():
    g = rect_grid(4, 8)
    got = independent_degree_sum(g, 26)
    assert got is not None
    assert is_independent(g, got)
    assert sum(g.degree(v) for v in got.indices()) == 26
    # smallest index sequence wins: starts at the corner
    assert got.indices()[0] == 0


def test_independent_degree_sum_edge_cases():
    g = cycle(5)
    assert independent_degree_sum(g, 0).indices() == ()
    assert independent_degree_sum(g, 11) is None  # exceeds any independent sum
    assert independent_degree_sum(g, 3) is None  # all degrees even
    with pytest.raises(ValueError):
        independent_degree_sum(g, -1)


def test_independent_degree_sum_budget():
    g = rect_grid(5, 6)
    with pytest.raises(BudgetExceeded):
        independent_degree_sum(g, g.m // 2, node_budget=3)


def recursive_independent_degree_sum(g, target, node_budget, *, gcd_check=True):
    """The recursive search that independent_degree_sum replaced, kept as
    the reference for its node order.  Returns (witness indices or None,
    nodes visited), or raises BudgetExceeded on the node after the budget.
    With ``gcd_check`` it refuses, as independent_degree_sum does, a target
    that the gcd of the degrees does not divide, before visiting a node."""
    if target == 0:
        return (), 0
    n, adj, degs = g.n, g.adj, g.degrees()
    step = math.gcd(*degs)
    if gcd_check and (step == 0 or target % step):
        return None, 0
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + degs[v]
    chosen = []
    nodes = 0

    def walk(v, remaining, forbidden):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceeded("independent-set", node_budget)
        if remaining == 0:
            return True
        if v == n or suffix[v] < remaining:
            return False
        if not forbidden >> v & 1 and degs[v] <= remaining:
            chosen.append(v)
            if walk(v + 1, remaining - degs[v], forbidden | adj[v]):
                return True
            chosen.pop()
        return walk(v + 1, remaining, forbidden)

    found = walk(0, target, 0)
    return (tuple(chosen) if found else None), nodes


def _stack_result(g, target, node_budget):
    try:
        got = independent_degree_sum(g, target, node_budget=node_budget)
    except BudgetExceeded as exc:
        return str(exc)
    return None if got is None else got.indices()


def test_independent_degree_sum_matches_recursive_search():
    """Same witness, and the same node count: with exactly the nodes the
    recursive search visited it answers, with one fewer it raises."""
    rng = random.Random(20261018)
    cap = 3000
    for _ in range(400):
        n = rng.choice((rng.randrange(0, 12), rng.randrange(12, 500)))
        size = min(n * (n - 1) // 2, int(n * rng.choice((0.5, 1, 1.5, 2, 4)) / 2))
        edges = set()
        while len(edges) < size:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
        lo, hi = half_edge_targets(g.m)
        for target in {lo, hi, rng.randrange(sum(g.degrees()) + 2)}:
            try:
                want, nodes = recursive_independent_degree_sum(g, target, cap)
            except BudgetExceeded:
                assert _stack_result(g, target, cap) == f"independent-set search exhausted its budget of {cap}"
                continue
            assert _stack_result(g, target, nodes) == want, (n, sorted(edges), target)
            if nodes:
                short = _stack_result(g, target, nodes - 1)
                assert short == f"independent-set search exhausted its budget of {nodes - 1}"


def test_gcd_rule_matches_unpruned_search():
    """Refusing targets the gcd of the degrees does not divide changes no
    answer of the search run to completion: all-even-degree graphs, n = 0
    and edgeless graphs included, none of which may divide by zero."""
    rng = random.Random(20261020)
    graphs = [Graph(0), Graph(1), Graph(7), cycle(6), complete(5), chorded_cycle(10, 5)]
    for _ in range(300):
        n = rng.randrange(0, 13)
        p = rng.choice((0.0, 0.2, 0.5, 0.8))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        graphs.append(g)
        # the even-degree part: drop every edge at an odd-degree vertex
        odd = [v for v in range(n) if g.degree(v) % 2]
        graphs.append(Graph(n, [(u, v) for u, v in g.edges() if u not in odd and v not in odd]))
    for g in graphs:
        for target in range(sum(g.degrees()) + 3):
            want, _ = recursive_independent_degree_sum(g, target, 1 << 40, gcd_check=False)
            got = independent_degree_sum(g, target)
            assert (got if got is None else got.indices()) == want, (g.n, g.adj, target)


def test_gcd_rule_needs_no_budget():
    """Targets the gcd blocks return None before the first node is spent."""
    assert independent_degree_sum(cycle(1002), 501, node_budget=1) is None  # gcd 2
    assert independent_degree_sum(chorded_cycle(399, 5), 399, node_budget=1) is None  # gcd 4
    assert independent_degree_sum(Graph(5), 1, node_budget=0) is None  # gcd 0


@pytest.mark.parametrize("spec", ["chorded:1002,7", "cycle:1002", "wheel:1101", "tri:47"])
def test_condition_reports_beyond_the_recursion_limit(spec):
    g = graph_from_spec(spec)
    reports = condition_reports(g, node_budget=1 << 18)
    assert [r.condition.value for r in reports] == [
        "DegreeHalfEdges",
        "BigVertex",
        "ParityEulerian",
        "RegularObstruction",
        "BipartiteRegular4n",
    ]
    lo, hi = half_edge_targets(g.m)
    for r in reports:
        assert (r.witness is not None) == (r.outcome == IMPLIES_BALANCEABLE), r
    ind = reports[0].witness
    if ind is not None:
        assert is_independent(g, ind)
        assert lo <= sum(g.degree(v) for v in ind.indices()) <= hi
    outcomes = {r.condition.value: r.outcome for r in reports}
    if spec == "cycle:1002":  # all degrees 2 and m/2 = 501 odd
        assert outcomes["ParityEulerian"] == IMPLIES_NOT_BALANCEABLE
        assert outcomes["RegularObstruction"] == IMPLIES_NOT_BALANCEABLE
        assert outcomes["DegreeHalfEdges"] == INAPPLICABLE
    if spec == "wheel:1101":  # the hub has degree 1101 = m/2
        assert outcomes["BigVertex"] == IMPLIES_BALANCEABLE
        assert outcomes["DegreeHalfEdges"] == IMPLIES_BALANCEABLE


def test_big_vertex():
    assert big_vertex(wheel(6)) == 6  # hub degree 6 = m/2
    assert big_vertex(complete(4)) == 0  # any vertex, smallest index
    assert big_vertex(cycle(4)) == 0
    assert big_vertex(cycle(6)) is None
    assert big_vertex(cycle(5)) is None  # m odd
    assert big_vertex(star(3)) is None  # m odd
    assert big_vertex(star(4)) is None  # hub degree is m, not m/2


def test_big_vertex_gives_balanceable():
    for g in (wheel(4), wheel(6), wheel(8), complete(4)):
        if big_vertex(g) is not None:
            assert decide_balanceable(g).status == "Balanceable"


def test_bipartite_regular_4n():
    got = bipartite_regular_4n(cycle(8))
    assert got is not None and len(got) == 2
    assert bipartite_regular_4n(cycle(6)) is None  # n = 6
    assert bipartite_regular_4n(cycle(12)) is not None
    assert bipartite_regular_4n(star(3)) is None  # not regular
    assert bipartite_regular_4n(complete(4)) is None  # not bipartite
    # bipartite and 4-regular on 12 vertices: the 3-cube plus... keep it simple
    g = chorded_cycle(12, 3)
    assert bipartite_regular_4n(g) is not None


def test_chorded_cycle_odd_steps_bipartite_but_wrong_order():
    # only odd chord steps keep the graph bipartite; order 10 is not 0 mod 4
    g = chorded_cycle(10, 3)
    from balanceable import bipartition

    assert bipartition(g) is not None
    assert bipartite_regular_4n(g) is None


def test_regular_obstruction_table():
    assert regular_obstruction(2, 6) is True
    assert regular_obstruction(4, 5) is True
    assert regular_obstruction(4, 8) is False
    assert regular_obstruction(2, 8) is False
    assert regular_obstruction(4, 10) is False
    assert regular_obstruction(12, 13) is True
    assert regular_obstruction(6, 10) is True


def test_regular_obstruction_matches_half_parity():
    for n in range(1, 30):
        for d in range(0, n, 2):
            if d * n % 4:
                continue
            m = d * n // 2
            assert regular_obstruction(d, n) == (m % 2 == 0 and (m // 2) % 2 == 1), (d, n)


def test_regular_obstruction_rejects():
    with pytest.raises(ValueError):
        regular_obstruction(3, 6)  # odd degree
    with pytest.raises(ValueError):
        regular_obstruction(2, 0)
    with pytest.raises(ValueError):
        regular_obstruction(6, 4)  # d >= n
    with pytest.raises(ValueError):
        regular_obstruction(2, 5)  # dn/2 not integral


def test_condition_reports_order_and_outcomes():
    reports = condition_reports(cycle(8))
    ids = [r.condition.value for r in reports]
    assert ids == [
        "DegreeHalfEdges",
        "BigVertex",
        "ParityEulerian",
        "RegularObstruction",
        "BipartiteRegular4n",
    ]
    by_id = {r.condition.value: r for r in reports}
    assert by_id["DegreeHalfEdges"].outcome == IMPLIES_BALANCEABLE
    assert by_id["DegreeHalfEdges"].witness.indices() == (0, 2)
    assert by_id["ParityEulerian"].outcome == INAPPLICABLE
    assert by_id["BipartiteRegular4n"].outcome == IMPLIES_BALANCEABLE


def test_condition_reports_obstruction_side():
    by_id = {r.condition.value: r for r in condition_reports(cycle(10))}
    assert by_id["ParityEulerian"].outcome == IMPLIES_NOT_BALANCEABLE
    assert by_id["RegularObstruction"].outcome == IMPLIES_NOT_BALANCEABLE
    assert by_id["DegreeHalfEdges"].outcome == INAPPLICABLE


def test_condition_witness_iff_balanceable_outcome():
    for g in (cycle(8), cycle(10), wheel(6), complete(5), star(4), chorded_cycle(8, 2)):
        for r in condition_reports(g):
            assert (r.witness is not None) == (r.outcome == IMPLIES_BALANCEABLE), (
                g,
                r.condition,
            )


def test_condition_witnesses_are_sound():
    for g in (cycle(8), wheel(6), chorded_cycle(12, 3), rect_grid(4, 4)):
        for r in condition_reports(g):
            if r.witness is None:
                continue
            assert is_independent(g, r.witness)
            assert decide_balanceable(g).status == "Balanceable"
