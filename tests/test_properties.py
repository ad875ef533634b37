import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from balanceable import (
    CutInstance,
    Graph,
    VertexSet,
    decide_balanceable,
    e_cut,
    e_induced,
    format_cut_instance,
    format_edge_list,
    half_edge_targets,
    parity_obstruction,
    parse_edge_list,
    regular_obstruction,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(n, picks)


@st.composite
def graph_with_subset(draw):
    g = draw(graphs())
    mask = draw(st.integers(min_value=0, max_value=max((1 << g.n) - 1, 0)))
    return g, VertexSet(g.n, mask)


@given(graphs())
def test_handshake(g):
    assert sum(g.degrees()) == 2 * g.m


@given(graph_with_subset())
def test_partition_identity(gx):
    g, x = gx
    assert e_induced(g, x) + e_induced(g, x.complement()) + e_cut(g, x) == g.m


@given(graph_with_subset())
def test_cut_symmetry(gx):
    g, x = gx
    assert e_cut(g, x) == e_cut(g, x.complement())


@settings(max_examples=60)
@given(graphs(max_n=8))
def test_verdict_witness_verifies(g):
    v = decide_balanceable(g)
    assert v.status in ("Balanceable", "NotBalanceable")
    if v.status == "Balanceable":
        w = v.witness
        lo, hi = half_edge_targets(g.m)
        assert lo <= e_cut(g, w.cut_side) <= hi
        assert lo <= e_induced(g, w.induced_set) <= hi
        assert w.verify(g)
    else:
        assert v.obstruction is not None


@settings(max_examples=40)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_verdict_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert decide_balanceable(g).status == decide_balanceable(relabeled).status


@given(graphs())
def test_parity_obstruction_matches_definition(g):
    fires = parity_obstruction(g) is not None
    eulerian = all(d % 2 == 0 for d in g.degrees())
    expected = eulerian and g.m % 2 == 0 and (g.m // 2) % 2 == 1
    assert fires == expected


@given(graphs(max_n=8))
def test_parity_obstruction_is_sound(g):
    # when the shortcut fires, exhaustive search really finds no half cut
    if parity_obstruction(g) is None:
        return
    lo, hi = half_edge_targets(g.m)
    for mask in range(1 << g.n):
        assert not lo <= e_cut(g, VertexSet(g.n, mask)) <= hi


@given(
    st.integers(min_value=0, max_value=12).filter(lambda d: d % 2 == 0),
    st.integers(min_value=1, max_value=40),
)
def test_regular_obstruction_parity_formula(d, n):
    if d >= n or (d * n // 2) % 2 or d * n % 4:
        return
    m = d * n // 2
    assert regular_obstruction(d, n) == ((m // 2) % 2 == 1)


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(graphs(), st.data())
def test_cut_instance_round_trip(g, data):
    inst = CutInstance(g, data.draw(st.integers(min_value=0, max_value=g.m)))
    text = format_cut_instance(inst)
    assert text.startswith(f"# target {inst.k}\n")
    assert parse_edge_list(text) == g
