import random
import re
import tracemalloc

import pytest

from balanceable import (
    Graph,
    VertexSet,
    bipartition,
    chorded_cycle,
    complete,
    cycle,
    decide_balanceable,
    e_cut,
    e_induced,
    format_edge_list,
    graph_from_spec,
    moebius,
    parse_edge_list,
    parse_family_spec,
    rect_grid,
    star,
    tri_grid,
    witness_for_spec,
)
from balanceable import graphs
from balanceable.graphs import DENSE_LIMIT, _iter_bits


def test_degrees_and_edge_count():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert g.m == 4
    assert g.degrees() == (2, 2, 2, 2)
    assert sum(g.degrees()) == 2 * g.m


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_neighbors_and_has_edge():
    g = star(4)
    assert sorted(g.neighbors(0)) == [1, 2, 3, 4]
    assert g.has_edge(0, 3)
    assert not g.has_edge(1, 2)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (0, 4)]


def test_vertex_set_round_trip():
    s = VertexSet.from_indices(6, [0, 2, 5])
    assert s.indices() == (0, 2, 5)
    assert len(s) == 3
    assert 2 in s and 3 not in s
    assert s.complement().indices() == (1, 3, 4)
    assert list(s) == [0, 2, 5]


def test_vertex_set_range_checks():
    with pytest.raises(ValueError):
        VertexSet.from_indices(3, [3])
    with pytest.raises(ValueError):
        VertexSet(3, 1 << 3)


def test_cut_and_induced_counts():
    g = cycle(4)
    x = VertexSet.from_indices(4, [0])
    assert e_cut(g, x) == 2
    assert e_induced(g, VertexSet.from_indices(4, [0, 1, 2])) == 2
    # X and its complement see the same cut
    assert e_cut(g, x.complement()) == 2


def test_partition_identity_small():
    g = complete(5)
    for mask in range(1 << 5):
        x = VertexSet(5, mask)
        assert e_induced(g, x) + e_induced(g, x.complement()) + e_cut(g, x) == g.m


def test_cut_rejects_foreign_set():
    with pytest.raises(ValueError):
        e_cut(cycle(4), VertexSet.from_indices(5, [0]))


def test_bipartition_cycle_even():
    assert bipartition(cycle(6)).indices() == (0, 2, 4)


def test_bipartition_cycle_odd():
    assert bipartition(cycle(5)) is None


def test_bipartition_star():
    assert bipartition(star(3)).indices() == (0,)
    # each component's smallest vertex is on the returned side
    two_paths = Graph(5, [(0, 1), (3, 2), (3, 4)])
    assert bipartition(two_paths).indices() == (0, 2, 4)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([0b010, 0b101, 0b1010], "row 2 references vertices beyond n=3"),
        ([0b010, 0b011, 0b000], "self-loop at vertex 1"),
        ([0b110, 0b001, 0b000], "asymmetric adjacency between 2 and 0"),
    ],
)
def test_from_rows_refuses_bad_rows(rows, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph.from_rows(rows)


def or_loop(n, indices):
    """Reference set: each index ORed into the mask."""
    mask = 0
    for v in indices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200, 20000])
def test_from_indices_matches_or_loop(n):
    rng = random.Random(n)
    lists = [[], list(range(n)), list(range(n))[::-1]]
    if n:
        lists += [[n - 1, 0, n - 1, 0], rng.choices(range(n), k=min(n, 50)), rng.sample(range(n), n // 2)]
    for indices in lists:
        assert VertexSet.from_indices(n, indices) == VertexSet(n, or_loop(n, indices))
    for bad in ([n], [-1], [*range(n), n, -1]):  # the first bad index is named
        with pytest.raises(ValueError) as expected:
            or_loop(n, bad)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            VertexSet.from_indices(n, bad)


def test_edge_list_round_trip():
    g = cycle(5)
    assert parse_edge_list(format_edge_list(g)) == g


def test_parse_edge_list_comments_and_blanks():
    text = "# a comment\n5 2\n\n0 1  # trailing\n3 4\n"
    g = parse_edge_list(text)
    assert g.n == 5 and g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(3, 4)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 1\n0 2 1\n",
        "3 1\n2 0\n",
        "3 1\n0 3\n",
        "3 2\n0 1\n",
        "3 2\n0 1\n0 1\n",
    ],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_graph_equality_and_hash():
    assert cycle(4) == Graph(4, [(2, 3), (0, 1), (1, 2), (0, 3)])
    assert hash(cycle(4)) == hash(Graph(4, [(0, 3), (0, 1), (1, 2), (2, 3)]))
    assert cycle(4) != cycle(5)


def lowest_bit_walk(mask):
    """Reference walk: clear the lowest set bit, one step per set bit."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_iter_bits_matches_lowest_bit_walk():
    rng = random.Random(20261020)
    masks = list(range(1 << 10))
    for width in (63, 64, 65, 200):
        masks += [1 << (width - 1), (1 << width) - 1, rng.getrandbits(width) | 1 << (width - 1)]
        for ones in (32, 33):  # either side of the set-bit count that picks the walk
            masks.append(sum(1 << v for v in rng.sample(range(width - 1), ones - 1)) | 1 << (width - 1))
    for _ in range(3):
        masks.append(rng.getrandbits(20000))  # dense
        for ones in range(1, 6):
            masks.append(sum(1 << v for v in rng.sample(range(20000), ones)))
    for mask in masks:
        got = list(_iter_bits(mask))
        assert got == list(lowest_bit_walk(mask)), mask
        assert got == sorted(set(got)) and len(got) == mask.bit_count()


ABOVE = DENSE_LIMIT + 1


def bitset_rows(n, edges):
    """Reference rows: one int per vertex, each edge ORed in at both ends."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def just_above_limit():
    """Graphs of a few vertices more than DENSE_LIMIT, as (n, edges): seeded
    random sparse graphs, some with repeated edges in either orientation,
    and family graphs with their edges."""
    rng = random.Random(19)
    cases = []
    for extra, degree in ((1, 0), (1, 3), (7, 4), (40, 9)):
        n = DENSE_LIMIT + extra
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(n * degree // 2)]
        edges += [(v, u) for u, v in rng.sample(edges, min(len(edges), 25))]
        cases.append(pytest.param(n, edges, id=f"random-degree-{degree}"))
    for name, g in (
        ("cycle", cycle(ABOVE)),
        ("chorded", chorded_cycle(DENSE_LIMIT + 2, 7)),
        ("moebius", moebius(DENSE_LIMIT + 2)),
        ("grid", rect_grid(65, 127)),
        ("tri", tri_grid(128)),
    ):
        cases.append(pytest.param(g.n, list(g.edges()), id=name))
    return cases


@pytest.mark.parametrize("n, edges", just_above_limit())
def test_sparse_and_dense_forms_agree(monkeypatch, n, edges):
    sparse = Graph(n, edges)
    from_rows = Graph.from_rows(bitset_rows(n, edges))
    assert from_rows._nbrs is not None  # stored by its order, as tuples
    assert from_rows == sparse and hash(from_rows) == hash(sparse)
    monkeypatch.setattr(graphs, "DENSE_LIMIT", n)  # the same graph stored as rows
    dense = Graph(n, edges)
    assert sparse._nbrs is not None and dense._nbrs is None
    assert sparse.m == dense.m == len({frozenset(e) for e in edges})
    assert sparse.degrees() == dense.degrees()
    assert list(sparse.edges()) == list(dense.edges())
    for v in range(n):
        assert list(sparse.neighbors(v)) == list(dense.neighbors(v))
    rng = random.Random(n)
    for mask in (0, (1 << n) - 1, 1 << n - 1, *(rng.getrandbits(n) for _ in range(3))):
        x = VertexSet(n, mask)
        assert e_cut(sparse, x) == e_cut(dense, x)
        assert e_induced(sparse, x) == e_induced(dense, x)
    assert bipartition(sparse) == bipartition(dense)
    assert sparse.adj == dense.adj


def test_sparse_form_counts_repeated_edges_once():
    g = Graph(ABOVE, [(0, 1), (1, 0), (0, 1), (2, 3)])
    assert g.m == 2 and g.degrees()[:4] == (1, 1, 1, 1)
    assert list(g.edges()) == [(0, 1), (2, 3)]
    with pytest.raises(ValueError, match="duplicate edges in input"):
        parse_edge_list(f"{ABOVE} 2\n0 1\n0 1\n")


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (5, -1), (2, 2)], f"edge (5,-1) out of range for n={ABOVE}"),
        ([(0, 1), (ABOVE, 0)], f"edge ({ABOVE},0) out of range for n={ABOVE}"),
        ([(0, 1), (3, 3), (0, ABOVE)], "self-loop at vertex 3"),
    ],
)
def test_sparse_form_raises_the_dense_forms_first_error(monkeypatch, edges, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph(ABOVE, edges)
    monkeypatch.setattr(graphs, "DENSE_LIMIT", ABOVE)  # the same graph stored as rows
    with pytest.raises(ValueError, match=re.escape(message)):
        Graph(ABOVE, edges)


@pytest.mark.parametrize(
    "run",
    [
        lambda: witness_for_spec(parse_family_spec("chorded:20002,5001")),
        lambda: witness_for_spec(parse_family_spec("grid:150x150")),
        lambda: decide_balanceable(graph_from_spec("tri:204")),
    ],
    ids=["witness chorded:20002,5001", "witness grid:150x150", "decide tri:204"],
)
def test_large_witness_and_parity_paths_build_no_bitset_rows(run):
    # bitset rows for 20,000 vertices take about 50 MB: these paths must not
    # build them
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("spec", ["chorded:20002,5001", "grid:150x150", "tri:204"])
def test_large_family_builds_stay_small(spec):
    # the closed forms write neighbour tuples directly: no edge list, no
    # per-vertex lists or sets
    tracemalloc.start()
    try:
        graph_from_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20
