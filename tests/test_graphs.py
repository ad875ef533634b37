import random

import pytest

from balanceable import (
    Graph,
    VertexSet,
    bipartition,
    complete,
    cycle,
    disjoint_union,
    e_cut,
    e_induced,
    format_edge_list,
    parse_edge_list,
    star,
)
from balanceable.graphs import _iter_bits


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
    two_paths = disjoint_union(star(1), Graph(3, [(1, 0), (1, 2)]))
    assert bipartition(two_paths).indices() == (0, 2, 4)


def test_disjoint_union():
    g = disjoint_union(cycle(3), star(2))
    assert g.n == 6
    assert g.m == 5
    assert g.degrees() == (2, 2, 2, 2, 1, 1)
    assert g.has_edge(0, 1) and g.has_edge(3, 4) and not g.has_edge(2, 3)


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
