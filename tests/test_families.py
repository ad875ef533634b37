import itertools
import random

import pytest

from balanceable import (
    FamilyParams,
    Graph,
    antiprism,
    build_family,
    chorded_cycle,
    circulant,
    complete,
    cycle,
    graph_from_spec,
    moebius,
    parse_family_spec,
    path,
    rect_grid,
    star,
    tri_grid,
    tri_vertex,
    wheel,
)
from balanceable import families, graphs
from balanceable.graphs import DENSE_LIMIT, _neighbour_tuples


def test_cycle():
    g = cycle(5)
    assert g.n == 5 and g.m == 5
    assert set(g.degrees()) == {2}
    assert g.has_edge(0, 4)
    with pytest.raises(ValueError):
        cycle(2)


def test_path_counts_edges():
    g = path(2)
    assert g.n == 3 and g.m == 2
    assert path(0).n == 1
    with pytest.raises(ValueError):
        path(-1)


def test_complete():
    g = complete(4)
    assert g.m == 6
    assert all(g.has_edge(u, v) for u in range(4) for v in range(u + 1, 4))


def test_wheel_hub_is_last_vertex():
    g = wheel(5)
    assert g.n == 6 and g.m == 10
    assert g.degree(5) == 5
    assert set(g.degrees()[:5]) == {3}
    with pytest.raises(ValueError):
        wheel(2)


def test_star_hub_is_zero():
    g = star(6)
    assert g.n == 7 and g.degree(0) == 6
    assert set(g.degrees()[1:]) == {1}


def test_circulant_wraparound_edges():
    g = circulant(5, (1, 2))
    assert g == complete(5)
    g = circulant(8, (2,))
    assert g.m == 8
    assert g.has_edge(6, 0) and g.has_edge(7, 1)


def test_circulant_half_step_not_doubled():
    g = circulant(6, (3,))
    assert g.m == 3
    assert g.degrees() == (1,) * 6


def test_circulant_rejects_bad_steps():
    with pytest.raises(ValueError):
        circulant(6, (0,))
    with pytest.raises(ValueError):
        circulant(6, (4,))
    with pytest.raises(ValueError):
        circulant(6, (2, 2))


@pytest.mark.parametrize("k,ell", [(8, 2), (8, 3), (10, 4), (11, 3)])
def test_chorded_cycle_regularity(k, ell):
    g = chorded_cycle(k, ell)
    assert g.n == k and g.m == 2 * k
    assert set(g.degrees()) == {4}


def test_chorded_cycle_half_distance():
    g = chorded_cycle(10, 5)
    assert g.m == 15
    assert set(g.degrees()) == {3}


def test_chorded_cycle_mirrors_distance():
    assert chorded_cycle(10, 7) == chorded_cycle(10, 3)
    with pytest.raises(ValueError):
        chorded_cycle(10, 1)
    with pytest.raises(ValueError):
        chorded_cycle(3, 2)


def test_moebius_and_antiprism_are_aliases():
    assert moebius(12) == chorded_cycle(12, 6)
    assert antiprism(6) == circulant(12, (1, 2))
    with pytest.raises(ValueError):
        moebius(7)


def test_rect_grid_structure():
    g = rect_grid(3, 4)
    assert g.n == 12
    assert g.m == 2 * 3 * 4 - 3 - 4
    assert g.degree(0) == 2  # corner
    assert g.degree(1) == 3  # side
    assert g.degree(5) == 4  # inside
    assert g.has_edge(0, 1) and g.has_edge(0, 4)
    with pytest.raises(ValueError):
        rect_grid(1, 5)


def test_tri_vertex_labels():
    assert tri_vertex(1, 1) == 0
    assert tri_vertex(2, 1) == 1
    assert tri_vertex(2, 2) == 2
    assert tri_vertex(4, 3) == 8


def test_tri_grid_structure():
    g = tri_grid(3)
    assert g.n == 6
    assert g.m == 9
    # apex row and bottom corners
    assert g.degree(0) == 2
    assert g.degree(tri_vertex(3, 1)) == 2
    assert g.degree(tri_vertex(3, 2)) == 4
    assert g.degree(tri_vertex(2, 1)) == 4
    h = tri_grid(5)
    assert h.m == 3 * 5 * 4 // 2
    assert h.degree(tri_vertex(3, 2)) == 6


def test_tri_grid_matches_per_vertex_labels():
    """tri_grid labels each row once; its rows are those of the loop that
    called tri_vertex for every vertex and each of its neighbours.  Every
    h <= 64, then sizes up to 200 (building all of them takes seconds)."""
    for h in [*range(1, 65), 99, 100, 160, 197, 200]:
        g = tri_grid(h)
        assert g.n == h * (h + 1) // 2
        nbrs = [set() for _ in range(g.n)]
        for row in range(1, h + 1):
            for pos in range(1, row + 1):
                v = tri_vertex(row, pos)
                below = [tri_vertex(row + 1, pos), tri_vertex(row + 1, pos + 1)] if row < h else []
                right = [tri_vertex(row, pos + 1)] if pos < row else []
                for w in right + below:
                    nbrs[v].add(w)
                    nbrs[w].add(v)
        for v, bits in enumerate(g.adj):  # equal ints: same count, every neighbour set
            assert bits.bit_count() == len(nbrs[v]) and all(bits >> w & 1 for w in nbrs[v]), (h, v)


@pytest.mark.parametrize(
    "spec,n,m",
    [
        ("cycle:12", 12, 12),
        ("complete:5", 5, 10),
        ("wheel:7", 8, 14),
        ("star:5", 6, 5),
        ("path:2", 3, 2),
        ("circulant:38,1+8", 38, 76),
        ("chorded:38,8", 38, 76),
        ("grid:4x8", 32, 52),
        ("tri:9", 45, 108),
        ("moebius:12", 12, 18),
        ("antiprism:6", 12, 24),
    ],
)
def test_family_specs(spec, n, m):
    g = graph_from_spec(spec)
    assert (g.n, g.m) == (n, m)
    params = parse_family_spec(spec)
    order, edges = families._SIZES[params.kind](*params.args)  # the size check's arithmetic
    assert order == n and edges >= m


def test_build_family_matches_spec_parse():
    params = parse_family_spec("chorded:10,3")
    assert build_family(params) == chorded_cycle(10, 3)


def test_spec_names_its_builder():
    assert parse_family_spec("chorded:38,8") == FamilyParams("chorded", (38, 8))
    assert parse_family_spec(" GRID : 4X8 ") == FamilyParams("grid", (4, 8))
    assert parse_family_spec("circulant:16,5+1") == FamilyParams("circulant", (16, (5, 1)))
    assert parse_family_spec("tri:9") == FamilyParams("tri", (9,))
    assert build_family(FamilyParams("grid", (4, 8))) == rect_grid(4, 8)
    with pytest.raises(ValueError, match="unknown family kind 'tri-grid'"):
        build_family(FamilyParams("tri-grid", (9,)))


SPEC_REJECTS = {
    "nope:4": "family spec 'nope:4': unknown family 'nope'",
    "cycle:": "family spec 'cycle:': expected '<family>:<params>'",
    "cycle:abc": "family spec 'cycle:abc': parameter must be an integer",
    "grid:4": "family spec 'grid:4': expected 'grid:<rows>x<cols>'",
    "grid:4x": "family spec 'grid:4x': cols must be an integer",
    "chorded:10": "family spec 'chorded:10': expected 'chorded:<k>,<distance>'",
    "cycle:12,3": "family spec 'cycle:12,3': parameter must be an integer",
    "": "family spec '': expected '<family>:<params>'",
}


@pytest.mark.parametrize("spec", list(SPEC_REJECTS))
def test_family_spec_rejects(spec):
    with pytest.raises(ValueError) as info:
        parse_family_spec(spec)
    assert str(info.value) == SPEC_REJECTS[spec]


def test_circulant_matches_independent_edge_set():
    for k in range(1, 41):
        one = [(j,) for j in range(1, k // 2 + 1)]
        for steps in one + list(itertools.combinations(range(1, k // 2 + 1), 2)):
            g = circulant(k, steps)
            # u ~ v exactly when their distance around the cycle is a step
            edges = {
                (u, v) for u in range(k) for v in range(u + 1, k) if min(v - u, k - v + u) in steps
            }
            assert set(g.edges()) == edges, (k, steps)
            assert g.m == len(edges)
            assert circulant(k, steps[::-1]) == g


def test_graph_from_spec_validates_parameters():
    # grammar is fine, the step range is not
    with pytest.raises(ValueError):
        graph_from_spec("circulant:10,0+2")
    with pytest.raises(ValueError):
        graph_from_spec("cycle:2")


def circulant_edges(k, steps):
    """Reference edges of ``circulant(k, steps)``: i ~ i + j (mod k) for
    every step j."""
    return [(i, (i + j) % k) for j in steps for i in range(k)]


def grid_edges(rows, cols):
    """Reference edges of ``rect_grid(rows, cols)``, row-major: each vertex
    to its right and lower neighbours."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def tri_edges(h):
    """Reference edges of ``tri_grid(h)`` by ``tri_vertex``: each vertex to
    its right neighbour in its row and to the two vertices below it."""
    edges = []
    for row in range(1, h + 1):
        for pos in range(1, row + 1):
            v = tri_vertex(row, pos)
            if pos < row:
                edges.append((v, tri_vertex(row, pos + 1)))
            if row < h:
                edges += [(v, tri_vertex(row + 1, pos)), (v, tri_vertex(row + 1, pos + 1))]
    return edges


def assert_same_graph(closed, reference):
    assert (closed._rows, closed._nbrs) == (reference._rows, reference._nbrs)
    assert closed == reference and hash(closed) == hash(reference)
    assert closed.degrees() == reference.degrees()
    assert closed.n == reference.n and closed.m == reference.m
    assert list(closed.edges()) == list(reference.edges())
    for v in range(closed.n):
        assert list(closed.neighbors(v)) == list(reference.neighbors(v)), v


def assert_matches_edges(monkeypatch, build, n, edges):
    """The family graph ``build()`` equals ``Graph(n, edges)`` at its natural
    order, stored as rows, and stored as neighbour tuples with the stored-form
    threshold of ``graphs`` at 0."""
    closed, reference = build(), Graph(n, edges)
    assert closed._rows is not None
    assert_same_graph(closed, reference)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "DENSE_LIMIT", 0)
        closed, reference = build(), Graph(n, edges)
        assert closed._nbrs is not None
        assert_same_graph(closed, reference)


def test_circulant_closed_form_matches_its_edge_list(monkeypatch):
    """Every step set of one to three steps for k <= 30, then seeded random
    step sets for k up to 3,000."""
    cases = [
        (k, steps)
        for k in range(1, 31)
        for size in (1, 2, 3)
        for steps in itertools.combinations(range(1, k // 2 + 1), size)
    ]
    rng = random.Random(22)
    for _ in range(60):
        k = rng.randrange(31, 3001)
        cases.append((k, tuple(rng.sample(range(1, k // 2 + 1), rng.randrange(1, 6)))))
    cases += [(k, (1,)) for k in (3, 4, 5, 2999)]  # cycles route through circulant
    for k, steps in cases:
        assert_matches_edges(monkeypatch, lambda: circulant(k, steps), k, circulant_edges(k, steps))
    assert_matches_edges(monkeypatch, lambda: cycle(31), 31, circulant_edges(31, (1,)))


def test_rect_grid_closed_form_matches_its_edge_list(monkeypatch):
    for rows in range(2, 31):
        for cols in range(2, 31):
            assert_matches_edges(monkeypatch, lambda: rect_grid(rows, cols), rows * cols, grid_edges(rows, cols))


def test_tri_grid_closed_form_matches_its_edge_list(monkeypatch):
    for h in range(1, 61):
        assert_matches_edges(monkeypatch, lambda: tri_grid(h), h * (h + 1) // 2, tri_edges(h))


@pytest.mark.parametrize(
    "build, edges",
    [
        (lambda: cycle(DENSE_LIMIT + 1), lambda n: circulant_edges(n, (1,))),
        (lambda: circulant(DENSE_LIMIT + 3, (1, 5, 9)), lambda n: circulant_edges(n, (1, 5, 9))),
        (lambda: circulant(DENSE_LIMIT + 4, (3, (DENSE_LIMIT + 4) // 2)), lambda n: circulant_edges(n, (3, n // 2))),
        (lambda: circulant(DENSE_LIMIT + 1, ()), lambda n: []),
        (lambda: chorded_cycle(DENSE_LIMIT + 2, 7), lambda n: circulant_edges(n, (1, 7))),
        (lambda: moebius(DENSE_LIMIT + 2), lambda n: circulant_edges(n, (1, n // 2))),
        (lambda: antiprism(DENSE_LIMIT // 2 + 1), lambda n: circulant_edges(n, (1, 2))),
        (lambda: rect_grid(65, 127), lambda n: grid_edges(65, 127)),
        (lambda: rect_grid(2, DENSE_LIMIT // 2 + 1), lambda n: grid_edges(2, n // 2)),
        (lambda: rect_grid(DENSE_LIMIT // 2 + 1, 2), lambda n: grid_edges(n // 2, 2)),
        (lambda: tri_grid(128), lambda n: tri_edges(128)),
    ],
    ids=["cycle", "circulant", "circulant-half-step", "circulant-no-steps", "chorded", "moebius", "antiprism",
         "grid", "grid-2-rows", "grid-2-cols", "tri"],
)
def test_closed_forms_just_above_the_dense_limit(monkeypatch, build, edges):
    """Above DENSE_LIMIT the public builders keep their closed-form tuples,
    and the graph equals the one built from the reference edge list, as
    tuples at its natural order and as rows with the threshold raised."""
    closed = build()
    assert closed.n > DENSE_LIMIT and closed._rows is None
    reference = edges(closed.n)
    assert_same_graph(closed, Graph(closed.n, reference))
    monkeypatch.setattr(graphs, "DENSE_LIMIT", closed.n)
    assert_same_graph(build(), Graph(closed.n, reference))


def test_from_neighbours_stores_the_tuples_given():
    edges = [(0, 1), (1, 2), (0, 2), (5, 9)]
    nbrs = _neighbour_tuples(DENSE_LIMIT + 1, edges)
    g = Graph._from_neighbours(nbrs)
    assert g._nbrs is nbrs and g._rows is None
    assert (g.n, g.m) == (DENSE_LIMIT + 1, 4)
    assert g.degrees()[:10] == (2, 2, 2, 0, 0, 1, 0, 0, 0, 1)
    # at or below the limit the tuples become the rows Graph(n, edges) stores
    for n in (10, DENSE_LIMIT):
        g, reference = Graph._from_neighbours(_neighbour_tuples(n, edges)), Graph(n, edges)
        assert g._nbrs is None and g._rows == reference._rows
        assert g == reference and hash(g) == hash(reference)
        assert (g.n, g.m, g.degrees()) == (reference.n, reference.m, reference.degrees())


# specs over ORDER_LIMIT vertices or EDGE_LIMIT edges, and specs at or near them
OVERSIZED = [
    "cycle:99999999999999999999",
    "tri:100000001",
    "tri:256",
    "grid:182x181",
    "complete:513",
    "circulant:32768,1+2+3+4+5",
    "chorded:32770,5",
    "wheel:65536",
    "antiprism:16385",
]
ADMITTED = [
    "grid:150x150",
    "tri:205",
    "tri:255",
    "chorded:20002,5001",
    "complete:22",
    "complete:512",
    "cycle:32768",
    "circulant:32768,1+2+3+4",
]


def refuse_to_build(monkeypatch):
    """Make every builder fail if it is called."""

    def builder_called(*args):
        raise AssertionError("builder called")

    for kind in families._BUILDERS:
        monkeypatch.setitem(families._BUILDERS, kind, builder_called)


@pytest.mark.parametrize("spec", OVERSIZED)
def test_oversized_specs_are_refused_before_building(monkeypatch, spec):
    refuse_to_build(monkeypatch)
    with pytest.raises(ValueError, match=f"^{spec.split(':')[0]} graph of .* is over the limit of "):
        graph_from_spec(spec)


@pytest.mark.parametrize("spec", ADMITTED)
def test_specs_within_the_limits_reach_their_builder(monkeypatch, spec):
    refuse_to_build(monkeypatch)
    with pytest.raises(AssertionError, match="builder called"):
        graph_from_spec(spec)
