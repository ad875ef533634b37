import pytest

from balanceable import (
    bipartite_regular_4n,
    chorded_cycle,
    circulant_witness,
    cycle,
    decide_balanceable,
    e_cut,
    e_induced,
    half_edge_targets,
    parse_family_spec,
    rect_grid,
    rect_grid_witness,
    tri_grid,
    tri_grid_witness,
    tri_vertex,
    witness_for_spec,
)
from balanceable.witnesses import ConstructionBug, _spread_runs, _via_independent_set


def check_result(result):
    g = result.graph
    lo, hi = half_edge_targets(g.m)
    if result.verdict.status == "Balanceable":
        w = result.verdict.witness
        assert lo <= e_cut(g, w.cut_side) <= hi
        assert lo <= e_induced(g, w.induced_set) <= hi
    if result.independent_set is not None:
        idx = result.independent_set.indices()
        assert all(not g.has_edge(u, v) for u in idx for v in idx if u < v)


def test_sweep_matches_parity_rule():
    # the construction never errors and lands on the even/odd verdict split
    for k in range(4, 61):
        for ell in range(2, k // 2 + 1):
            result = circulant_witness(k, ell)
            check_result(result)
            if k % 2 == 1:
                assert result.verdict.status == "NotBalanceable"
                assert result.case_id == "odd-order"
            elif (k, ell) == (6, 2):
                assert result.verdict.status == "NotBalanceable"
                assert result.case_id == "exception-6-2"
            else:
                assert result.verdict.status == "Balanceable", (k, ell)


def test_case_dispatch():
    assert circulant_witness(8, 4).case_id == "antipodal-0mod4"
    assert circulant_witness(10, 5).case_id == "antipodal-2mod4"
    assert circulant_witness(12, 3).case_id == "0mod4-odd-chord"
    assert circulant_witness(12, 4).case_id == "0mod4-even-chord"
    assert circulant_witness(14, 3).case_id == "2mod4-odd-chord"
    assert circulant_witness(10, 2).case_id == "2mod4-chord-two"
    assert circulant_witness(14, 4).case_id == "2mod4-even-chord"
    assert circulant_witness(9, 2).case_id == "odd-order"


def test_ell_above_half_mirrors():
    a = circulant_witness(12, 9)
    b = circulant_witness(12, 3)
    assert a.case_id == b.case_id
    assert a.verdict.witness.cut_side == b.verdict.witness.cut_side


def test_odd_chord_set_is_the_bipartition_class():
    """The 0-mod-4 odd-chord set, named in closed form, is the one the
    bipartite regular shortcut finds by walking the graph."""
    cases = [(k, ell) for k in range(8, 201, 4) for ell in range(3, k - 1, 2)]
    for k, ell in cases + [(20000, 5001)]:
        r = circulant_witness(k, ell)
        assert r.case_id == "0mod4-odd-chord", (k, ell)
        assert r.independent_set == bipartite_regular_4n(r.graph), (k, ell)


def test_via_independent_set_refuses_a_bad_set():
    g = cycle(8)  # 8 edges, so the band is 4..4
    with pytest.raises(ConstructionBug, match=r"^t: \[0, 1, 4\] is not independent$"):
        _via_independent_set(g, "t", [0, 1, 4], "")  # cut 4, but the edge 01 inside
    with pytest.raises(ConstructionBug, match=r"^t: cut \[0\] crosses 2, wanted 4\.\.4$"):
        _via_independent_set(g, "t", [0], "")
    assert _via_independent_set(g, "t", [0, 4], "").verdict.witness.induced_edges == 4


def test_spread_runs_reference_patterns():
    assert _spread_runs(4, 10, set(), 32) == [0, 2, 4, 6, 9, 11, 13, 15, 18, 20]
    assert _spread_runs(4, 8, set(), 24) == [0, 2, 4, 6, 9, 11, 13, 15]


def test_spread_runs_skips_forbidden():
    # a forbidden slot pushes the scan forward and restarts the run count
    picks = _spread_runs(2, 3, {2}, 12)
    assert 2 not in picks
    assert len(picks) == 3
    assert picks == sorted(set(picks))


def test_known_cut_and_induced_values():
    r = circulant_witness(38, 9)
    assert r.verdict.witness.cut_edges == 38
    r = circulant_witness(10, 5)
    assert r.verdict.witness.induced_set.indices() == (0, 1, 2, 3, 4, 5, 6)
    assert r.verdict.witness.induced_edges == 8
    r = circulant_witness(40, 8)
    assert r.independent_set.indices() == (0, 2, 4, 6, 9, 11, 13, 15, 18, 20)
    r = circulant_witness(38, 8)
    assert r.verdict.witness.cut_side.indices() == (0, 2, 4, 7, 9, 11, 13, 16, 35, 36)


def test_small_special_cases():
    r = circulant_witness(10, 2)
    assert r.verdict.witness.induced_set.indices() == (0, 1, 2, 3, 4, 6, 8)
    assert r.verdict.witness.induced_edges == 10
    r = circulant_witness(10, 4)
    assert r.verdict.witness.induced_set.indices() == (0, 1, 2, 4, 5, 6, 8)
    assert r.verdict.witness.induced_edges == 10


def test_exception_case_has_no_half_induced():
    r = circulant_witness(6, 2)
    assert r.verdict.obstruction.kind.value == "NoHalfInduced"
    g = chorded_cycle(6, 2)
    counts = {e_induced(g, s) for s in all_subsets(g)}
    assert g.m // 2 not in counts


def all_subsets(g):
    from balanceable import VertexSet

    return (VertexSet(g.n, mask) for mask in range(1 << g.n))


def test_oracle_agreement_small():
    for k in range(4, 17):
        for ell in range(2, k // 2 + 1):
            construction = circulant_witness(k, ell)
            oracle = decide_balanceable(construction.graph)
            assert construction.verdict.status == oracle.status, (k, ell)


def test_construction_is_deterministic():
    a = circulant_witness(22, 6)
    b = circulant_witness(22, 6)
    assert a.verdict.witness.cut_side == b.verdict.witness.cut_side
    assert a.verdict.witness.induced_set == b.verdict.witness.induced_set
    assert a.case_id == b.case_id


def test_circulant_witness_rejects():
    with pytest.raises(ValueError):
        circulant_witness(3, 2)
    with pytest.raises(ValueError):
        circulant_witness(10, 1)
    with pytest.raises(ValueError):
        circulant_witness(10, 9)


def test_rect_grid_cases():
    assert rect_grid_witness(4, 8).case_id == "rect-even"
    assert rect_grid_witness(3, 7).case_id == "rect-odd-one-corner"
    assert rect_grid_witness(5, 7).case_id == "rect-odd-two-corners"
    assert rect_grid_witness(3, 3).case_id == "rect-odd-one-corner"


def test_rect_grid_quota_pins():
    r = rect_grid_witness(4, 8)
    g = r.graph
    idx = r.independent_set.indices()
    assert sum(g.degree(v) for v in idx) == 26 == g.m // 2
    degs = sorted(g.degree(v) for v in idx)
    assert degs.count(2) == 1 and degs.count(3) == 4 and degs.count(4) == 3

    r = rect_grid_witness(3, 7)
    degs = sorted(r.graph.degree(v) for v in r.independent_set.indices())
    assert degs.count(2) == 1 and degs.count(3) == 2 and degs.count(4) == 2

    r = rect_grid_witness(5, 7)
    degs = sorted(r.graph.degree(v) for v in r.independent_set.indices())
    assert degs.count(2) == 2 and degs.count(3) == 3 and degs.count(4) == 4


def test_rect_grid_sweep():
    for k in range(2, 11):
        for ell in range(k, 11):
            if (k - ell) % 2:
                continue
            r = rect_grid_witness(k, ell)
            assert r.verdict.status == "Balanceable"
            check_result(r)
            # the independent set lives on the checkerboard class of (0,0)
            cols = ell
            for v in r.independent_set.indices():
                assert (v // cols + v % cols) % 2 == 0


def test_rect_grid_rejects():
    with pytest.raises(ValueError):
        rect_grid_witness(3, 4)
    with pytest.raises(ValueError):
        rect_grid_witness(1, 3)


def test_tri_parity_cases():
    for h in (4, 5, 12, 13):
        r = tri_grid_witness(h)
        assert r.verdict.status == "NotBalanceable"
        assert r.case_id == "tri-parity"
        assert r.verdict.obstruction.kind.value == "ParityEulerian"


def test_tri_rejects_odd_edge_count():
    for h in (2, 3, 6, 7, 10, 11):
        with pytest.raises(ValueError):
            tri_grid_witness(h)


def test_tri_balanceable_cases():
    r = tri_grid_witness(8)
    assert r.case_id == "tri-0mod8"
    assert r.verdict.witness.cut_edges == 42 == r.graph.m // 2

    r = tri_grid_witness(9)
    assert r.case_id == "tri-1mod8"
    assert r.verdict.witness.cut_edges == 54 == r.graph.m // 2

    for h in (16, 17, 24, 25):
        r = tri_grid_witness(h)
        check_result(r)
        assert r.verdict.status == "Balanceable"
        assert r.verdict.witness.cut_edges == r.graph.m // 2


def test_tri_one_vertex():
    r = tri_grid_witness(1)
    assert r.verdict.status == "Balanceable"
    assert r.verdict.witness.cut_edges == 0


def test_tri_oracle_agreement():
    for h in (1, 4, 5):
        construction = tri_grid_witness(h)
        oracle = decide_balanceable(tri_grid(h))
        assert construction.verdict.status == oracle.status


def test_witness_for_spec_dispatch():
    r = witness_for_spec(parse_family_spec("chorded:12,4"))
    assert r.case_id == "0mod4-even-chord"
    r = witness_for_spec(parse_family_spec("moebius:12"))
    assert r.case_id == "antipodal-0mod4"
    r = witness_for_spec(parse_family_spec("antiprism:7"))
    assert r.case_id == "2mod4-chord-two"
    r = witness_for_spec(parse_family_spec("circulant:16,1+5"))
    assert r.case_id == "0mod4-odd-chord"
    r = witness_for_spec(parse_family_spec("grid:4x4"))
    assert r.case_id == "rect-even"
    r = witness_for_spec(parse_family_spec("tri:8"))
    assert r.case_id == "tri-0mod8"
    with pytest.raises(ValueError):
        witness_for_spec(parse_family_spec("cycle:8"))
    with pytest.raises(ValueError):
        witness_for_spec(parse_family_spec("circulant:16,2+5"))


WITNESS_REJECTS = {
    "cycle:8": "no closed-form construction for family 'cycle'",
    "circulant:16,2+5": "closed-form constructions cover circulants with steps {1, l} only",
    "circulant:9,1+2+3": "closed-form constructions cover circulants with steps {1, l} only",
}


@pytest.mark.parametrize("spec", list(WITNESS_REJECTS))
def test_witness_for_spec_rejects(spec):
    with pytest.raises(ValueError) as info:
        witness_for_spec(parse_family_spec(spec))
    assert str(info.value) == WITNESS_REJECTS[spec]


@pytest.mark.parametrize(
    "spec, k, ell",
    [
        ("moebius:4", 4, 2),  # K_4
        ("chorded:5,3", 5, 3),  # K_5
        ("chorded:38,30", 38, 30),  # mirrored chord
        ("circulant:16,5+1", 16, 5),  # unsorted steps
    ],
)
def test_witness_for_spec_reads_chord_distance(spec, k, ell):
    got = witness_for_spec(parse_family_spec(spec))
    # graph, case id, witness masks, independent set and notes
    assert got == circulant_witness(k, ell)
