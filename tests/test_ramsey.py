import itertools
import random

import pytest

from balanceable import (
    BAL_ORDER_LIMIT,
    BalancedCopy,
    Coloring,
    Graph,
    bal_number,
    complete,
    cycle,
    edge_slot,
    find_balanced_copy,
    graph_from_spec,
    half_edge_targets,
    path,
    star,
)
from balanceable.ramsey import _canonical, _classes, _red_rows

# OEIS A000088: graphs on n unlabeled vertices, n = 0, 1, 2, ...
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


def test_edge_slot_bijection():
    n = 6
    slots = [edge_slot(n, u, v) for u, v in itertools.combinations(range(n), 2)]
    assert sorted(slots) == list(range(n * (n - 1) // 2))
    assert edge_slot(n, 4, 2) == edge_slot(n, 2, 4)
    with pytest.raises(ValueError):
        edge_slot(n, 2, 2)
    with pytest.raises(ValueError):
        edge_slot(n, 0, 6)


def test_coloring_counts():
    c = Coloring(4, 0b000111)
    assert c.red_count() == 3
    assert c.blue_count() == 3
    assert Coloring(4, (1 << 6) - 1 ^ c.red).red_count() == 3
    assert c.is_red(0, 1) or not c.is_red(0, 1)  # just exercises the accessor
    total = sum(c.is_red(u, v) for u, v in itertools.combinations(range(4), 2))
    assert total == 3


def test_coloring_rejects_stray_bits():
    with pytest.raises(ValueError):
        Coloring(3, 1 << 3)


def test_monochromatic_coloring_has_no_balanced_path():
    all_red = Coloring(4, (1 << 6) - 1)
    assert find_balanced_copy(all_red, path(2)) is None
    all_blue = Coloring(4, 0)
    assert find_balanced_copy(all_blue, path(2)) is None


def test_one_red_edge_gives_balanced_path():
    c = Coloring(3, 1 << edge_slot(3, 0, 1))
    copy = find_balanced_copy(c, path(2))
    assert copy is not None
    assert copy.red_edges == 1


def test_single_edge_always_embeds():
    for red in range(1 << 3):
        copy = find_balanced_copy(Coloring(3, red), path(1))
        assert copy is not None
        assert copy.red_edges in (0, 1)


def test_embedding_is_injective_and_correct():
    rng = random.Random(99)
    g = cycle(4)
    lo, hi = g.m // 2, (g.m + 1) // 2
    for _ in range(50):
        c = Coloring(6, rng.randrange(1 << 15))
        copy = find_balanced_copy(c, g)
        if copy is None:
            continue
        image = copy.embedding
        assert len(set(image)) == g.n
        red = sum(c.is_red(image[u], image[v]) for u, v in g.edges())
        assert red == copy.red_edges
        assert lo <= red <= hi


def test_copy_search_respects_color_swap():
    rng = random.Random(7)
    g = path(2)
    for _ in range(60):
        c = Coloring(5, rng.randrange(1 << 10))
        a = find_balanced_copy(c, g) is not None
        b = find_balanced_copy(Coloring(5, (1 << 10) - 1 ^ c.red), g) is not None
        assert a == b


def test_pattern_larger_than_host_rejected():
    with pytest.raises(ValueError):
        find_balanced_copy(Coloring(3, 0), complete(4))


def test_bal_small_paths():
    assert bal_number(4, path(2)) == 0
    assert bal_number(5, path(2)) == 0


def test_bal_complete_four():
    assert bal_number(4, complete(4)) == 2


def test_bal_none_means_always_present():
    # a single edge embeds in every coloring of K_3
    assert bal_number(3, path(1)) is None


def test_bal_brute_force_cross_check():
    # reference: direct max over all colorings, no symmetry halving
    g = path(2)
    n = 4
    slots = n * (n - 1) // 2
    best = None
    for red in range(1 << slots):
        c = Coloring(n, red)
        if find_balanced_copy(c, g) is None:
            value = min(c.red_count(), c.blue_count())
            best = value if best is None else max(best, value)
    assert bal_number(n, g) == best


def test_bal_rejects_large_host():
    with pytest.raises(ValueError, match="order cap"):
        bal_number(BAL_ORDER_LIMIT + 1, path(2))
    with pytest.raises(ValueError):
        bal_number(0, path(2))


def reference_find_balanced_copy(c, g):
    """The backtracker as it read before red rows: every back edge is
    scored by ``Coloring.is_red``."""
    if g.n > c.n:
        raise ValueError(f"pattern on {g.n} vertices cannot embed in K_{c.n}")
    lo, hi = half_edge_targets(g.m)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    back = [[u for u in order[:i] if g.adj[v] >> u & 1] for i, v in enumerate(order)]
    remaining_after = [0] * (g.n + 1)
    for i in range(g.n - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1] + len(back[i])
    image = [-1] * g.n

    def place(i, used, red):
        if red > hi or red + remaining_after[i] < lo:
            return None
        if i == g.n:
            return BalancedCopy(tuple(image), red)
        v = order[i]
        for w in range(c.n):
            if used >> w & 1:
                continue
            gained = sum(c.is_red(image[u], w) for u in back[i])
            image[v] = w
            found = place(i + 1, used | 1 << w, red + gained)
            if found is not None:
                return found
            image[v] = -1
        return None

    return place(0, 0, 0)


def test_red_rows_backtracker_matches_reference():
    rng = random.Random(2024)
    patterns = [path(1), path(2), path(3), path(4), cycle(3), cycle(4), cycle(5),
                complete(3), complete(4), star(3), Graph(4, [(0, 1), (2, 3)])]
    misses = 0
    for n in range(4, 8):
        slots = n * (n - 1) // 2
        for _ in range(40):
            half = rng.randrange(1 << slots)
            # a sparse coloring leaves some patterns without a balanced copy
            sparse = half & rng.randrange(1 << slots) & rng.randrange(1 << slots)
            for coloring in (Coloring(n, half), Coloring(n, sparse)):
                for g in patterns:
                    if g.n <= n:
                        found = find_balanced_copy(coloring, g)
                        assert found == reference_find_balanced_copy(coloring, g)
                        misses += found is None
    assert misses > 0


def test_class_counts_match_a000088():
    for n in range(1, BAL_ORDER_LIMIT + 1):
        assert len(_classes(n)) == GRAPH_COUNTS[n]


def relabeled(rows, perm):
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        for v in range(len(rows)):
            if row >> v & 1:
                out[perm[u]] |= 1 << perm[v]
    return out


def test_canonical_code_ignores_labels():
    rng = random.Random(31)
    for n in range(1, 9):
        slots = n * (n - 1) // 2
        for _ in range(60):
            rows = _red_rows(n, rng.randrange(1 << slots))
            code = _canonical(n, rows)
            perm = list(range(n))
            rng.shuffle(perm)
            assert _canonical(n, relabeled(rows, perm)) == code
            # the code's own red graph is its class representative
            assert _canonical(n, _red_rows(n, code)) == code
            assert code.bit_count() == sum(row.bit_count() for row in rows) // 2


def small_patterns(max_order):
    """One graph per isomorphism class on 1..max_order vertices, found by
    trying every relabeling."""
    out = []
    for k in range(1, max_order + 1):
        pairs = list(itertools.combinations(range(k), 2))
        seen = set()
        for chosen in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if chosen >> i & 1]
            key = min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
                      for p in itertools.permutations(range(k)))
            if key not in seen:
                seen.add(key)
                out.append(Graph(k, edges))
    return out


def reference_bal_number(n, g):
    """Every coloring of K_n against every placement of g's edge set."""
    lo, hi = half_edge_targets(g.m)
    placements = {
        sum(1 << edge_slot(n, image[u], image[v]) for u, v in g.edges())
        for image in itertools.permutations(range(n), g.n)
    }
    slots = n * (n - 1) // 2
    best = None
    for red in range(1 << slots):
        if not any(lo <= (red & p).bit_count() <= hi for p in placements):
            value = min(red.bit_count(), slots - red.bit_count())
            best = value if best is None else max(best, value)
    return best


def test_bal_number_matches_full_enumeration():
    patterns = small_patterns(4)
    assert len(patterns) == sum(GRAPH_COUNTS[1:5])
    for g in patterns:
        for n in range(1, 7):
            if g.n > n:
                with pytest.raises(ValueError):
                    bal_number(n, g)
            else:
                assert bal_number(n, g) == reference_bal_number(n, g), (n, g.adj)


def test_bal_known_values():
    want = {"path:2": 0, "path:3": 0, "complete:3": 0, "cycle:4": 1, "complete:4": 5}
    assert {spec: bal_number(6, graph_from_spec(spec)) for spec in want} == want
    assert bal_number(7, path(4)) == 1
