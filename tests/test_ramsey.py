import itertools
import random

import pytest

from balanceable import (
    BAL_ORDER_LIMIT,
    BalancedCopy,
    Graph,
    bal_number,
    complete,
    cycle,
    find_balanced_copy,
    graph_from_spec,
    half_edge_targets,
    path,
    star,
)
from balanceable.ramsey import _canonical, _classes

# OEIS A000088: graphs on n unlabeled vertices, n = 0, 1, 2, ...
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044]


def red_graph(n, mask):
    """Red graph of the coloring of K_n whose red edges are the set bits of
    ``mask``, pairs numbered in lexicographic order."""
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [pair for slot, pair in enumerate(pairs) if mask >> slot & 1])


def test_monochromatic_coloring_has_no_balanced_path():
    all_red = complete(4)
    assert find_balanced_copy(all_red, path(2)) is None
    all_blue = Graph(4)
    assert find_balanced_copy(all_blue, path(2)) is None


def test_one_red_edge_gives_balanced_path():
    copy = find_balanced_copy(Graph(3, [(0, 1)]), path(2))
    assert copy is not None
    assert copy.red_edges == 1


def test_single_edge_always_embeds():
    for red in range(1 << 3):
        copy = find_balanced_copy(red_graph(3, red), path(1))
        assert copy is not None
        assert copy.red_edges in (0, 1)


def test_embedding_is_injective_and_correct():
    rng = random.Random(99)
    g = cycle(4)
    lo, hi = g.m // 2, (g.m + 1) // 2
    for _ in range(50):
        red = red_graph(6, rng.randrange(1 << 15))
        copy = find_balanced_copy(red, g)
        if copy is None:
            continue
        image = copy.embedding
        assert len(set(image)) == g.n
        reds = sum(red.has_edge(image[u], image[v]) for u, v in g.edges())
        assert reds == copy.red_edges
        assert lo <= reds <= hi


def test_copy_search_respects_color_swap():
    rng = random.Random(7)
    g = path(2)
    for _ in range(60):
        red = red_graph(5, rng.randrange(1 << 10))
        blue = Graph(5, [e for e in itertools.combinations(range(5), 2) if not red.has_edge(*e)])
        a = find_balanced_copy(red, g) is not None
        b = find_balanced_copy(blue, g) is not None
        assert a == b


def test_pattern_larger_than_host_rejected():
    with pytest.raises(ValueError):
        find_balanced_copy(Graph(3), complete(4))


def test_bal_small_paths():
    assert bal_number(4, path(2)) == 0
    assert bal_number(5, path(2)) == 0


def test_bal_complete_four():
    assert bal_number(4, complete(4)) == 2


def test_bal_none_means_always_present():
    # a single edge embeds in every coloring of K_3
    assert bal_number(3, path(1)) is None


def test_bal_rejects_large_host():
    with pytest.raises(ValueError, match="order cap"):
        bal_number(BAL_ORDER_LIMIT + 1, path(2))
    with pytest.raises(ValueError):
        bal_number(0, path(2))


def reference_find_balanced_copy(red, g):
    """The backtracker without adjacency rows: every back edge is scored by
    ``Graph.has_edge``."""
    if g.n > red.n:
        raise ValueError(f"pattern on {g.n} vertices cannot embed in K_{red.n}")
    lo, hi = half_edge_targets(g.m)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    back = [[u for u in order[:i] if g.adj[v] >> u & 1] for i, v in enumerate(order)]
    remaining_after = [0] * (g.n + 1)
    for i in range(g.n - 1, -1, -1):
        remaining_after[i] = remaining_after[i + 1] + len(back[i])
    image = [-1] * g.n

    def place(i, used, reds):
        if reds > hi or reds + remaining_after[i] < lo:
            return None
        if i == g.n:
            return BalancedCopy(tuple(image), reds)
        v = order[i]
        for w in range(red.n):
            if used >> w & 1:
                continue
            gained = sum(red.has_edge(image[u], w) for u in back[i])
            image[v] = w
            found = place(i + 1, used | 1 << w, reds + gained)
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
            for red in (red_graph(n, half), red_graph(n, sparse)):
                for g in patterns:
                    if g.n <= n:
                        found = find_balanced_copy(red, g)
                        assert found == reference_find_balanced_copy(red, g)
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
            rows = red_graph(n, rng.randrange(1 << slots)).adj
            code = _canonical(rows)
            perm = list(range(n))
            rng.shuffle(perm)
            assert _canonical(relabeled(rows, perm)) == code
            # the code's own red graph is its class representative
            assert _canonical(red_graph(n, code).adj) == code
            assert code.bit_count() == sum(row.bit_count() for row in rows) // 2


def test_class_graphs_are_fixed_points():
    rng = random.Random(41)
    for n in range(1, BAL_ORDER_LIMIT + 1):
        for red in _classes(n):
            code = _canonical(red.adj)
            assert red == red_graph(n, code)
            assert red.m == code.bit_count()
            perm = list(range(n))
            rng.shuffle(perm)
            assert _canonical(relabeled(red.adj, perm)) == code


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
    slot = {pair: i for i, pair in enumerate(itertools.combinations(range(n), 2))}
    placements = {
        sum(1 << slot[min(image[u], image[v]), max(image[u], image[v])] for u, v in g.edges())
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
