import itertools
import random

import pytest

from balanceable import (
    BudgetExceeded,
    Coloring,
    bal_number,
    complete,
    cycle,
    edge_slot,
    find_balanced_copy,
    path,
)


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
    with pytest.raises(BudgetExceeded):
        bal_number(8, path(2))
    with pytest.raises(ValueError):
        bal_number(0, path(2))
