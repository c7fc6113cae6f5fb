import random

import pytest

from downset import (
    BACKEND_NAMES,
    Antichain,
    DimensionMismatch,
    choose_backend,
    intersect_list,
    member_list,
    union_list,
)
from downset.adaptive import (
    get_backend,
    intersect_adaptive,
    member_adaptive,
    union_adaptive,
)
from util import rand_antichain


def test_choice_examples():
    assert choose_backend(2, 16, 100).kind == "kdtree"
    assert choose_backend(64, 1000, 1000).kind == "list"
    assert choose_backend(1, 2, 2).kind == "kdtree"


def test_choice_edge_cases():
    assert choose_backend(3, 0, 5).kind == "list"
    assert choose_backend(3, 0, 0).kind == "list"
    with pytest.raises(ValueError):
        choose_backend(3, 5, 2)


def test_choice_monotone_in_m():
    # once the tree pays off for some m it keeps paying off as m grows
    # (within m <= n)
    for k in (1, 2, 3, 4, 8):
        n = 1 << 20
        kinds = [choose_backend(k, m, n).kind for m in range(1, 400)]
        first_tree = next((i for i, kd in enumerate(kinds) if kd == "kdtree"), None)
        if first_tree is not None:
            assert all(kd == "kdtree" for kd in kinds[first_tree:])


def test_adaptive_results_match_list_backend():
    rng = random.Random(53)
    for _ in range(120):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 25), 8)
        b = rand_antichain(rng, k, rng.randint(1, 25), 8)
        assert union_adaptive(a, b) == union_list(a, b)
        assert intersect_adaptive(a, b) == intersect_list(a, b)
        for _ in range(10):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            assert member_adaptive(a, u) == member_list(a, u)


def test_forced_choice_respected():
    a = Antichain([(2, 0), (0, 2)])
    b = Antichain([(1, 1)])
    for force in ("list", "kdtree"):
        assert union_adaptive(a, b, force=force) == union_list(a, b)
        assert intersect_adaptive(a, b, force=force) == intersect_list(a, b)
        assert member_adaptive(a, (1, 0), force=force) is True


def test_empty_operands():
    empty = Antichain((), dim=2)
    b = Antichain([(1, 1)])
    assert union_adaptive(empty, b) == b
    assert intersect_adaptive(empty, b) == empty
    assert member_adaptive(empty, (0, 0)) is False


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_every_backend_empty_operands_and_dimension_mismatch(name):
    ops = get_backend(name)
    empty = Antichain((), dim=2)
    b = Antichain([(1, 1)])
    assert ops.union(empty, b) == b
    assert ops.union(b, empty) == b
    assert ops.union(empty, empty) == empty
    assert ops.intersect(empty, b) == empty
    assert ops.intersect(b, empty) == empty
    assert ops.member(empty, (0, 0)) is False
    three = Antichain([(1, 1, 1)])
    for ac in (b, empty):
        with pytest.raises(DimensionMismatch):
            ops.member(ac, (1, 1, 1))
        with pytest.raises(DimensionMismatch):
            ops.union(ac, three)
        with pytest.raises(DimensionMismatch):
            ops.intersect(ac, three)


def test_backend_registry():
    for name in ("list", "kdtree", "sharingtree", "cst", "adaptive"):
        ops = get_backend(name)
        assert ops.name == name
    with pytest.raises(ValueError):
        get_backend("btree")
