import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downset import Antichain, DimensionMismatch, Stats, get_backend, member_list, union_list, intersect_list
from downset.kdtree import (
    EMPTY_TREE,
    KdLeaf,
    KdSplit,
    build_kdtree,
    member_kdtree,
    prec_median,
    precedes,
    strict_member_kdtree,
    tree_height,
    tree_leaves,
)
from util import adversarial_vectors, rand_antichain

KD = get_backend("kdtree")


def test_precedes_examples():
    assert precedes(3, 0, 3, 1) is True
    assert precedes(2, 9, 3, 0) is True
    assert precedes(3, 1, 3, 1) is False
    assert precedes(4, 0, 3, 5) is False


def test_prec_median_examples():
    assert prec_median([5]) == 0
    assert prec_median([1, 2]) == 1          # ceil(2/2) = 1st largest
    assert prec_median([7, 7, 7]) == 1       # 2nd largest of equal values
    with pytest.raises(ValueError):
        prec_median([])


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_prec_median_matches_sorting_oracle(values):
    # the ceil(p/2)-th largest under (value, index) is the element of
    # ascending rank floor(p/2)
    ranked = sorted((v, i) for i, v in enumerate(values))
    expect = ranked[len(values) // 2][1]
    assert prec_median(values) == expect


def test_build_two_vector_example():
    tree = build_kdtree(Antichain([(1, 2), (2, 1)]))
    assert isinstance(tree, KdSplit)
    assert tree.value == 2
    assert tree.left.vec == (1, 2)
    assert tree.right.vec == (2, 1)


def test_build_singleton_and_empty():
    tree = build_kdtree(Antichain([(5,)]))
    assert isinstance(tree, KdLeaf) and tree.vec == (5,)
    assert build_kdtree(Antichain((), dim=3)) is EMPTY_TREE
    assert member_kdtree(EMPTY_TREE, (0, 0)) is False
    assert strict_member_kdtree(EMPTY_TREE, (0, 0)) is False


def test_leaves_reproduce_input_and_balance():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 40), 9)
        tree = build_kdtree(a)
        assert sorted(tree_leaves(tree)) == sorted(a.vectors)
        if len(a) > 1:
            assert tree_height(tree) <= math.ceil(math.log2(len(a))) + 1


def test_build_keeps_duplicates_in_collections():
    vecs = [(1, 1), (1, 1), (2, 0)]
    tree = build_kdtree(vecs)
    assert sorted(tree_leaves(tree)) == sorted(vecs)


def test_split_invariants_hold_structurally():
    rng = random.Random(31)
    for _ in range(30):
        k = rng.randint(1, 5)
        vecs = [tuple(rng.randint(0, 4) for _ in range(k))
                for _ in range(rng.randint(2, 50))]
        tree = build_kdtree(vecs)
        stack = [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, KdLeaf):
                continue
            i = node.depth % k
            right_vals = [w[i] for w in tree_leaves(node.right)]
            left_vals = [w[i] for w in tree_leaves(node.left)]
            assert all(x >= node.value for x in right_vals)
            if node.left_allows_equal:
                assert all(x <= node.value for x in left_vals)
            else:
                assert all(x < node.value for x in left_vals)
            stack.append(node.left)
            stack.append(node.right)


def test_member_zero_vector_early_exit():
    tree = build_kdtree(Antichain([(2, 0), (0, 2)]))
    s = Stats()
    assert member_kdtree(tree, (0, 0), s) is True
    assert s.node_visits == 1  # region inclusion certified at the root


def test_member_examples():
    tree = build_kdtree(Antichain([(2, 0), (0, 2)]))
    assert member_kdtree(tree, (1, 1)) is False
    assert member_kdtree(tree, (0, 2)) is True
    with pytest.raises(DimensionMismatch):
        member_kdtree(tree, (1, 1, 1))


def test_strict_member_examples():
    assert strict_member_kdtree(build_kdtree(Antichain([(1, 1)])), (1, 1)) is False
    assert strict_member_kdtree(build_kdtree(Antichain([(2, 1)])), (1, 1)) is True
    assert strict_member_kdtree(build_kdtree(Antichain([(2, 0), (0, 2)])), (0, 1)) is True


def test_member_matches_list_oracle_randomized():
    rng = random.Random(17)
    for _ in range(120):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 64), 8)
        tree = build_kdtree(a)
        for _ in range(30):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            assert member_kdtree(tree, u) == member_list(a, u)
            strict = any(all(x <= y for x, y in zip(u, v)) and u != v for v in a.vectors)
            assert strict_member_kdtree(tree, u) == strict


def test_strict_member_handles_duplicate_leaves():
    # trees over meet multisets contain equal vectors; equal copies must not
    # strictly dominate each other
    tree = build_kdtree([(1, 1), (1, 1)])
    assert strict_member_kdtree(tree, (1, 1)) is False
    assert member_kdtree(tree, (1, 1)) is True


def test_union_intersect_match_list_backend():
    rng = random.Random(29)
    for _ in range(150):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 25), 8)
        b = rand_antichain(rng, k, rng.randint(1, 25), 8)
        assert KD.union(a, b) == union_list(a, b)
        assert KD.intersect(a, b) == intersect_list(a, b)


def test_union_intersect_empty_operands():
    a = Antichain([(2, 0), (0, 2)])
    empty = Antichain((), dim=2)
    assert KD.union(a, empty) == a
    assert KD.union(empty, a) == a
    assert KD.intersect(a, empty) == empty
    assert KD.union(a, a) == a


def test_intersect_collapses_duplicate_meets():
    a = Antichain([(1, 1), (2, 0)])
    b = Antichain([(1, 1)])
    assert KD.intersect(a, b).vectors == ((1, 1),)


def test_adversarial_visit_scaling_small():
    rng = random.Random(8)
    for k in (2, 3, 4):
        for m in (2 ** k, 2 ** (2 * k)):
            bound = m ** (1 - 1 / k)
            for special in (False, True):
                vecs = adversarial_vectors(rng, k, m, special)
                tree = build_kdtree(vecs)
                s = Stats()
                query = tuple([0] * (k - 1) + [1])
                assert member_kdtree(tree, query, s) is special
                assert bound / 4 <= s.node_visits <= 4 * k * bound


def test_best_case_large_query_skips_left_branches():
    rng = random.Random(12)
    a = rand_antichain(rng, 3, 30, 6)
    tree = build_kdtree(a)
    s = Stats()
    assert member_kdtree(tree, (7, 7, 7), s) is False
    # never enters a left branch: one node per level plus the final leaf
    assert s.node_visits <= math.ceil(math.log2(len(a))) + 2
