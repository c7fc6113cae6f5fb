import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downset import Antichain, DimensionMismatch, Stats, get_backend, member_list, union_list, intersect_list
from downset.bench import BenchSpec, run_bench
from downset import kdtree
from downset.kdtree import (
    KdSplit,
    build_kdtree,
    member_kdtree,
    tree_dim,
    tree_height,
)
from util import _prec_order, adversarial_vectors, pair_family, prec_median, rand_antichain, tree_leaves

KD = get_backend("kdtree")


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
    assert tree.left == (1, 2)
    assert tree.right == (2, 1)


def test_build_singleton_and_empty():
    tree = build_kdtree(Antichain([(5,)]))
    assert type(tree) is tuple and tree == (5,)
    assert build_kdtree(Antichain((), dim=3)) is None
    assert member_kdtree(None, (0, 0)) is False


def test_leaves_reproduce_input_and_balance():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 40), 9)
        tree = build_kdtree(a)
        leaves = tree_leaves(tree)
        assert sorted(leaves) == sorted(a.vectors)
        # a leaf is the antichain's own tuple, not a copy or a wrapper
        assert {id(v) for v in leaves} == {id(v) for v in a.vectors}
        if len(a) > 1:
            assert tree_height(tree) <= math.ceil(math.log2(len(a))) + 1


def test_build_rejects_zero_length_vectors():
    # as Antichain does; a split would take the coordinate modulo 0
    for source in ([()], [(), ()]):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            build_kdtree(source)


def test_build_rejects_components_that_are_not_natural():
    # as Antichain does: the search certifies a region when no positive query
    # component is left, and tests a leaf on those components alone, so a
    # negative component would answer (0, 0) and (0,) as members
    for source in ([(-1, 5), (3, -2)], [(-1,)], [(1, 2.0)], [(True, 0)], [("1",)]):
        with pytest.raises(ValueError, match="components must be natural numbers, got"):
            build_kdtree(source)
    # lengths are checked first
    with pytest.raises(DimensionMismatch):
        build_kdtree([(1, 2), (-1,)])


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
            if type(node) is tuple:
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


def _reference_tree(vectors, depth, k):
    """Eager tree from the definition: rank the vectors on the split
    coordinate, ties by their position in the node's list; the first
    floor(p/2) ranks go left and the rest right, the median first."""
    if len(vectors) == 1:
        return ("leaf", vectors[0])
    i = depth % k
    col = [v[i] for v in vectors]
    ranks = _prec_order(col)
    m = prec_median(col)
    mu = col[m]
    h = len(vectors) // 2
    left = [vectors[j] for j in ranks[:h]]
    right = [vectors[j] for j in ranks[h:]]
    return ("split", mu, depth, any(v[i] == mu for v in left),
            _reference_tree(left, depth + 1, k), _reference_tree(right, depth + 1, k))


def _as_reference(node):
    """The tree in the reference's shape; reading ``left``/``right`` splits
    every pending child."""
    if type(node) is tuple:
        return ("leaf", node)
    return ("split", node.value, node.depth, node.left_allows_equal,
            _as_reference(node.left), _as_reference(node.right))


def _split_nodes(tree):
    """Nodes split so far, counted without splitting any."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if type(node) is list:
            continue
        count += 1
        if isinstance(node, KdSplit):
            stack += [node._left, node._right]
    return count


def test_lazy_tree_equals_eager_reference():
    rng = random.Random(5)
    for trial in range(3000):
        k = rng.randint(1, 6)
        top = rng.choice((1, 2, 4, 9))
        vecs = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(rng.randint(1, 64))]
        if trial % 2:
            # a raw collection keeps duplicates and comparable vectors
            vecs = [rng.choice(vecs) if rng.random() < 0.2 else v for v in vecs]
            source = vecs
        else:
            source = Antichain(vecs, dim=k)
            vecs = list(source.vectors)
        assert _as_reference(build_kdtree(source)) == _reference_tree(vecs, 0, k)


def test_first_query_splits_only_the_nodes_it_visits():
    rng = random.Random(13)
    partial = 0
    for _ in range(80):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 64), 9)
        for _ in range(5):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            tree = build_kdtree(a)
            assert _split_nodes(tree) == 1
            s = Stats()
            member_kdtree(tree, u, s)
            assert _split_nodes(tree) == s.node_visits
            partial += s.node_visits < 2 * len(a) - 1
    assert partial > 0


def test_dimension_reads_split_nothing():
    tree = build_kdtree([(3, 1, 2), (1, 3, 2), (2, 2, 3), (0, 0, 4)])
    assert tree_dim(tree) == 3
    with pytest.raises(DimensionMismatch):
        member_kdtree(tree, (1, 1))
    assert _split_nodes(tree) == 1
    # a one-vector tree is its leaf tuple, the empty tree None
    assert [tree_dim(build_kdtree(vs)) for vs in ([(1, 2)], [(1, 2), (2, 1)], [])] == [2, 2, None]
    with pytest.raises(DimensionMismatch):
        member_kdtree(build_kdtree([(1, 2)]), (1, 1, 1))


def test_concurrent_searches_of_one_fresh_tree_agree():
    # searches split nodes as they go; racing splits of one node build equal
    # subtrees, so every thread must see the same verdicts and counts
    rng = random.Random(19)
    k = 4
    a = rand_antichain(rng, k, 64, 12)
    queries = [tuple(rng.randint(0, 12) for _ in range(k)) for _ in range(200)]
    queries += list(a.vectors)
    expected = []
    for u in queries:
        s = Stats()
        expected.append((member_kdtree(build_kdtree(a), u, s), s.comparisons, s.node_visits))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            tree = build_kdtree(a)
            results = [None] * 4

            def search(slot):
                out = []
                for u in queries:
                    s = Stats()
                    out.append((member_kdtree(tree, u, s), s.comparisons, s.node_visits))
                results[slot] = out

            threads = [threading.Thread(target=search, args=(slot,)) for slot in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
            assert _as_reference(tree) == _reference_tree(list(a.vectors), 0, k)
    finally:
        sys.setswitchinterval(switch)


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


def test_member_handles_duplicate_leaves():
    # a tree built from a raw collection may hold equal vectors; a query
    # equal to them is a member, and union keeps a member shared by both
    # operands, since equal copies do not strictly dominate each other
    tree = build_kdtree([(1, 1), (1, 1)])
    assert member_kdtree(tree, (1, 1)) is True
    a = Antichain([(1, 1), (2, 0)])
    b = Antichain([(1, 1), (0, 2)])
    assert KD.union(a, b) == union_list(a, b) == Antichain([(1, 1), (2, 0), (0, 2)])


def test_member_matches_list_oracle_randomized():
    rng = random.Random(17)
    for _ in range(120):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 64), 8)
        tree = build_kdtree(a)
        for _ in range(30):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            assert member_kdtree(tree, u) == member_list(a, u)


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
    # the non-member search visits Theta(m^(1-1/k)) nodes; the special
    # member sits at the rightmost leaf, which the right-first search
    # reaches on one root-to-leaf path and then stops
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
                if special:
                    assert s.node_visits <= tree_height(tree) + 1
                else:
                    assert bound / 4 <= s.node_visits <= 4 * k * bound


def test_member_search_stops_at_the_first_dominator():
    # the right leaf (2, 0, 1) dominates the query, so the search neither
    # tests nor splits the pending left child (0, 2, 1)
    tree = build_kdtree(Antichain([(2, 0, 1), (0, 2, 1)]))
    s = Stats()
    assert member_kdtree(tree, (1, 0, 1), s) is True
    assert (s.comparisons, s.node_visits) == (6, 2)
    assert type(tree._left) is list


def test_search_splits_no_list_of_one_vector(monkeypatch):
    # a pending list of one vector is its leaf, so the search splits only
    # the 63 nodes of two or more vectors of a full 64-member traversal
    sizes = []
    split = kdtree._split

    def counting_split(vectors, depth):
        sizes.append(len(vectors))
        return split(vectors, depth)

    monkeypatch.setattr(kdtree, "_split", counting_split)
    s = Stats()
    assert member_kdtree(build_kdtree(Antichain(pair_family(6))), (0,) * 11 + (2,), s) is False
    assert (s.comparisons, s.node_visits) == (958, 127)
    assert len(sizes) == 63
    assert min(sizes) >= 2


def test_best_case_large_query_skips_left_branches():
    rng = random.Random(12)
    a = rand_antichain(rng, 3, 30, 6)
    tree = build_kdtree(a)
    s = Stats()
    assert member_kdtree(tree, (7, 7, 7), s) is False
    # never enters a left branch: one node per level plus the final leaf
    assert s.node_visits <= math.ceil(math.log2(len(a))) + 2


def test_kdtree_counts_are_pinned():
    # counts of the k-d backend on seeded bench rows (k=6, t=10 and 40); a
    # change to the build or the search must leave the tree and these
    # counts as they are.  The union and intersection counts also pin the
    # tie order: ties keep the order of the node's list
    expected = {
        ("membership", "comparisons"): (856, 6835),
        ("membership", "node_visits"): (227, 1961),
        ("union", "comparisons"): (342, 3185),
        ("union", "node_visits"): (97, 926),
        ("intersection", "comparisons"): (1306, 8850),
        ("intersection", "node_visits"): (217, 1950),
    }
    for (op, metric), values in expected.items():
        rows = run_bench(BenchSpec(op=op, sizes=(10, 40), k=6, seed=3,
                                   backends=("kdtree",), metric=metric))
        assert tuple(r.value for r in rows) == values, (op, metric)


def test_high_dimension_matches_list_backend():
    # the search recurses by tree depth, not by dimension
    rng = random.Random(2000)
    k = 2000
    a = rand_antichain(rng, k, 16, 32)
    b = Antichain(a.vectors[:8] + rand_antichain(rng, k, 8, 32).vectors, dim=k)
    queries = []
    for v in a.vectors:
        i = rng.randrange(k)
        queries.append(v)
        queries.append(v[:i] + (max(v[i] - 1, 0),) + v[i + 1:])
        queries.append(v[:i] + (v[i] + 1,) + v[i + 1:])
    for u in queries:
        assert KD.member(a, u) == member_list(a, u)
    assert KD.union(a, b) == union_list(a, b)
    assert KD.intersect(a, b) == intersect_list(a, b)
