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
from util import _prec_order, adversarial_vectors, prec_median, rand_antichain, scan_count, tree_leaves

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
    # two vectors are one leaf, a list in the antichain's order
    a = Antichain([(2, 1), (1, 2)])
    tree = build_kdtree(a)
    assert type(tree) is list and tree == [(1, 2), (2, 1)]
    assert [id(v) for v in tree] == [id(v) for v in a.vectors]
    # nine are one split over two leaves, the halves of the sort on
    # coordinate 0, the median first on the right
    tree = build_kdtree(Antichain([(i, 8 - i) for i in range(9)]))
    assert isinstance(tree, KdSplit)
    assert (tree.value, tree.axis, tree.left_allows_equal) == (4, 0, False)
    assert tree.left == [(i, 8 - i) for i in range(4)]
    assert tree.right == [(i, 8 - i) for i in range(4, 9)]


def test_build_singleton_and_empty():
    a = Antichain([(5,)])
    tree = build_kdtree(a)
    assert type(tree) is list and tree == [(5,)] and tree[0] is a.vectors[0]
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
            if type(node) is list:
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
    """Eager tree from the definition: a list of at most 8 vectors is a
    leaf; a longer one is split by ranking its vectors on the split
    coordinate, ties by their position in the node's list; the first
    floor(p/2) ranks go left and the rest right, the median first."""
    if len(vectors) <= 8:
        return ("leaf", vectors)
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
    every pending child, so a list is a leaf."""
    if type(node) is list:
        return ("leaf", node)
    return ("split", node.value, node.depth, node.left_allows_equal,
            _as_reference(node.left), _as_reference(node.right))


def _split_nodes(tree):
    """Splits made so far, counted without making any."""
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if type(node) is KdSplit:
            count += 1
            stack += [node._left, node._right]
    return count


def _reference_search(tree, u):
    """The right-first search written as a recursion from its definition:
    ``(verdict, comparisons, splits visited, leaf vectors tested)``.  A
    split costs 3 comparisons when it raises the region's bound and 1 when
    not, and backing up to its left branch 1 more; a region whose bound
    reaches ``u`` holds only dominators; a leaf is scanned from its last
    vector, each counted as the one-way scan counts."""
    n = {"comps": 0, "splits": 0, "vectors": 0}

    def visit(node, lb):
        if type(node) is list:
            for v in reversed(node):
                n["vectors"] += 1
                dominated, count = scan_count(u, v)
                n["comps"] += count
                if dominated:
                    return True
            return False
        n["splits"] += 1
        i, mu = node.axis, node.value
        n["comps"] += 3 if mu > lb[i] else 1
        right_lb = lb[:i] + (max(lb[i], mu),) + lb[i + 1:]
        if all(a <= b for a, b in zip(u, right_lb)) or visit(node.right, right_lb):
            return True
        n["comps"] += 1
        if u[i] < mu or (u[i] == mu and node.left_allows_equal):
            return visit(node.left, lb)
        return False

    found = visit(tree, (0,) * len(u))
    return found, n["comps"], n["splits"], n["vectors"]


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
    # the splits a first query makes are the splits it visits, and it counts
    # those plus the leaf vectors it tests
    rng = random.Random(13)
    partial = 0
    for _ in range(80):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 64), 9)
        full = build_kdtree(a)
        tree_leaves(full)  # splits every node of the reference's tree
        for _ in range(5):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            tree = build_kdtree(a)
            assert _split_nodes(tree) == (len(a) > 8)
            s = Stats()
            found = member_kdtree(tree, u, s)
            _, comps, splits, vectors = _reference_search(full, u)
            assert (found, s.comparisons) == (member_list(a, u), comps)
            assert _split_nodes(tree) == splits
            assert s.node_visits == splits + vectors
            partial += splits < _split_nodes(full)
    assert partial > 0


def test_dimension_reads_split_nothing():
    tree = build_kdtree([(i, 16 - i, 1) for i in range(17)])
    assert tree_dim(tree) == 3
    with pytest.raises(DimensionMismatch):
        member_kdtree(tree, (1, 1))
    assert _split_nodes(tree) == 1
    assert type(tree._left) is list and type(tree._right) is list
    # a tree of at most 8 vectors is its leaf list, the empty tree None
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
    tree = build_kdtree(Antichain([(i, 8 - i) for i in range(9)]))
    s = Stats()
    assert member_kdtree(tree, (0, 0), s) is True
    assert s.node_visits == 1  # region inclusion certified at the root
    assert type(tree._right) is list and type(tree._left) is list


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
    # a leaf is scanned from its last vector: (2, 0, 1) dominates the query,
    # so (0, 2, 1) is not tested
    tree = build_kdtree(Antichain([(2, 0, 1), (0, 2, 1)]))
    s = Stats()
    assert member_kdtree(tree, (1, 0, 1), s) is True
    assert (s.comparisons, s.node_visits) == (3, 1)
    # (10, 7, 1), the second vector of the right-most leaf, dominates the
    # query, so the search neither tests that leaf's first three vectors
    # nor its sibling leaf, nor splits the root's pending left half
    tree = build_kdtree(Antichain([(i, 17 - i, 1) for i in range(18)]))
    s = Stats()
    assert member_kdtree(tree, (10, 0, 1), s) is True
    assert (s.comparisons, s.node_visits) == (10, 4)
    assert type(tree._left) is list and len(tree._left) == 9


def test_leaf_size_boundary(monkeypatch):
    # around the leaf size 8: the verdict is the list backend's, no list of
    # 8 or fewer vectors is split, and a query counts the splits it visits
    # plus the leaf vectors it tests, with the comparisons of the search's
    # definition
    sizes = []
    split = kdtree._split

    def counting_split(vectors, depth):
        sizes.append(len(vectors))
        return split(vectors, depth)

    monkeypatch.setattr(kdtree, "_split", counting_split)
    rng = random.Random(36)
    for m in (1, 2, 8, 9, 16, 17, 64):
        for trial in range(40):
            if trial % 2:
                # a raw collection of m vectors with duplicates and ties
                k = rng.randint(1, 5)
                pool = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(m // 2 + 1)]
                source = [rng.choice(pool) for _ in range(m)]
                vectors = source
            else:
                # an antichain of exactly m members: distinct vectors of one
                # component sum, with ties on every coordinate
                k = rng.randint(2, 5)
                points = set()
                while len(points) < m:
                    cuts = sorted(rng.randint(0, m + 3) for _ in range(k - 1))
                    points.add(tuple(b - a for a, b in zip([0] + cuts, cuts + [m + 3])))
                source = Antichain(points, dim=k)
                vectors = list(source.vectors)
                assert len(vectors) == m
            full = build_kdtree(source)
            assert sorted(tree_leaves(full)) == sorted(vectors)
            assert (type(full) is list) == (m <= 8)
            top = max(max(v) for v in vectors) + 1
            queries = [tuple(rng.randint(0, top) for _ in range(k)) for _ in range(10)]
            v = rng.choice(vectors)
            queries += [v, v[:-1] + (v[-1] + 1,), (0,) * k]
            for u in queries:
                tree = build_kdtree(source)
                s = Stats()
                found = member_kdtree(tree, u, s)
                _, comps, splits, tested = _reference_search(full, u)
                assert found == member_list(Antichain(vectors, dim=k), u)
                assert (s.comparisons, s.node_visits) == (comps, splits + tested)
                assert _split_nodes(tree) == splits
    assert sizes and min(sizes) > 8


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
    # tie order: ties keep the order of the node's list.  Leaves of up to 8
    # vectors lowered every count (membership was (856, 6835) comparisons
    # and (227, 1961) visits with one-vector leaves)
    expected = {
        ("membership", "comparisons"): (539, 4887),
        ("membership", "node_visits"): (159, 1660),
        ("union", "comparisons"): (227, 2193),
        ("union", "node_visits"): (80, 771),
        ("intersection", "comparisons"): (983, 6761),
        ("intersection", "node_visits"): (138, 1613),
    }
    for (op, metric), values in expected.items():
        rows = run_bench(BenchSpec(op=op, sizes=(10, 40), k=6, seed=3,
                                   backends=("kdtree",), metric=metric))
        assert tuple(r.value for r in rows) == values, (op, metric)


def test_high_dimension_matches_list_backend():
    # the search is one loop with an explicit stack, and a leaf is scanned
    # on the query's positive components, so a dimension of 2000 is no
    # deeper than any other
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
