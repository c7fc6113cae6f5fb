import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from downset import BACKEND_NAMES, Antichain, Stats, get_backend, intersect_list, union_list
from downset.cst import (
    build_cst,
    is_simulation_minimal,
    maximal_elements,
    member_cst,
    simulates,
    union_cst,
)
from downset.sharingtree import STNode, iter_vectors
from util import (
    brute_member,
    pair_family,
    rand_antichain,
    reference_union_cst,
)


def test_simulates_leaves():
    l1 = STNode(2, 1, ())
    l2 = STNode(2, 2, ())
    assert simulates(l1, l2) is True
    assert simulates(l2, l1) is False
    with pytest.raises(ValueError):
        simulates(l1, STNode(1, 3, ()))


def test_simulates_one_step():
    a = STNode(1, 1, (STNode(2, 0, ()),))
    b = STNode(1, 1, (STNode(2, 1, ()),))
    assert simulates(a, b) is True
    assert simulates(b, a) is False


def test_build_drops_dominated_branch():
    # the dominated vector goes when the antichain is formed
    tree = build_cst(Antichain([(1, 1), (1, 0)]))
    assert sorted(iter_vectors(tree)) == [(1, 1)]
    assert is_simulation_minimal(tree)


def test_build_keeps_distinct_valued_antichain():
    # members are pairwise incomparable, so the built DAG needs no pruning
    a = Antichain([(0, 3), (1, 2), (2, 1), (3, 0)])
    tree = build_cst(a)
    assert sorted(iter_vectors(tree)) == list(a.vectors)
    assert is_simulation_minimal(tree)


def test_build_singleton_path():
    tree = build_cst(Antichain([(1, 1)]))
    assert tree.node_count == 3
    assert list(iter_vectors(tree)) == [(1, 1)]


def test_build_never_invents_vectors():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(1, 5)
        vecs = [tuple(rng.randint(0, 5) for _ in range(k))
                for _ in range(rng.randint(1, 15))]
        a = Antichain(vecs, dim=k)
        tree = build_cst(a)
        lang = set(iter_vectors(tree))
        assert sorted(lang) == list(a.vectors)
        assert lang <= set(vecs)
        assert len(lang) <= len(set(vecs))
        assert is_simulation_minimal(tree)
        # closure preserved
        for u in itertools.product(range(7), repeat=k) if k <= 3 else ():
            assert member_cst(tree, u) == brute_member(vecs, u)


def test_member_examples():
    tree = build_cst(Antichain([(2, 0), (0, 2)]))
    assert member_cst(tree, (0, 0)) is True
    assert member_cst(tree, (1, 1)) is False
    assert member_cst(tree, (3, 3)) is False


def test_union_closure_examples():
    s = build_cst(Antichain([(2, 0)]))
    t = build_cst(Antichain([(0, 2)]))
    u = union_cst(s, t)
    assert maximal_elements(u) == Antichain([(2, 0), (0, 2)])
    assert is_simulation_minimal(u)
    same = union_cst(s, s)
    assert maximal_elements(same) == Antichain([(2, 0)])
    dominated = union_cst(build_cst(Antichain([(1, 1)])), build_cst(Antichain([(2, 2)])))
    assert maximal_elements(dominated) == Antichain([(2, 2)])


def test_intersect_closure_examples():
    # intersection goes through the index, which yields an antichain, not a tree
    intersect = get_backend("cst").intersect
    s, t = Antichain([(2, 0), (0, 2)]), Antichain([(1, 1)])
    assert intersect(s, t) == Antichain([(1, 0), (0, 1)])
    assert intersect(s, s) == s
    assert intersect(Antichain([(1, 0)]), Antichain([(0, 1)])) == Antichain([(0, 0)])


def test_intersection_counts_what_the_sharing_tree_counts():
    # cst intersection is core.intersect over the same build and search as
    # the sharing tree, so it returns the same antichain and counts the same
    # comparisons and node visits
    cst, st = get_backend("cst"), get_backend("sharingtree")
    rng = random.Random(107)
    visited = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        maxval = rng.randint(1, 8)
        a = rand_antichain(rng, k, rng.randint(1, 30), maxval)
        b = rand_antichain(rng, k, rng.randint(1, 30), maxval)
        got, want = Stats(), Stats()
        assert cst.intersect(a, b, got) == st.intersect(a, b, want) == intersect_list(a, b)
        assert (got.comparisons, got.node_visits) == (want.comparisons, want.node_visits)
        visited += got.node_visits
    assert visited > 0


def test_setops_count_simulation_checks():
    # merging the roots puts (2, .) and (1, .) side by side: one sibling check
    s = Stats()
    union_cst(build_cst(Antichain([(1, 1)])), build_cst(Antichain([(2, 2)])), s)
    assert s.comparisons > 0


def test_empty_operand_conventions():
    empty = build_cst(Antichain((), dim=2))
    s = build_cst(Antichain([(1, 1)]))
    assert empty.empty
    assert member_cst(empty, (0, 0)) is False
    u = union_cst(empty, s)
    assert maximal_elements(u) == Antichain([(1, 1)])


def test_closure_correctness_randomized_boxes():
    rng = random.Random(71)
    for _ in range(120):
        k = rng.randint(1, 4)
        maxval = rng.randint(1, 5)
        a = rand_antichain(rng, k, rng.randint(1, 12), maxval)
        b = rand_antichain(rng, k, rng.randint(1, 12), maxval)
        ca = build_cst(a)
        cb = build_cst(b)
        cu = union_cst(ca, cb)
        assert is_simulation_minimal(cu)
        ul = union_list(a, b)
        assert maximal_elements(cu) == ul
        for p in itertools.product(range(maxval + 2), repeat=k):
            assert member_cst(cu, p) == brute_member(ul.vectors, p)


def _layer_sizes(tree):
    """Distinct reachable nodes per layer."""
    layer_of = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if id(node) not in layer_of:
            layer_of[id(node)] = node.layer
            stack.extend(node.succs)
    counts = Counter(layer_of.values())
    return [counts[layer] for layer in sorted(counts)]


def test_setops_share_nodes_on_pair_family():
    # the pair family's DAG at n=7 has 29 nodes (a root and two per layer)
    # but 2^7 paths; merges are made once per pair of same-layer nodes, so
    # the result stays shared instead of unfolding into a 509-node trie
    fam = pair_family(7)
    tree = build_cst(fam)
    sizes = _layer_sizes(tree)
    assert sum(sizes) == 29
    pairs = sum(n * n for n in sizes)
    merged = union_cst(tree, tree)
    assert sum(_layer_sizes(merged)) <= pairs
    assert maximal_elements(merged) == union_list(fam, fam)


def _reachable(tree):
    """Distinct nodes reachable from the root."""
    return sum(_layer_sizes(tree))


def _agrees_with_reference(s, t):
    got, want = union_cst(s, t), reference_union_cst(s, t)
    assert maximal_elements(got) == maximal_elements(want)
    assert is_simulation_minimal(got)
    assert got.node_count == _reachable(got) <= _reachable(want)


def test_setops_agree_with_the_recursive_reference():
    # the union's layer sweeps keep the reference's maximal elements, stay
    # simulation-minimal, and make no more nodes than the reference does
    rng = random.Random(101)
    for _ in range(3000):
        k = rng.randint(1, 6)
        maxval = rng.randint(1, 8)
        a, b = (Antichain([tuple(rng.randint(0, maxval) for _ in range(k))
                           for _ in range(rng.randint(1, 40))], dim=k) for _ in "ab")
        _agrees_with_reference(build_cst(a), build_cst(b))
    for k in (64, 65):  # the deepest trees packed, and the shallowest swept alone
        for _ in range(20):
            a, b = (Antichain([tuple(rng.randint(0, 3) for _ in range(k))
                               for _ in range(rng.randint(1, 8))], dim=k) for _ in "ab")
            _agrees_with_reference(build_cst(a), build_cst(b))
    fam = build_cst(pair_family(7))
    _agrees_with_reference(fam, fam)
    _agrees_with_reference(fam, build_cst(pair_family(7)))


def test_setops_with_values_beyond_the_packed_field():
    # ceilings and leads pack 15-bit values and clamp larger ones; the
    # clamped tests must still never refute or confirm a pair wrongly
    rng = random.Random(103)
    for base in (32760, 10 ** 12):
        for _ in range(100):
            k = rng.randint(1, 5)
            a, b = (Antichain([tuple(base + rng.randint(0, 12) for _ in range(k))
                               for _ in range(rng.randint(1, 25))], dim=k) for _ in "ab")
            _agrees_with_reference(build_cst(a), build_cst(b))


def test_setops_and_checks_at_dimension_2000():
    # one layer per coordinate and nothing recursive: at k=2000 a walk that
    # recursed once per layer would exceed the interpreter's stack
    k = 2000
    low = Antichain([(1,) * (k - 2) + (2, 0)])
    high = Antichain([(1,) * (k - 2) + (0, 2)])
    s, t = build_cst(low), build_cst(high)
    top = build_cst(Antichain([(1,) * (k - 2) + (2, 2)]))
    assert simulates(s.root, top.root) and simulates(t.root, top.root)
    assert not simulates(s.root, t.root) and not simulates(t.root, s.root)
    u = union_cst(s, t)
    assert maximal_elements(u) == union_list(low, high)
    for tree in (s, u):
        assert is_simulation_minimal(tree)
    assert u.node_count == k + 3  # the shared prefix, then two branches
    inside, outside = (1,) * (k - 2) + (0, 1), (1,) * (k - 2) + (1, 1)
    for name in BACKEND_NAMES:
        ops = get_backend(name)
        assert ops.union(low, high) == union_list(low, high), name
        assert ops.intersect(low, high) == intersect_list(low, high), name
        assert ops.member(high, inside) is True and ops.member(low, outside) is False, name


def test_setops_at_dimension_2000_on_sets_that_branch_at_the_root():
    # two vectors per operand that differ in their first component, so the
    # trees branch at the root: the union merges two whole paths, and
    # sibling checks sweep down to the last layers; no node may cost memory
    # per layer below it
    k = 2000
    a = Antichain([(3,) + (1,) * (k - 3) + (2, 0), (1,) + (2,) * (k - 3) + (0, 2)])
    b = Antichain([(2,) + (1,) * (k - 3) + (0, 2), (0,) + (2,) * (k - 3) + (2, 0)])
    s, t = build_cst(a), build_cst(b)
    assert not simulates(s.root.succs[1], s.root.succs[0])
    tracemalloc.start()
    try:
        u = union_cst(s, t)
        for tree in (s, t, u):
            assert is_simulation_minimal(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert maximal_elements(u) == union_list(a, b)
    assert u.node_count <= s.node_count + t.node_count
