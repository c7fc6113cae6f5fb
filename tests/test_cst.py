import itertools
import random
from collections import Counter

import pytest

from downset import Antichain, Stats, intersect_list, union_list
from downset.cst import (
    build_cst,
    intersect_cst,
    is_simulation_minimal,
    maximal_elements,
    member_cst,
    simulates,
    union_cst,
)
from downset.sharingtree import STNode, iter_vectors
from util import brute_member, pair_family, rand_antichain


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
    s = build_cst(Antichain([(2, 0), (0, 2)]))
    t = build_cst(Antichain([(1, 1)]))
    w = intersect_cst(s, t)
    assert maximal_elements(w) == Antichain([(1, 0), (0, 1)])
    assert is_simulation_minimal(w)
    same = intersect_cst(s, s)
    assert maximal_elements(same) == Antichain([(2, 0), (0, 2)])
    disjoint = intersect_cst(build_cst(Antichain([(1, 0)])), build_cst(Antichain([(0, 1)])))
    assert maximal_elements(disjoint) == Antichain([(0, 0)])


def test_setops_count_simulation_checks():
    # merging the roots puts (2, .) and (1, .) side by side: one sibling check
    s = Stats()
    union_cst(build_cst(Antichain([(1, 1)])), build_cst(Antichain([(2, 2)])), s)
    assert s.comparisons > 0
    s = Stats()
    intersect_cst(build_cst(Antichain([(2, 0), (0, 2)])), build_cst(Antichain([(1, 1)])), s)
    assert s.comparisons > 0


def test_empty_operand_conventions():
    empty = build_cst(Antichain((), dim=2))
    s = build_cst(Antichain([(1, 1)]))
    assert empty.empty
    assert member_cst(empty, (0, 0)) is False
    u = union_cst(empty, s)
    assert maximal_elements(u) == Antichain([(1, 1)])
    w = intersect_cst(empty, s)
    assert w.empty
    assert list(iter_vectors(w)) == []


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
        ci = intersect_cst(ca, cb)
        assert is_simulation_minimal(cu)
        assert is_simulation_minimal(ci)
        ul = union_list(a, b)
        il = intersect_list(a, b)
        assert maximal_elements(cu) == ul
        assert maximal_elements(ci) == il
        for p in itertools.product(range(maxval + 2), repeat=k):
            assert member_cst(cu, p) == brute_member(ul.vectors, p)
            assert member_cst(ci, p) == brute_member(il.vectors, p)


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
    # but 2^7 paths; products and merges are made once per pair of
    # same-layer nodes, so the results stay shared instead of unfolding
    # into a 509-node trie
    fam = pair_family(7)
    tree = build_cst(fam)
    sizes = _layer_sizes(tree)
    assert sum(sizes) == 29
    pairs = sum(n * n for n in sizes)
    product = intersect_cst(tree, tree)
    assert sum(_layer_sizes(product)) <= pairs
    assert maximal_elements(product) == intersect_list(fam, fam)
    merged = union_cst(tree, tree)
    assert sum(_layer_sizes(merged)) <= pairs
    assert maximal_elements(merged) == union_list(fam, fam)
