import random

import pytest

from downset import Antichain, DimensionMismatch, Stats, get_backend, member_list, union_list, intersect_list
from downset.sharingtree import (
    TOP,
    build_sharingtree,
    compress,
    decompress,
    iter_vectors,
    member_st,
    strict_member_st,
    to_dot,
)
from util import pair_family, rand_antichain

ST = get_backend("sharingtree")


def all_nodes(tree):
    seen = {}
    stack = [tree.root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen[id(n)] = n
        stack.extend(n.succs)
    return list(seen.values())


def check_structure(tree):
    """The layered-DAG well-formedness conditions."""
    nodes = all_nodes(tree)
    by_layer = {}
    for n in nodes:
        by_layer.setdefault(n.layer, []).append(n)
    assert tree.root.value is TOP
    for n in nodes:
        values = [s.value for s in n.succs]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        for s in n.succs:
            assert s.layer == n.layer + 1
        if n.layer == tree.dim:
            assert not n.succs
        elif n is not tree.root or n.layer > 0:
            if 0 < n.layer < tree.dim:
                assert n.succs
    # minimality: same-layer nodes never share (value, successor identity)
    for layer, ns in by_layer.items():
        keys = {(n.value, tuple(id(s) for s in n.succs)) for n in ns}
        assert len(keys) == len(ns)
    assert tree.node_count == len(nodes)


def test_build_two_path_example():
    tree = build_sharingtree(Antichain([(0, 1), (1, 0)]))
    assert tree.node_count == 5  # root, two layer-1 nodes, two shared leaves
    check_structure(tree)
    assert sorted(iter_vectors(tree)) == [(0, 1), (1, 0)]


def test_build_singleton_path():
    tree = build_sharingtree(Antichain([(3, 3)]))
    assert tree.node_count == 3
    assert list(iter_vectors(tree)) == [(3, 3)]


def test_build_empty_is_flagged():
    tree = build_sharingtree(Antichain((), dim=2))
    assert tree.empty
    assert member_st(tree, (0, 0)) is False
    assert strict_member_st(tree, (0, 0)) is False


def test_pair_family_node_counts():
    for n in range(1, 9):
        fam = pair_family(n)
        tree = build_sharingtree(fam)
        assert len(fam) == 2 ** n
        assert tree.node_count == 4 * n + 1
        check_structure(tree)


def test_node_count_bound_and_language_exactness():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 9))
        tree = build_sharingtree(a)
        assert tree.node_count <= k * len(a) + 1
        assert sorted(iter_vectors(tree)) == list(a.vectors)
        check_structure(tree)


def test_member_examples():
    a = Antichain([(2, 0), (0, 2)])
    tree = build_sharingtree(a)
    assert member_st(tree, (1, 0)) is True
    assert member_st(tree, (1, 1)) is False
    with pytest.raises(DimensionMismatch):
        member_st(tree, (1,))


def test_member_early_exit_at_first_layer():
    tree = build_sharingtree(Antichain([(2, 0), (0, 2)]))
    s = Stats()
    assert member_st(tree, (3, 0), s) is False
    assert s.node_visits == 1  # largest first-layer value 2 < 3


def test_strict_member_examples():
    assert strict_member_st(build_sharingtree(Antichain([(1, 1)])), (1, 1)) is False
    assert strict_member_st(build_sharingtree(Antichain([(2, 1)])), (1, 1)) is True
    tree = build_sharingtree(Antichain([(2, 0), (0, 2)]))
    assert strict_member_st(tree, (0, 1)) is True


def test_member_matches_list_oracle_randomized():
    rng = random.Random(19)
    for _ in range(120):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 8))
        tree = build_sharingtree(a)
        for _ in range(30):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            assert member_st(tree, u) == member_list(a, u)
            strict = any(all(x <= y for x, y in zip(u, v)) and u != v for v in a.vectors)
            assert strict_member_st(tree, u) == strict


def test_compress_examples():
    c, table = compress(Antichain([(10, 500), (20, 300)]))
    assert c.vectors == ((0, 1), (1, 0))
    already = Antichain([(0, 1), (1, 0)])
    c2, table2 = compress(already)
    assert c2 == already
    assert decompress(c, table) == Antichain([(10, 500), (20, 300)])


def test_compressed_tree_queries_translate_raw_values():
    a = Antichain([(10, 500), (20, 300)])
    tree = build_sharingtree(a)  # max norm 500 > 2 vectors: compressed
    assert tree.table is not None
    for u, expect in [((10, 500), True), ((15, 400), False), ((15, 300), True),
                      ((21, 0), False), ((0, 0), True), ((20, 300), True),
                      ((10, 501), False)]:
        assert member_st(tree, u) == expect, u
    assert sorted(iter_vectors(tree)) == list(a.vectors)


def test_union_intersect_match_list_backend():
    rng = random.Random(37)
    for _ in range(150):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 25), rng.randint(1, 8))
        b = rand_antichain(rng, k, rng.randint(1, 25), rng.randint(1, 8))
        assert ST.union(a, b) == union_list(a, b)
        assert ST.intersect(a, b) == intersect_list(a, b)


def test_union_examples_and_empty():
    a = Antichain([(2, 0), (0, 2)])
    b = Antichain([(1, 1)])
    empty = Antichain((), dim=2)
    assert ST.union(a, b).vectors == ((0, 2), (1, 1), (2, 0))
    assert ST.union(empty, b) == b
    assert ST.union(a, empty) == a
    assert ST.intersect(a, b).vectors == ((0, 1), (1, 0))
    assert ST.intersect(a, empty) == empty


def test_build_at_high_dimension():
    k = 2000
    a = Antichain([tuple((i + j) % 3 for j in range(k)) for i in range(3)])
    tree = build_sharingtree(a)  # no per-coordinate recursion
    assert tree.node_count == 3 * k + 1
    assert tree.edge_count == 3 * k


def test_build_is_deterministic():
    rng = random.Random(41)
    for _ in range(20):
        k = rng.randint(1, 5)
        a = rand_antichain(rng, k, rng.randint(1, 20), 9)
        t1 = build_sharingtree(a)
        t2 = build_sharingtree(a)

        def shape(tree):
            return sorted((n.layer, n.value, n.uid, tuple(s.uid for s in n.succs))
                          for n in all_nodes(tree))

        assert shape(t1) == shape(t2)


def test_dot_dump_mentions_layers_and_values():
    tree = build_sharingtree(Antichain([(0, 1), (1, 0)]))
    dot = to_dot(tree)
    assert dot.startswith("digraph")
    assert 'label="0:T"' in dot
    assert 'label="1:1"' in dot and 'label="2:0"' in dot
