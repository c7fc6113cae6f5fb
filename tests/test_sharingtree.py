import random

import pytest

from downset import Antichain, DimensionMismatch, Stats, get_backend, member_list, union_list, intersect_list
from downset.sharingtree import (
    TOP,
    build_sharingtree,
    iter_vectors,
    member_st,
    to_dot,
)
from downset.cst import build_cst, member_cst
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


def test_pair_family_node_counts():
    for n in range(1, 9):
        fam = pair_family(n)
        tree = build_sharingtree(fam)
        assert len(fam) == 2 ** n
        assert tree.node_count == 4 * n + 1
        check_structure(tree)


@pytest.mark.parametrize("build, search", [
    (build_sharingtree, member_st),
    (build_cst, member_cst),
], ids=["member_st", "member_cst"])
def test_failure_memo_bounds_visits_on_pair_family(build, search):
    # a search that re-entered shared subtrees would make about 3 * 2^n visits;
    # the layer sweep expands each node at most once
    def visits(tree, u, expect=None):
        s = Stats()
        verdict = search(tree, u, s)
        if expect is not None:
            assert verdict is expect, u
        assert s.node_visits <= tree.node_count, f"{u}: {s.node_visits} visits"
        return s.node_visits

    for n in range(8, 13):
        fam = pair_family(n)
        tree = build(fam)
        assert visits(tree, (0,) * (2 * n - 1) + (2,), False) <= 2 * tree.node_count, f"n={n}"
        v = fam.vectors[len(fam) // 3]
        visits(tree, v)
        visits(tree, tuple(0 if j % 3 else x for j, x in enumerate(v)), True)
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(1, 7)
        a = rand_antichain(rng, k, rng.randint(1, 40), rng.randint(1, 6))
        tree = build(a)
        for _ in range(20):
            visits(tree, tuple(rng.randint(0, 6) for _ in range(k)))
        for v in a.vectors[:5]:
            visits(tree, v)
            u = tuple(x if rng.random() < 0.5 else 0 for x in v)
            visits(tree, u, True)


def test_node_count_bound_and_language_exactness():
    rng = random.Random(13)
    for _ in range(60):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 9))
        tree = build_sharingtree(a)
        assert tree.node_count <= k * len(a) + 1
        assert sorted(iter_vectors(tree)) == list(a.vectors)
        check_structure(tree)


def test_edge_count_equals_reachable_edges():
    def reachable_edges(tree):
        return sum(len(n.succs) for n in all_nodes(tree))

    rng = random.Random(29)
    for _ in range(60):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 9))
        tree = build_sharingtree(a)
        assert tree.edge_count == reachable_edges(tree)
    assert build_sharingtree(Antichain((), dim=3)).edge_count == 0
    for n in range(1, 9):
        tree = build_sharingtree(pair_family(n))
        assert tree.edge_count == reachable_edges(tree) == 6 * n - 2


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


def test_member_matches_list_oracle_randomized():
    rng = random.Random(19)
    for _ in range(120):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 8))
        tree = build_sharingtree(a)
        for _ in range(30):
            u = tuple(rng.randint(0, 9) for _ in range(k))
            assert member_st(tree, u) == member_list(a, u)


def test_compressed_tree_queries_translate_raw_values():
    a = Antichain([(10, 500), (20, 300)])
    tree = build_sharingtree(a)
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
    # nor in the searches, the iterator, the DOT dump or the set operations
    cst_tree = build_cst(a)
    v = a.vectors[0]
    for u in (v, v[:-1] + (0,), (1,) * k, (3,) + v[1:]):
        assert member_st(tree, u) is member_cst(cst_tree, u) is member_list(a, u), u
    assert sorted(iter_vectors(tree)) == list(a.vectors)
    assert to_dot(tree).count("label=") == tree.node_count
    b = Antichain([(1,) * k])
    assert ST.union(a, b) == union_list(a, b)
    assert ST.intersect(a, b) == intersect_list(a, b)


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
