import itertools
import random
import tracemalloc
from collections import Counter

from downset import BACKEND_NAMES, Antichain, Stats, get_backend, intersect_list, member_list, union_list
from downset.cst import build_cst, member_cst
from downset.sharingtree import iter_vectors, to_dot
from util import (
    brute_member,
    pair_family,
    rand_antichain,
)

CST = get_backend("cst")


def test_build_drops_dominated_branch():
    # the dominated vector goes when the antichain is formed
    tree = build_cst(Antichain([(1, 1), (1, 0)]))
    assert sorted(iter_vectors(tree)) == [(1, 1)]


def test_build_keeps_distinct_valued_antichain():
    # members are pairwise incomparable, so the built DAG needs no pruning
    a = Antichain([(0, 3), (1, 2), (2, 1), (3, 0)])
    tree = build_cst(a)
    assert sorted(iter_vectors(tree)) == list(a.vectors)


def test_build_singleton_path():
    tree = build_cst(Antichain([(1, 1)]))
    assert tree.node_count == 2  # the root and one chain
    assert to_dot(tree).count("label=") == 3
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
        # closure preserved
        for u in itertools.product(range(7), repeat=k) if k <= 3 else ():
            assert member_cst(tree, u) == brute_member(vecs, u)


def test_member_examples():
    tree = build_cst(Antichain([(2, 0), (0, 2)]))
    assert member_cst(tree, (0, 0)) is True
    assert member_cst(tree, (1, 1)) is False
    assert member_cst(tree, (3, 3)) is False


def test_union_closure_examples():
    s, t = Antichain([(2, 0)]), Antichain([(0, 2)])
    assert CST.union(s, t) == Antichain([(2, 0), (0, 2)])
    assert CST.union(s, s) == s
    assert CST.union(Antichain([(1, 1)]), Antichain([(2, 2)])) == Antichain([(2, 2)])


def test_intersect_closure_examples():
    s, t = Antichain([(2, 0), (0, 2)]), Antichain([(1, 1)])
    assert CST.intersect(s, t) == Antichain([(1, 0), (0, 1)])
    assert CST.intersect(s, s) == s
    assert CST.intersect(Antichain([(1, 0)]), Antichain([(0, 1)])) == Antichain([(0, 0)])


def test_intersection_counts_what_the_sharing_tree_counts():
    # cst intersection is core.intersect over the same build and search as
    # the sharing tree, so it returns the same antichain and counts the same
    # comparisons and node visits
    st = get_backend("sharingtree")
    rng = random.Random(107)
    visited = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        maxval = rng.randint(1, 8)
        a = rand_antichain(rng, k, rng.randint(1, 30), maxval)
        b = rand_antichain(rng, k, rng.randint(1, 30), maxval)
        got, want = Stats(), Stats()
        assert CST.intersect(a, b, got) == st.intersect(a, b, want) == intersect_list(a, b)
        assert (got.comparisons, got.node_visits) == (want.comparisons, want.node_visits)
        visited += got.node_visits
    assert visited > 0


def test_cst_is_the_sharing_tree_index():
    # member, union and intersect on cst run core's operations over the
    # sharing tree's build and search: the same results and the same counts
    # as the sharing tree, and the list oracle's results, empty operands too
    st = get_backend("sharingtree")
    rng = random.Random(109)
    for k in (2, 8, 64, 256):
        for m in (0, 1, 5, 20):
            a = rand_antichain(rng, k, m, 4)  # empty for m=0
            b = rand_antichain(rng, k, rng.randint(1, 20), 4)
            for x, y in ((a, b), (b, a), (a, a)):
                for op in ("union", "intersect"):
                    got, want = Stats(), Stats()
                    out = getattr(CST, op)(x, y, got)
                    assert out == getattr(st, op)(x, y, want), (k, m, op)
                    assert out == (union_list if op == "union" else intersect_list)(x, y), (k, m, op)
                    assert (got.comparisons, got.node_visits) == (want.comparisons, want.node_visits)
            queries = [tuple(rng.randint(0, 5) for _ in range(k)) for _ in range(5)]
            for u in queries + [v[:-1] + (0,) for v in b.vectors[:3]]:
                for s in (a, b):
                    got, want = Stats(), Stats()
                    assert CST.member(s, u, got) is st.member(s, u, want) is member_list(s, u)
                    assert (got.comparisons, got.node_visits) == (want.comparisons, want.node_visits)


def test_empty_operand_conventions():
    empty = Antichain((), dim=2)
    s = Antichain([(1, 1)])
    assert not build_cst(empty).root.succs
    assert member_cst(build_cst(empty), (0, 0)) is False
    assert CST.union(empty, s) == CST.union(s, empty) == s
    assert CST.intersect(empty, s) == CST.intersect(s, empty) == empty


def test_closure_correctness_randomized_boxes():
    rng = random.Random(71)
    for _ in range(120):
        k = rng.randint(1, 4)
        maxval = rng.randint(1, 5)
        a = rand_antichain(rng, k, rng.randint(1, 12), maxval)
        b = rand_antichain(rng, k, rng.randint(1, 12), maxval)
        cu = CST.union(a, b)
        assert cu == union_list(a, b)
        for p in itertools.product(range(maxval + 2), repeat=k):
            assert CST.member(cu, p) == brute_member(a.vectors + b.vectors, p)


def _layer_sizes(tree):
    """Distinct reachable nodes per layer, a chain node on its first layer."""
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
    # the pair family's DAG at n=7 has 27 nodes (a root, two per layer, and
    # two chains for the last block; 29 drawn uncompressed) but 2^7 paths;
    # the union of the family with itself is the family, and its tree stays
    # shared instead of unfolding into a 509-node trie
    fam = pair_family(7)
    merged = CST.union(fam, fam)
    assert merged == union_list(fam, fam) == fam
    tree = build_cst(merged)
    assert sum(_layer_sizes(tree)) == tree.node_count == 27
    assert to_dot(tree).count("label=") == 29


def test_setops_and_checks_at_dimension_2000():
    # one layer per coordinate and nothing recursive: at k=2000 a walk that
    # recursed once per layer would exceed the interpreter's stack
    k = 2000
    low = Antichain([(1,) * (k - 2) + (2, 0)])
    high = Antichain([(1,) * (k - 2) + (0, 2)])
    u = CST.union(low, high)
    assert u == union_list(low, high)
    # the root, the shared prefix, then two chains; k + 3 nodes drawn uncompressed
    assert build_cst(u).node_count == k + 1
    assert to_dot(build_cst(u)).count("label=") == k + 3
    inside, outside = (1,) * (k - 2) + (0, 1), (1,) * (k - 2) + (1, 1)
    for name in BACKEND_NAMES:
        ops = get_backend(name)
        assert ops.union(low, high) == union_list(low, high), name
        assert ops.intersect(low, high) == intersect_list(low, high), name
        assert ops.member(high, inside) is True and ops.member(low, outside) is False, name


def test_setops_at_dimension_2000_on_sets_that_branch_at_the_root():
    # two vectors per operand that differ in their first component, so the
    # trees branch at the root: the searches of the union sweep whole paths
    # down to the last layers; no node may cost memory per layer below it
    k = 2000
    a = Antichain([(3,) + (1,) * (k - 3) + (2, 0), (1,) + (2,) * (k - 3) + (0, 2)])
    b = Antichain([(2,) + (1,) * (k - 3) + (0, 2), (0,) + (2,) * (k - 3) + (2, 0)])
    tracemalloc.start()
    try:
        u = CST.union(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert u == union_list(a, b)
    assert build_cst(u).node_count <= build_cst(a).node_count + build_cst(b).node_count
