import random

import pytest

from downset import Antichain, DimensionMismatch, Stats, get_backend, member_list, union_list, intersect_list
from downset.bench import BenchSpec, run_bench
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
CST = get_backend("cst")


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


def words(nodes):
    """The number of words in each node's language."""
    count = {}
    for n in sorted(nodes, key=lambda n: -n.layer):
        count[n] = 1 if n.tail is not None else sum(count[s] for s in n.succs)
    return count


def check_structure(tree):
    """The well-formedness conditions of the chain-compressed layered DAG."""
    nodes = all_nodes(tree)
    by_layer = {}
    for n in nodes:
        by_layer.setdefault(n.layer, []).append(n)
    assert tree.root.value is TOP and tree.root.tail is None
    count = words(nodes)
    for n in nodes:
        if n.tail is not None:
            # a chain node: one word, no successors, its tail reaching the last layer
            assert n.succs == () and 0 < n.layer <= tree.dim
            assert n.layer + len(n.tail) == tree.dim
            continue
        # a branch node: successors one layer down, strictly decreasing values
        values = [s.value for s in n.succs]
        assert values == sorted(set(values), reverse=True)
        assert all(s.layer == n.layer + 1 for s in n.succs)
        assert n.layer < tree.dim
        # compression is complete: below the root, a one-word node is a chain
        assert n is tree.root or count[n] >= 2
    # minimality: at each layer no two chain nodes share (value, tail) and no
    # two branch nodes share (value, successor identities)
    for layer, ns in by_layer.items():
        chains = [(n.value, n.tail) for n in ns if n.tail is not None]
        branches = [(n.value, tuple(id(s) for s in n.succs)) for n in ns if n.tail is None]
        assert len(set(chains)) == len(chains)
        assert len(set(branches)) == len(branches)
    assert tree.node_count == len(nodes)
    assert tree.edge_count == sum(len(n.succs) for n in nodes)


def labels(tree):
    return to_dot(tree).count("label=")


def test_build_two_path_example():
    tree = build_sharingtree(Antichain([(0, 1), (1, 0)]))
    assert tree.node_count == 3  # root and two chains, one per member
    assert labels(tree) == 5  # drawn: root, two layer-1 nodes, two shared leaves
    check_structure(tree)
    assert sorted(iter_vectors(tree)) == [(0, 1), (1, 0)]


def test_build_singleton_path():
    tree = build_sharingtree(Antichain([(3, 3)]))
    assert tree.node_count == 2  # root and one chain
    assert labels(tree) == 3
    check_structure(tree)
    assert list(iter_vectors(tree)) == [(3, 3)]


def test_build_empty_is_flagged():
    tree = build_sharingtree(Antichain((), dim=2))
    assert not tree.root.succs
    assert member_st(tree, (0, 0)) is False


def test_pair_family_node_counts():
    for n in range(1, 9):
        fam = pair_family(n)
        tree = build_sharingtree(fam)
        assert len(fam) == 2 ** n
        # the root, two branch nodes on each of layers 1..2n-2, and two chains
        # of the last block on layer 2n-1, shared by both paths into it
        assert tree.node_count == 4 * n - 1
        assert labels(tree) == 4 * n + 1
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
        # two root edges, then six per block but the last, whose nodes are chains
        assert tree.edge_count == reachable_edges(tree) == 6 * n - 4
        assert to_dot(tree).count("->") == 6 * n - 2


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
    assert tree.node_count == 4  # the root and three chains from layer 1
    assert tree.edge_count == 3
    check_structure(tree)
    # nor in the searches, the iterator, the DOT dump or the set operations
    cst_tree = build_cst(a)
    v = a.vectors[0]
    for u in (v, v[:-1] + (0,), (1,) * k, (3,) + v[1:]):
        assert member_st(tree, u) is member_cst(cst_tree, u) is member_list(a, u), u
    assert sorted(iter_vectors(tree)) == list(a.vectors)
    dot = to_dot(tree)
    assert dot.count("label=") == 3 * k + 1 and dot.count("->") == 3 * k
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
            nodes = all_nodes(tree)
            number = {n: i for i, n in enumerate(nodes)}
            return [(n.layer, n.value, n.tail, tuple(number[s] for s in n.succs)) for n in nodes]

        assert shape(t1) == shape(t2)


def test_dot_dump_mentions_layers_and_values():
    tree = build_sharingtree(Antichain([(0, 1), (1, 0)]))
    dot = to_dot(tree)
    assert dot.startswith("digraph")
    assert 'label="0:T"' in dot
    assert 'label="1:1"' in dot and 'label="2:0"' in dot


def uncompressed_size(a):
    """Nodes and edges of the minimal layered DAG with one node per layer on
    every path, from the members alone: a node is its layer, its value and
    the suffixes read below it."""
    below = {}
    for v in a.vectors:
        for j in range(1, a.dim + 1):
            below.setdefault(v[:j], set()).add(v[j:])
    node = {p: (len(p), p[-1], frozenset(suffixes)) for p, suffixes in below.items()}
    edges = {(node[v[:j]], node[v[:j + 1]]) for v in a.vectors for j in range(1, a.dim)}
    edges |= {(None, node[v[:1]]) for v in a.vectors}
    return 1 + len(set(node.values())), len(edges)


def test_dot_dump_draws_the_uncompressed_dag():
    # chains are drawn one node per layer and shared suffixes once, so the
    # dump has the nodes and edges of the DAG without chain nodes
    rng = random.Random(43)
    cases = [pair_family(n) for n in range(1, 6)]
    cases += [rand_antichain(rng, k, rng.randint(1, 30), rng.randint(1, 4))
              for k in (1, 2, 3, 5, 8) for _ in range(12)]
    cases.append(Antichain([(0, 9, 5, 7), (1, 8, 5, 7), (2, 7, 5, 7)]))  # three chains, one suffix
    for a in cases:
        dot = to_dot(build_sharingtree(a))
        assert (dot.count("label="), dot.count("->")) == uncompressed_size(a), a


def _sum_preserving(base, positions):
    """``base`` and its moves of one unit between two of ``positions``: equal
    sums, so an antichain whose members share long prefixes."""
    out = [base]
    for i in positions:
        for j in positions:
            if i != j and base[j] > 0:
                v = list(base)
                v[i] += 1
                v[j] -= 1
                out.append(tuple(v))
    return out


@pytest.mark.parametrize("k", [1, 2, 8, 64, 256, 1000])
def test_chain_boundaries_match_list_oracle(k):
    # a member's chain starts one layer below the longer prefix it shares
    # with either neighbour; a chain started below the next member's prefix
    # alone loses members, so check sets whose members share all but their
    # last components, or long prefixes with both neighbours
    rng = random.Random(k)
    base = tuple(rng.randint(1, 3) for _ in range(k))
    sets = [
        Antichain((), dim=k),
        Antichain([base]),
        Antichain([base, base[:-1] + (base[-1] + 2,)]),  # differ in the last component only
        Antichain(_sum_preserving(base, range(max(0, k - 3), k))),  # share all but the last 2-3
        Antichain(_sum_preserving(base, sorted({0, k // 3, k // 2, k - 1}))),
        rand_antichain(rng, k, 6, 3),
    ]
    if k >= 3:
        p = base[:k - 3]  # the middle member shares k-3 and k-2 components
        sets.append(Antichain([p + (0, 2, 2), p + (1, 0, 3), p + (1, 1, 0)]))
    for s in sets:
        queries = [tuple(rng.randint(0, 4) for _ in range(k)) for _ in range(4)]
        for v in s.vectors:
            queries += [v, v[:-1] + (v[-1] + 1,), v[:-1] + (max(v[-1] - 1, 0),),
                        (v[0] + 1,) + v[1:], v[:k // 2] + (v[k // 2] + 1,) + v[k // 2 + 1:]]
        for u in queries:
            expect = member_list(s, u)
            assert ST.member(s, u) is CST.member(s, u) is expect, (k, s, u)
        for t in sets:
            for ops in (ST, CST):
                assert ops.union(s, t) == union_list(s, t), (k, ops.name, s, t)
                assert ops.intersect(s, t) == intersect_list(s, t), (k, ops.name, s, t)


def test_sharing_tree_counts_are_pinned():
    # counts of the sharing-tree backend on seeded bench rows (k=6, t=10 and
    # 40), as for the k-d tree; cst builds and searches the same trees
    expected = {
        ("membership", "comparisons"): (380, 4649),
        ("membership", "node_visits"): (139, 1771),
        ("union", "comparisons"): (153, 2109),
        ("union", "node_visits"): (60, 846),
        ("intersection", "comparisons"): (866, 6415),
        ("intersection", "node_visits"): (127, 1635),
    }
    for (op, metric), values in expected.items():
        rows = run_bench(BenchSpec(op=op, sizes=(10, 40), k=6, seed=3,
                                   backends=("sharingtree", "cst"), metric=metric))
        by_backend = {b: tuple(r.value for r in rows if r.backend == b) for b in ("sharingtree", "cst")}
        assert by_backend == {"sharingtree": values, "cst": values}, (op, metric)
