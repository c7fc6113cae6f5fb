"""Sharing trees: layered minimal acyclic DAGs encoding vector sets.

A set of k-dimensional vectors, read as words of length k, is a finite
language; its sharing tree is the minimal acyclic deterministic automaton
for that language, laid out in k + 1 layers with the values on the nodes.
Construction builds the trie implicitly and minimizes bottom-up by giving
every subtree a canonical identity (layer, value, successor identities) and
caching on it, so equivalent subtrees are created once.

Successors are kept in strictly decreasing value order, which gives the
membership DFS its early exits: once the largest remaining successor value
drops below the query component, no branch can dominate.

When the largest component exceeds the number of vectors, values are
compressed to their per-dimension ranks before building; rank encoding is
order-isomorphic within each dimension, so domination between stored
vectors is preserved, and queries translate each component with a binary
search over the per-dimension sorted value table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

TOP = None  # root value


class STNode:
    __slots__ = ("layer", "value", "succs", "uid")

    def __init__(self, layer: int, value, succs, uid: int):
        self.layer = layer
        self.value = value
        self.succs = succs  # tuple, strictly decreasing by value
        self.uid = uid

    def __repr__(self) -> str:
        return f"STNode(layer={self.layer}, value={self.value}, uid={self.uid})"


class STree:
    """A built sharing tree plus its bookkeeping.

    ``table`` is None for uncompressed trees; otherwise it holds, per
    dimension, the sorted list of distinct original values, and node values
    are ranks into these lists.
    """

    __slots__ = ("root", "dim", "empty", "node_count", "edge_count", "table")

    def __init__(self, root: STNode, dim: int, empty: bool, node_count: int,
                 edge_count: int, table):
        self.root = root
        self.dim = dim
        self.empty = empty
        self.node_count = node_count
        self.edge_count = edge_count
        self.table = table


def _rank_table(vectors):
    return [sorted(set(column)) for column in zip(*vectors)]


def _rank_encode(vectors, table):
    return [tuple(map(bisect_left, table, v)) for v in vectors]


def compress(ac: Antichain):
    """Rank-encode an antichain per dimension.

    Returns the compressed antichain and the recovery table (per dimension,
    the sorted distinct original values).  Ranks are order-isomorphic within
    each dimension, so all domination relations between stored vectors are
    preserved, and the encoding is invertible through the table.
    """
    if not ac.vectors:
        raise ValueError("cannot compress an empty antichain")
    table = _rank_table(ac.vectors)
    return Antichain._from_maximal(ac.dim, _rank_encode(ac.vectors, table)), table


def decompress(ac: Antichain, table) -> Antichain:
    originals = [tuple(table[i][v[i]] for i in range(ac.dim)) for v in ac.vectors]
    return Antichain._from_maximal(ac.dim, sorted(originals))


def build_sharingtree(ac: Antichain) -> STree:
    """Build the minimal layered DAG for an antichain, rank-compressed when
    the max norm exceeds the member count."""
    dim = ac.dim
    if not ac.vectors:
        root = STNode(0, TOP, (), 0)
        return STree(root, dim, True, 1, 0, None)
    table = None
    vectors = ac.vectors
    if ac.max_norm() > len(vectors):
        # ranks are order-isomorphic per dimension, so the encoding stays sorted
        table = _rank_table(vectors)
        vectors = _rank_encode(vectors, table)
    return _build_tree(vectors, dim, table)


def _build_tree(vectors, dim: int, table) -> STree:
    """Bottom-up build over distinct vectors sorted ascending.

    Reading the vectors in descending order makes siblings arrive in
    decreasing value order.  ``pending[j]`` collects the children of the
    open node at layer ``j``.  Once a vector is read, its nodes below the
    prefix it shares with the next vector are complete: each is hash-consed
    on (layer, value, successors), whose successors are canonical nodes
    already, and appended to its parent's children.
    """
    nodes: dict = {}
    pending: list = [[] for _ in range(dim)]
    descending = vectors[::-1]
    for i, v in enumerate(descending):
        p = 0  # coordinates shared with the next vector
        if i + 1 < len(descending):
            while v[p] == descending[i + 1][p]:
                p += 1
        succs = ()
        for j in range(dim, p, -1):
            key = (j, v[j - 1], succs)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = STNode(j, v[j - 1], succs, len(nodes))
            children = pending[j - 1]
            children.append(node)
            if j - 1 > p:
                succs = tuple(children)
                children.clear()
    root = STNode(0, TOP, tuple(pending[0]), len(nodes))
    edge_count = len(root.succs) + sum(len(n.succs) for n in nodes.values())
    return STree(root, dim, False, len(nodes) + 1, edge_count, table)


def _thresholds(tree: STree, u: Vector):
    """Per-dimension rank thresholds for non-strict and strict domination.

    A stored value (rank or raw) dominates component i iff it is >= geq[i];
    it strictly exceeds iff >= gt[i].
    """
    if tree.table is None:
        geq = list(u)
        gt = [x + 1 for x in u]
    else:
        geq = [bisect_left(tree.table[i], u[i]) for i in range(tree.dim)]
        gt = [bisect_right(tree.table[i], u[i]) for i in range(tree.dim)]
    return geq, gt


def member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """DFS membership: is there a root-to-leaf path dominating ``u``?"""
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    if tree.empty:
        return False
    geq, _ = _thresholds(tree, u)
    k = tree.dim
    visits = 0
    comps = 0

    def dfs(node: STNode, layer: int) -> bool:
        nonlocal visits, comps
        visits += 1
        if layer == k - 1:
            # second-to-last layer: the first (largest) successor decides
            comps += 1
            return node.succs[0].value >= geq[layer]
        for s in node.succs:
            comps += 1
            if s.value < geq[layer]:
                break  # successors only get smaller
            if dfs(s, layer + 1):
                return True
        return False

    result = dfs(tree.root, 0)
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return result


def strict_member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """DFS with a strictness bit: some path dominates ``u`` and exceeds it
    in at least one component."""
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    if tree.empty:
        return False
    geq, gt = _thresholds(tree, u)
    k = tree.dim
    visits = 0
    comps = 0

    def dfs(node: STNode, layer: int, strict: bool) -> bool:
        nonlocal visits, comps
        visits += 1
        if layer == k:
            return strict
        for s in node.succs:
            comps += 2
            if s.value < geq[layer]:
                break
            if dfs(s, layer + 1, strict or s.value >= gt[layer]):
                return True
        return False

    result = dfs(tree.root, 0, False)
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return result


def iter_vectors(tree: STree) -> Iterator[Vector]:
    """All encoded vectors, in the DAG's depth-first order; the ranks of a
    compressed tree are mapped back to the original values."""
    if tree.empty:
        return
    table = tree.table
    k = tree.dim
    prefix: list = []

    def walk(node: STNode, layer: int):
        if layer == k:
            yield tuple(prefix)
            return
        for s in node.succs:
            prefix.append(s.value if table is None else table[layer][s.value])
            yield from walk(s, layer + 1)
            prefix.pop()

    yield from walk(tree.root, 0)


def to_dot(tree) -> str:
    """DOT dump of a layered DAG (sharing tree or covering sharing tree);
    nodes are labeled ``layer:value``."""
    lines = ["digraph sharingtree {", "  rankdir=TB;"]
    seen = {}
    order: list = []

    def visit(node):
        if id(node) in seen:
            return
        seen[id(node)] = f"n{len(seen)}"
        order.append(node)
        for s in node.succs:
            visit(s)

    visit(tree.root)
    for node in order:
        value = "T" if node.value is TOP else str(node.value)
        lines.append(f'  {seen[id(node)]} [label="{node.layer}:{value}"];')
    for node in order:
        for s in node.succs:
            lines.append(f"  {seen[id(node)]} -> {seen[id(s)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The downset index protocol (core.DownsetIndex) of this backend.
build, member, strict_member = build_sharingtree, member_st, strict_member_st
