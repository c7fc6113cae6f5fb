"""Sharing trees: layered minimal acyclic DAGs encoding vector sets.

A set of k-dimensional vectors, read as words of length k, is a finite
language; its sharing tree is the minimal acyclic deterministic automaton
for that language, laid out in k + 1 layers with the values on the nodes.
Construction builds the trie implicitly and minimizes bottom-up by giving
every subtree a canonical identity (layer, value, successor identities) and
caching on it, so equivalent subtrees are created once.

Successors are kept in strictly decreasing value order, which gives the
membership DFS its early exits: once the largest remaining successor value
drops below the query component, no branch can dominate.  Whether a path
below a node dominates the rest of a query depends on the node alone (and,
for strict membership, on whether a component was already exceeded), so
the DFS memoizes failed nodes and searches each node at most once per
strictness bit.  The memo is a mark on the node: each search makes fresh
marker objects and stamps a node with one when it fails, so a mark left by
another search never matches.  A set of failed nodes would do the same,
but its inserts doubled the query time on trees with little sharing.

The covering sharing tree (``cst``) is the same layered DAG: it shares this
module's node, build, search, iterator and DOT dump, and adds only its
simulation-based union and intersection.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

TOP = None  # root value


class STNode:
    __slots__ = ("layer", "value", "succs", "uid", "mark")

    def __init__(self, layer: int, value, succs, uid: int = -1):
        self.layer = layer
        self.value = value
        self.succs = succs  # tuple, strictly decreasing by value
        self.uid = uid
        self.mark = None  # the failure marker of the last search that failed here

    def __repr__(self) -> str:
        return f"STNode(layer={self.layer}, value={self.value}, uid={self.uid})"


class STree:
    """A layered DAG plus its bookkeeping.

    ``node_count`` and ``edge_count`` are set by the build; trees produced
    by the covering set operations are not counted and leave them None.
    """

    __slots__ = ("root", "dim", "empty", "node_count", "edge_count")

    def __init__(self, root: STNode, dim: int, node_count: Optional[int] = None,
                 edge_count: Optional[int] = None):
        self.root = root
        self.dim = dim
        self.empty = not root.succs
        self.node_count = node_count
        self.edge_count = edge_count


def _build(ac: Antichain) -> STree:
    """Bottom-up build over the members, which are sorted ascending.

    Reading the vectors in descending order makes siblings arrive in
    decreasing value order.  ``pending[j]`` collects the children of the
    open node at layer ``j``.  Once a vector is read, its nodes below the
    prefix it shares with the next vector are complete: each is hash-consed
    on (layer, value, successors), whose successors are canonical nodes
    already, and appended to its parent's children.
    """
    dim = ac.dim
    nodes: dict = {}
    pending: list = [[] for _ in range(dim)]
    descending = ac.vectors[::-1]
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
    return STree(root, dim, len(nodes) + 1, edge_count)


def _query(tree: STree, u: Vector) -> Vector:
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    return u


def _member(tree: STree, u: Vector, stats: Optional[Stats]) -> bool:
    """DFS for a root-to-leaf path dominating ``u``, skipping failed nodes."""
    u = _query(tree, u)
    if tree.empty:
        return False
    last = tree.dim - 1
    failed = object()
    visits = 0
    comps = 0

    def dfs(node: STNode, layer: int) -> bool:
        nonlocal visits, comps
        visits += 1
        x = u[layer]
        if layer == last:
            # second-to-last layer: the first (largest) successor decides
            comps += 1
            if node.succs[0].value >= x:
                return True
        else:
            for s in node.succs:
                comps += 1
                if s.value < x:
                    break  # successors only get smaller
                if s.mark is not failed and dfs(s, layer + 1):
                    return True
        node.mark = failed
        return False

    result = dfs(tree.root, 0)
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return result


def _strict_member(tree: STree, u: Vector, stats: Optional[Stats]) -> bool:
    """DFS with a strictness bit for a path dominating ``u`` and exceeding
    it in at least one component; failed nodes are skipped per bit."""
    u = _query(tree, u)
    if tree.empty:
        return False
    last = tree.dim - 1
    # A node that fails with the bit set has no dominating path below it, so
    # it fails without the bit too: ``dead`` covers both bits, ``weak`` only
    # the unset one.
    dead, weak = object(), object()
    visits = 0
    comps = 0

    def dfs(node: STNode, layer: int, strict: bool) -> bool:
        nonlocal visits, comps
        visits += 1
        x = u[layer]
        if layer == last:
            comps += 2
            top = node.succs[0].value
            if top > x or (strict and top == x):
                return True
        else:
            for s in node.succs:
                comps += 2
                if s.value < x:
                    break
                bit = strict or s.value > x
                mark = s.mark
                if mark is not dead and (bit or mark is not weak) and dfs(s, layer + 1, bit):
                    return True
        node.mark = dead if strict else weak
        return False

    result = dfs(tree.root, 0, False)
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return result


def build_sharingtree(ac: Antichain) -> STree:
    """Build the minimal layered DAG of an antichain."""
    return _build(ac)


def member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Is there a root-to-leaf path dominating ``u``?"""
    return _member(tree, u, stats)


def strict_member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Is there a path dominating ``u`` and exceeding it in some component?"""
    return _strict_member(tree, u, stats)


def iter_vectors(tree: STree) -> Iterator[Vector]:
    """All encoded vectors, in the DAG's depth-first order (decreasing
    values first)."""
    if tree.empty:
        return
    k = tree.dim
    prefix: list = []

    def walk(node: STNode, layer: int):
        if layer == k:
            yield tuple(prefix)
            return
        for s in node.succs:
            prefix.append(s.value)
            yield from walk(s, layer + 1)
            prefix.pop()

    yield from walk(tree.root, 0)


def to_dot(tree: STree) -> str:
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
