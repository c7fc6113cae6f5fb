"""Sharing trees: layered minimal acyclic DAGs encoding vector sets.

A set of k-dimensional vectors, read as words of length k, is a finite
language; its sharing tree is the minimal acyclic deterministic automaton
for that language, laid out in k + 1 layers with the values on the nodes.
Construction builds the trie implicitly and minimizes bottom-up by giving
every subtree a canonical identity (layer, value, successor identities) and
caching on it, so equivalent subtrees are created once.

Successors are kept in strictly decreasing value order.  A membership
query sweeps the DAG one layer per query component, keeping the set of
nodes reached by a path that dominates the query's prefix; a successor list
is read only down to the first value below the component.  Each node
enters the set at most once, so a query costs O(nodes + edges).  Nothing
recurses, and a query writes nothing into the nodes: a built tree is never
changed, so any number of readers may search it at once.  Membership is
the only query: ``core.union`` and ``core.intersect`` need no other.

The covering sharing tree (``cst``) is the same layered DAG: it shares this
module's node, build, search, iterator and DOT dump, and adds only its
simulation-based union; its intersection is ``core.intersect`` over the
same build and search.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

TOP = None  # root value


class STNode:
    __slots__ = ("layer", "value", "succs", "uid")

    def __init__(self, layer: int, value, succs, uid: int = -1):
        self.layer = layer
        self.value = value
        self.succs = succs  # tuple, strictly decreasing by value
        self.uid = uid

    def __repr__(self) -> str:
        return f"STNode(layer={self.layer}, value={self.value}, uid={self.uid})"


class STree:
    """A layered DAG plus its bookkeeping.

    ``node_count`` and ``edge_count`` are the nodes and edges reachable from
    the root.  The build passes them in; for any other tree (the results of
    the covering union) one layer sweep counts them on first read.
    """

    __slots__ = ("root", "dim", "empty", "_counts")

    def __init__(self, root: STNode, dim: int, node_count: Optional[int] = None,
                 edge_count: Optional[int] = None):
        self.root = root
        self.dim = dim
        self.empty = not root.succs
        self._counts = None if node_count is None else (node_count, edge_count)

    @property
    def node_count(self) -> int:
        return self._counted()[0]

    @property
    def edge_count(self) -> int:
        return self._counted()[1]

    def _counted(self) -> tuple:
        if self._counts is None:
            seen = {self.root}
            layer = [self.root]
            edges = 0
            while layer:
                below = []
                for node in layer:
                    edges += len(node.succs)
                    for s in node.succs:
                        if s not in seen:
                            seen.add(s)
                            below.append(s)
                layer = below
            self._counts = (len(seen), edges)
        return self._counts


def _build(ac: Antichain) -> STree:
    """Bottom-up build over the members, which are sorted ascending.

    Reading the vectors in descending order makes siblings arrive in
    decreasing value order.  ``pending[j]`` collects the children of the
    open node at layer ``j``.  Once a vector is read, its nodes below the
    prefix it shares with the next vector are complete: each is hash-consed
    on (layer, value, successors), whose successors are canonical nodes
    already, and appended to its parent's children.  A new node's
    successors are its out-edges, so edges are counted as nodes are made.
    """
    dim = ac.dim
    nodes: dict = {}
    pending: list = [[] for _ in range(dim)]
    descending = ac.vectors[::-1]
    edge_count = 0
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
                edge_count += len(succs)
            children = pending[j - 1]
            children.append(node)
            if j - 1 > p:
                succs = tuple(children)
                children.clear()
    root = STNode(0, TOP, tuple(pending[0]), len(nodes))
    return STree(root, dim, len(nodes) + 1, edge_count + len(root.succs))


def _search(tree: STree, u: Vector, stats: Optional[Stats]) -> bool:
    """Sweep the DAG one layer per component of ``u`` for a path dominating it.

    ``reached`` holds the nodes of the current layer reached by a path that
    dominates ``u`` so far; a node enters it at most once per search, and
    each successor list is read only down to the first value below the
    query component.
    """
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    reached: dict = {tree.root: None}
    visits = comps = 0
    for x in u:
        if not reached:
            break
        visits += len(reached)
        following: dict = {}
        for node in reached:
            for s in node.succs:
                comps += 1
                if s.value < x:
                    break  # successors only get smaller
                following[s] = None
        reached = following
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return bool(reached)


def build_sharingtree(ac: Antichain) -> STree:
    """Build the minimal layered DAG of an antichain."""
    return _build(ac)


def member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Is there a root-to-leaf path dominating ``u``?"""
    return _search(tree, u, stats)


def iter_vectors(tree: STree) -> Iterator[Vector]:
    """All encoded vectors, in the DAG's depth-first order (decreasing
    values first)."""
    paths = [((), tree.root)]
    for _ in range(tree.dim):
        paths = [(prefix + (s.value,), s) for prefix, node in paths for s in node.succs]
    for prefix, _ in paths:
        yield prefix


def to_dot(tree: STree) -> str:
    """DOT dump of a layered DAG (sharing tree or covering sharing tree);
    nodes are labeled ``layer:value`` and numbered in depth-first preorder."""
    names: dict = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node not in names:
            names[node] = f"n{len(names)}"
            stack.extend(reversed(node.succs))
    lines = ["digraph sharingtree {", "  rankdir=TB;"]
    for node, name in names.items():
        value = "T" if node.value is TOP else str(node.value)
        lines.append(f'  {name} [label="{node.layer}:{value}"];')
    for node, name in names.items():
        for s in node.succs:
            lines.append(f"  {name} -> {names[s]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The downset index protocol (core.DownsetIndex) of this backend.
build, member = build_sharingtree, member_st
