"""Sharing trees: layered minimal acyclic DAGs encoding vector sets.

A set of k-dimensional vectors, read as words of length k, is a finite
language; its sharing tree is the minimal acyclic deterministic automaton
for that language, laid out in k + 1 layers with the values on the nodes.
As in Patricia tries (Morrison, JACM 1968), a node whose language is one
word is a *chain node*: its value plus the ``tail`` of values below it.
Random antichains share few prefixes, so most of a member's k layers lie
in its chain.  Construction builds the trie implicitly and minimizes it
bottom-up by caching each chain node on (layer, word) and each *branch
node* on (layer, value, successors), so equal subtrees are made once.

Successors are kept in strictly decreasing value order.  A membership
query sweeps the DAG one layer per query component, keeping the set of
nodes reached by a path that dominates the query's prefix; a successor list
is read only down to the first value below the component, and a tail up
to the first query component above it.  Each node enters the set at most
once, so a query costs O(nodes + edges + tail components).  Nothing
recurses, and a query writes nothing into the nodes: a built tree is never
changed, so any number of readers may search it at once.  Membership is
the only query: ``core.union`` and ``core.intersect`` need no other.

The covering sharing tree (``cst``) is this same index under a second
name: its build and search call this module's, and its union and
intersection are ``core.union`` and ``core.intersect`` over them.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

TOP = None  # root value


class STNode:
    """A branch node (``succs``) or a chain node (``tail``), built once per distinct subtree."""

    __slots__ = ("layer", "value", "succs", "tail")

    def __init__(self, layer: int, value, succs, tail):
        self.layer = layer
        self.value = value
        self.succs = succs  # tuple, strictly decreasing by value; () for a chain
        self.tail = tail  # a chain's values below its layer; None for a branch

    def __repr__(self) -> str:
        return f"STNode(layer={self.layer}, value={self.value}, tail={self.tail})"


class STree:
    """A layered DAG plus its bookkeeping, counted by the build: ``node_count``
    is its branch and chain nodes, root included (a chain counts once, however
    long its tail), and ``edge_count`` the successor edges of its branch nodes;
    the empty set's root has no successors."""

    __slots__ = ("root", "dim", "node_count", "edge_count")

    def __init__(self, root: STNode, dim: int, node_count: int, edge_count: int):
        self.root = root
        self.dim = dim
        self.node_count = node_count
        self.edge_count = edge_count


def _build(ac: Antichain) -> STree:
    """Bottom-up build over the members, which are sorted ascending.

    Reading the vectors in descending order makes siblings arrive in
    decreasing value order.  A vector ``v`` sharing ``pp`` components with
    the previous vector and ``pn`` with the next is the only member with
    the prefix ``v[:c]``, ``c = max(pp, pn) + 1``: from layer ``c`` down it
    is one chain node.  ``pending[j]`` collects the children of the open
    node at layer ``j``; once ``v`` is read, its branch nodes below layer
    ``pn + 1`` are complete, hash-consed, and appended to their parents'
    children.  Edges are counted as branch nodes are made.
    """
    dim = ac.dim
    if not ac.vectors:
        return STree(STNode(0, TOP, (), None), dim, 1, 0)
    nodes: dict = {}
    pending: list = [[] for _ in range(dim)]
    descending = ac.vectors[::-1]
    edge_count = 0
    pp = 0  # coordinates shared with the previous vector
    for v, w in zip(descending, descending[1:] + ((None,),)):
        pn = 0  # coordinates shared with the next vector, none after the last
        while v[pn] == w[pn]:
            pn += 1
        c = max(pp, pn) + 1
        key = (c, v[c - 1:])
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = STNode(c, v[c - 1], (), v[c:])
        for j in range(c - 1, pn, -1):
            children = pending[j]
            children.append(node)
            succs = tuple(children)
            children.clear()
            key = (j, v[j - 1], succs)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = STNode(j, v[j - 1], succs, None)
                edge_count += len(succs)
        pending[pn].append(node)
        pp = pn
    root = STNode(0, TOP, tuple(pending[0]), None)
    return STree(root, dim, len(nodes) + 1, edge_count + len(root.succs))


def _search(tree: STree, u: Vector, stats: Optional[Stats]) -> bool:
    """Sweep the DAG one layer per component of ``u`` for a path dominating it.

    ``reached`` holds the nodes of the current layer reached by a path that
    dominates ``u`` so far; a node enters it at most once per search.  A
    chain node there compares its tail with the rest of ``u``, one counted
    comparison per component, and the first tail to dominate ends the search.
    """
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    reached: dict = {tree.root: None}
    visits = comps = 0
    for i, x in enumerate(u):
        if not reached:
            break
        visits += len(reached)
        following: dict = {}
        for node in reached:
            tail = node.tail
            if tail is None:
                for s in node.succs:
                    comps += 1
                    if s.value < x:
                        break  # successors only get smaller
                    following[s] = None
                continue
            j = i
            for t in tail:
                if t < u[j]:
                    break
                j += 1
            else:
                if stats is not None:
                    stats.comparisons += comps + len(tail)
                    stats.node_visits += visits
                return True
            comps += j - i + 1
        reached = following
    if stats is not None:
        stats.comparisons += comps
        stats.node_visits += visits
    return bool(reached)  # chain nodes of the last layer, whose tails are empty


def build_sharingtree(ac: Antichain) -> STree:
    """Build the minimal layered DAG of an antichain."""
    return _build(ac)


def member_st(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Is there a root-to-leaf path dominating ``u``?"""
    return _search(tree, u, stats)


def iter_vectors(tree: STree) -> Iterator[Vector]:
    """All encoded vectors, in the DAG's depth-first order (decreasing
    values first)."""
    stack = [((), s) for s in reversed(tree.root.succs)]
    while stack:
        prefix, node = stack.pop()
        prefix += (node.value,)
        if node.tail is not None:
            yield prefix + node.tail
        stack.extend((prefix, s) for s in reversed(node.succs))


def to_dot(tree: STree) -> str:
    """DOT dump of a sharing tree (also of a ``cst`` build, the same DAG), drawn
    uncompressed: a chain node becomes one node per layer, hash-consed bottom-up
    on (layer, value, node below), so a suffix two chains share is drawn once.
    Nodes are labeled ``layer:value`` and numbered in depth-first preorder."""
    cons: dict = {}  # chain node, or (layer, value, successors) -> expanded node

    def expand(node: STNode) -> STNode:
        if node.tail is not None and node not in cons:
            succs, word = (), (node.value,) + node.tail
            for layer in range(tree.dim, node.layer - 1, -1):
                key = (layer, word[layer - node.layer], succs)
                succs = (cons.setdefault(key, STNode(*key, None)),)
            cons[node] = succs[0]
        return cons.get(node, node)

    names: dict = {}
    stack = [tree.root]
    while stack:
        node = expand(stack.pop())
        if node not in names:
            names[node] = f"n{len(names)}"
            stack.extend(reversed(node.succs))
    lines = ["digraph sharingtree {", "  rankdir=TB;"]
    for node, name in names.items():
        value = "T" if node.value is TOP else str(node.value)
        lines.append(f'  {name} [label="{node.layer}:{value}"];')
    for node, name in names.items():
        for s in node.succs:
            lines.append(f"  {name} -> {names[expand(s)]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# The downset index protocol (core.DownsetIndex) of this backend.
build, member = build_sharingtree, member_st
