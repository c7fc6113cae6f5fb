"""Covering sharing trees: simulation-minimal layered DAGs.

Unlike the exact sharing tree, a covering sharing tree may encode vectors
that are dominated by other encoded vectors; the only contract is that the
downward closure of the encoded language equals the closure of the input
set.  Minimality is replaced by simulation-minimality: no child of a node
simulates a sibling, where node n is (forward) simulated by node m when
val(n) <= val(m) and every successor of n is simulated by some successor
of m.

Union merges two trees by parallel descent over the successor lists in
decreasing value order; intersection builds the product, labels each pair
with the minimum of the two values, and resolves same-value collisions by
uniting the two subtrees.  Every insertion is guarded by sibling-simulation
checks: on union only existing-simulates-new is possible (insertions arrive
in decreasing value order), on intersection both directions are checked and
an insertion that simulates existing siblings evicts them.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

TOP = None


class CstNode:
    __slots__ = ("layer", "value", "succs", "uid")

    def __init__(self, layer: int, value, succs, uid: int = -1):
        self.layer = layer
        self.value = value
        self.succs = succs  # tuple, strictly decreasing by value
        self.uid = uid

    def __repr__(self) -> str:
        return f"CstNode(layer={self.layer}, value={self.value})"


class CSTree:
    __slots__ = ("root", "dim", "empty", "node_count")

    def __init__(self, root: CstNode, dim: int, empty: bool):
        self.root = root
        self.dim = dim
        self.empty = empty
        self.node_count = _count_nodes(root) if not empty else 1


def _count_nodes(root: CstNode) -> int:
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        stack.extend(n.succs)
    return len(seen)


def simulates(n: CstNode, m: CstNode, memo: Optional[dict] = None) -> bool:
    """True iff ``n`` is forward-simulated by ``m`` (same layer required)."""
    if n.layer != m.layer:
        raise ValueError("simulation compares nodes of the same layer only")
    if memo is None:
        memo = {}
    return _sim(n, m, memo)


def _sim(n: CstNode, m: CstNode, memo: dict) -> bool:
    # memo keys hold the node objects (hashed by identity): dropped candidate
    # nodes may be garbage-collected during an operation, and id()-only keys
    # would collide with recycled addresses
    if n is m:
        return True
    key = (n, m)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if n.value is not TOP and n.value > m.value:
        memo[key] = False
        return False
    result = True
    for s in n.succs:
        if not any(_sim(s, t, memo) for t in m.succs):
            result = False
            break
    memo[key] = result
    return result


def _add_if_not_simulated(children: list, cand: CstNode, memo: dict) -> None:
    """Append unless an existing sibling simulates the candidate.

    Callers append in decreasing value order, so only the
    existing-simulates-new direction can hold.
    """
    for c in children:
        if _sim(cand, c, memo):
            return
    children.append(cand)


def build_cst(vectors, dim: Optional[int] = None) -> CSTree:
    """Trie construction where every candidate child is dropped if an
    already-added sibling simulates it."""
    vecs = sorted({tuple(v) for v in vectors})
    if dim is None:
        if not vecs:
            raise ValueError("dimension required for an empty vector set")
        dim = len(vecs[0])
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatch("mixed vector lengths")
    if not vecs:
        return CSTree(CstNode(0, TOP, ()), dim, True)
    memo: dict = {}

    def rec(layer: int, value, group) -> CstNode:
        if layer == dim:
            return CstNode(dim, value, ())
        buckets: dict = {}
        for v in group:
            buckets.setdefault(v[layer], []).append(v)
        children: list = []
        for val in sorted(buckets, reverse=True):
            _add_if_not_simulated(children, rec(layer + 1, val, buckets[val]), memo)
        return CstNode(layer, value, tuple(children))

    root = rec(0, TOP, vecs)
    return CSTree(root, dim, False)


def iter_vectors_cst(tree: CSTree) -> Iterator[Vector]:
    """Encoded language, depth-first in decreasing value order."""
    if tree.empty:
        return
    k = tree.dim
    prefix: list = []

    def walk(node: CstNode, layer: int):
        if layer == k:
            yield tuple(prefix)
            return
        for s in node.succs:
            prefix.append(s.value)
            yield from walk(s, layer + 1)
            prefix.pop()

    yield from walk(tree.root, 0)


def member_cst(tree: CSTree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """DFS membership in the downward closure of the encoded language."""
    u = tuple(u)
    if len(u) != tree.dim:
        raise DimensionMismatch(f"query has length {len(u)}, tree has dimension {tree.dim}")
    if tree.empty:
        return False
    k = tree.dim
    visits = 0
    comps = 0

    def dfs(node: CstNode, layer: int) -> bool:
        nonlocal visits, comps
        visits += 1
        if layer == k:
            return True
        for s in node.succs:
            comps += 1
            if s.value < u[layer]:
                break
            if dfs(s, layer + 1):
                return True
        return False

    result = dfs(tree.root, 0)
    if stats is not None:
        stats.merge(comparisons=comps, node_visits=visits)
    return result


def _union_nodes(ns: CstNode, nt: CstNode, layer: int, k: int, memo: dict) -> CstNode:
    """Merge two equal-valued nodes; the three cases follow the successor
    lists in decreasing value order."""
    if layer == k:
        return CstNode(k, ns.value, ())
    children: list = []
    ss, ts = ns.succs, nt.succs
    i = j = 0
    while i < len(ss) or j < len(ts):
        if i == len(ss) or (j < len(ts) and ss[i].value < ts[j].value):
            _add_if_not_simulated(children, ts[j], memo)
            j += 1
        elif j == len(ts) or ss[i].value > ts[j].value:
            _add_if_not_simulated(children, ss[i], memo)
            i += 1
        else:
            # merged nodes face the same sibling check as copied ones
            _add_if_not_simulated(children, _union_nodes(ss[i], ts[j], layer + 1, k, memo), memo)
            i += 1
            j += 1
    return CstNode(layer, ns.value, tuple(children))


def union_cst(s: CSTree, t: CSTree, stats: Optional[Stats] = None) -> CSTree:
    """Graph union; counts the simulation pairs it evaluated as comparisons."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    if s.empty:
        return CSTree(t.root, t.dim, t.empty)
    if t.empty:
        return CSTree(s.root, s.dim, s.empty)
    memo: dict = {}
    root = _union_nodes(s.root, t.root, 0, s.dim, memo)
    if stats is not None:
        stats.comparisons += len(memo)
    return CSTree(root, s.dim, False)


def _add_succ_intersect(children: list, cand: CstNode, layer: int, k: int, memo: dict) -> None:
    """Insertion with bidirectional checks, for product construction where
    candidates arrive in no particular value order.

    Drops the candidate if simulated by an existing sibling; unites subtrees
    on a value collision; otherwise inserts in decreasing-value position and
    evicts existing siblings the candidate simulates.
    """
    for c in children:
        if _sim(cand, c, memo):
            return
    for idx, c in enumerate(children):
        if c.value == cand.value:
            children[idx] = _union_nodes(c, cand, layer, k, memo)
            return
    pos = 0
    while pos < len(children) and children[pos].value > cand.value:
        pos += 1
    children.insert(pos, cand)
    children[pos + 1:] = [c for c in children[pos + 1:] if not _sim(c, cand, memo)]


def _inter_nodes(ns: CstNode, nt: CstNode, layer: int, k: int, memo: dict):
    value = ns.value if layer == 0 else min(ns.value, nt.value)
    if layer == k:
        return CstNode(k, value, ())
    children: list = []
    for ss in ns.succs:
        for ts in nt.succs:
            r = _inter_nodes(ss, ts, layer + 1, k, memo)
            if r is not None:
                _add_succ_intersect(children, r, layer + 1, k, memo)
    if not children:
        return None  # empty language below this pair
    return CstNode(layer, value, tuple(children))


def intersect_cst(s: CSTree, t: CSTree, stats: Optional[Stats] = None) -> CSTree:
    """Product intersection; counts the simulation pairs it evaluated as
    comparisons."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    if s.empty or t.empty:
        return CSTree(CstNode(0, TOP, ()), s.dim, True)
    memo: dict = {}
    root = _inter_nodes(s.root, t.root, 0, s.dim, memo)
    if stats is not None:
        stats.comparisons += len(memo)
    if root is None:
        return CSTree(CstNode(0, TOP, ()), s.dim, True)
    return CSTree(root, s.dim, False)


def maximal_elements(tree: CSTree) -> Antichain:
    """The true antichain encoded by the tree: maximal elements of its
    language."""
    from .core import maxac

    vectors = list(iter_vectors_cst(tree))
    if not vectors:
        return Antichain((), dim=tree.dim)
    return maxac(vectors, dim=tree.dim)


# The downset index protocol (core.DownsetIndex) of this backend, for
# membership only: union and intersection are the graph operations.
def build(ac: Antichain) -> CSTree:
    return build_cst(ac.vectors, dim=ac.dim)


member = member_cst


def union(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """Union of downsets: the graph union of the operands' trees, reduced to
    its maximal elements."""
    return maximal_elements(union_cst(build(a), build(b), stats))


def intersect(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """Intersection of downsets: the product of the operands' trees, reduced
    to its maximal elements."""
    return maximal_elements(intersect_cst(build(a), build(b), stats))


def is_simulation_minimal(tree: CSTree) -> bool:
    """Structural check: no child of any node simulates a sibling."""
    if tree.empty:
        return True
    memo: dict = {}
    seen = set()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for a in node.succs:
            for b in node.succs:
                if a is not b and _sim(a, b, memo):
                    return False
        stack.extend(node.succs)
    return True
