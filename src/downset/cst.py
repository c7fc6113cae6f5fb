"""Covering sharing trees: simulation-minimal layered DAGs.

Unlike the exact sharing tree, a covering sharing tree may encode vectors
that are dominated by other encoded vectors; the only contract is that the
downward closure of the encoded language equals the closure of the input
set.  Minimality is replaced by simulation-minimality: no child of a node
simulates a sibling, where node n is (forward) simulated by node m when
val(n) <= val(m) and every successor of n is simulated by some successor
of m.

A covering sharing tree is a ``sharingtree`` layered DAG, and this module
uses that one's node, build, membership search, iterator and DOT dump.
Built from an antichain, the minimal DAG is already simulation-minimal: a
sibling that simulated another would give two distinct members of which
one dominates the other.  What is covering-specific is the simulation
check and the two set operations below, whose results may keep dominated
vectors.

Union merges two trees by parallel descent over the successor lists in
decreasing value order; intersection builds the product, labels each pair
with the minimum of the two values, and resolves same-value collisions by
uniting the two subtrees.  Every insertion is guarded by sibling-simulation
checks: on union only existing-simulates-new is possible (insertions arrive
in decreasing value order), on intersection both directions are checked and
an insertion that simulates existing siblings evicts them.  Both operations
keep the node made for every pair of operand nodes for the rest of the
call, so a node reached by many paths is merged or multiplied once.
"""

from __future__ import annotations

from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector, maxac
from .sharingtree import TOP, STNode, STree, _build, _search, iter_vectors


def simulates(n: STNode, m: STNode) -> bool:
    """True iff ``n`` is forward-simulated by ``m`` (same layer required)."""
    if n.layer != m.layer:
        raise ValueError("simulation compares nodes of the same layer only")
    return _sim(n, m, {})


def _sim(n: STNode, m: STNode, memo: dict) -> bool:
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


def _add_if_not_simulated(children: list, cand: STNode, memo: dict) -> None:
    """Append unless an existing sibling simulates the candidate.

    Callers append in decreasing value order, so only the
    existing-simulates-new direction can hold.
    """
    for c in children:
        if _sim(cand, c, memo):
            return
    children.append(cand)


def build_cst(ac: Antichain) -> STree:
    """Build the layered DAG of an antichain (the sharing-tree build, which
    is simulation-minimal for an antichain)."""
    return _build(ac)


def member_cst(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Membership in the downward closure of the encoded language."""
    return _search(tree, u, stats)


def _union_nodes(ns: STNode, nt: STNode, memo: dict, unions: dict) -> STNode:
    """Merge two equal-valued nodes; the three cases follow the successor
    lists in decreasing value order.  ``unions`` holds the merge of every
    node pair done so far, so a shared DAG is merged once per pair, not
    once per path."""
    key = (ns, nt)
    done = unions.get(key)
    if done is not None:
        return done
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
            _add_if_not_simulated(children, _union_nodes(ss[i], ts[j], memo, unions), memo)
            i += 1
            j += 1
    done = unions[key] = STNode(ns.layer, ns.value, tuple(children))
    return done


def union_cst(s: STree, t: STree, stats: Optional[Stats] = None) -> STree:
    """Graph union; counts the simulation pairs it evaluated as comparisons."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    if s.empty:
        return t
    if t.empty:
        return s
    memo: dict = {}
    root = _union_nodes(s.root, t.root, memo, {})
    if stats is not None:
        stats.comparisons += len(memo)
    return STree(root, s.dim)


def _add_succ_intersect(children: list, cand: STNode, memo: dict, unions: dict) -> None:
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
            children[idx] = _union_nodes(c, cand, memo, unions)
            return
    pos = 0
    while pos < len(children) and children[pos].value > cand.value:
        pos += 1
    children.insert(pos, cand)
    children[pos + 1:] = [c for c in children[pos + 1:] if not _sim(c, cand, memo)]


def _inter_nodes(ns: STNode, nt: STNode, memo: dict, unions: dict, products: dict) -> STNode:
    """The product of two same-layer nodes; every pair of successors yields
    a candidate, so nodes of non-empty trees never come out empty.
    ``products`` holds the product of every node pair done so far, so a
    shared DAG is multiplied once per pair, not once per path."""
    key = (ns, nt)
    done = products.get(key)
    if done is not None:
        return done
    value = ns.value if ns.layer == 0 else min(ns.value, nt.value)
    children: list = []
    for ss in ns.succs:
        for ts in nt.succs:
            _add_succ_intersect(children, _inter_nodes(ss, ts, memo, unions, products), memo, unions)
    done = products[key] = STNode(ns.layer, value, tuple(children))
    return done


def intersect_cst(s: STree, t: STree, stats: Optional[Stats] = None) -> STree:
    """Product intersection; counts the simulation pairs it evaluated as
    comparisons."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    if s.empty or t.empty:
        return STree(STNode(0, TOP, ()), s.dim)
    memo: dict = {}
    root = _inter_nodes(s.root, t.root, memo, {}, {})
    if stats is not None:
        stats.comparisons += len(memo)
    return STree(root, s.dim)


def maximal_elements(tree: STree) -> Antichain:
    """The true antichain encoded by the tree: maximal elements of its
    language."""
    return maxac(iter_vectors(tree), dim=tree.dim)


# The downset index protocol (core.DownsetIndex) of this backend, for
# membership only: union and intersection are the graph operations.
build, member = build_cst, member_cst


def union(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """Union of downsets: the graph union of the operands' trees, reduced to
    its maximal elements."""
    return maximal_elements(union_cst(build(a), build(b), stats))


def intersect(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """Intersection of downsets: the product of the operands' trees, reduced
    to its maximal elements."""
    return maximal_elements(intersect_cst(build(a), build(b), stats))


def is_simulation_minimal(tree: STree) -> bool:
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
