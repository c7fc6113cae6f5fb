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
check and the graph union below, whose results may keep dominated vectors.

Union merges two trees over their successor lists in decreasing value
order.  Every insertion is guarded by a sibling-simulation check, and only
existing-simulates-new is possible, since insertions arrive in decreasing
value order.  The operands are taken to be simulation-minimal, as built
trees and unions are, so two successors of the same operand node are never
checked against each other.

Intersection has no graph operation here: it is ``core.intersect`` over
this module as the index (``build`` and ``member``), as for the sharing
tree.  The graph product it replaced made a node for every pair of
same-layer operand nodes the roots reach, and took over ten times as long
as the intersection through the index on the same sets.

Nothing recurses.  A union first sweeps down the layers for the pairs of
operand nodes it reaches, then builds the result bottom-up, hash-consing
each node on (layer, value, successors) as ``sharingtree._build`` does; a
result node equal to one of its pair's operand nodes is that node, so a
result equal to an operand is that operand's tree.  Results count their
nodes and edges on first read (``STree.node_count``).

Simulation between nodes of layer j needs only the relation at layer
j + 1, so a batch of pairs is decided by one sweep down for the successor
pairs it needs and one sweep back up, deepest layer first.  Before any
sweep, a pair is settled where it can be: a node with no successors is
simulated by any node of at least its value, one whose largest successor
exceeds the other's largest is not, and per-layer ceilings (which refute)
and leads (which confirm) are packed for nodes that meet several checks
in trees of at most 64 layers.  A successor list is read only down to the
first value below the one being simulated; every decided pair is kept for
the rest of the call, so each is decided once; and a union checks no two
candidates that are siblings in one operand.  A call counts the pairs it
decided as comparisons.
"""

from __future__ import annotations

from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector, maxac
from .sharingtree import TOP, STNode, STree, _build, _search, iter_vectors


# Ceilings and leads pack one field of _WIDTH bits per layer.  Values above
# _CAP are packed as _CAP in ceilings and as _CAP - 1 in leads, which keeps
# both tests sound: a ceiling test then refutes less, a lead test accepts less.
_WIDTH = 16
_CAP = (1 << (_WIDTH - 1)) - 1
# Trees of more layers are not packed, since every node's ceiling would
# take _WIDTH bits per layer; their checks are all swept.
_FIELDS = 64


def _guard(fields: int) -> int:
    """The top bit of each of ``fields`` fields."""
    ones = ((1 << (_WIDTH * fields)) - 1) // ((1 << _WIDTH) - 1)  # bit 0 of each field
    return ones << (_WIDTH - 1)


class _Call:
    """The state one graph union or simulation check keeps: the simulation
    pairs decided, the nodes made, and packed ceilings of the nodes that
    checks reach.

    The ceiling of a node holds, in one field per layer from its own down,
    the largest value on that layer below it; its lead holds the values of
    its path through first successors, the largest at each step.  A node
    simulated by another has every field of its ceiling no larger than the
    other's ceiling, and a node whose ceiling is no larger than another's
    lead is simulated by it (that one path dominates every path below the
    node).  One big-integer subtraction tests either: the top bit of each
    field is a guard that a borrow would clear.  Only a pair that neither
    test settles is swept.

    Ceilings are packed where a node is about to meet several checks at
    once, together with every node below it that has none yet; a call on
    small sets, whose nodes meet one check each, packs few and sweeps.
    """

    __slots__ = ("memo", "table", "ceil", "lead", "depth", "guard")

    def __init__(self, depth: int):
        """State for nodes of layers up to ``depth``; the guard bits are
        made when the first ceiling is packed."""
        self.memo: dict = {}
        self.table: dict = {}
        self.ceil: dict = {}
        self.lead: dict = {}
        self.depth = depth
        self.guard = 0

    def pack(self, nodes) -> None:
        """Pack the ceilings and leads of ``nodes``, all of one layer, and of
        the nodes below them that have none yet: collected layer by layer,
        packed deepest first."""
        if self.depth > _FIELDS:
            return
        ceil, lead = self.ceil, self.lead
        seen = {n for n in nodes if n not in ceil}
        if not seen:
            return
        if not self.guard:
            self.guard = _guard(max(self.depth, 1))
        guard = self.guard
        order = list(seen)
        for n in order:  # grows as it is read
            for s in n.succs:
                if s not in seen and s not in ceil:
                    seen.add(s)
                    order.append(s)
        for n in reversed(order):
            v = n.value
            if v is TOP:
                c = low = 0
            else:
                shift = (n.layer - 1) * _WIDTH
                c = (v if v < _CAP else _CAP) << shift
                low = (v if v < _CAP else _CAP - 1) << shift
            succs = n.succs
            if succs:
                lead[n] = low | lead[succs[0]]
                below = ceil[succs[0]]
                for s in succs[1:]:
                    other = ceil[s]
                    keep = ((below | guard) - other) & guard  # fields where below >= other
                    keep -= keep >> (_WIDTH - 1)
                    below = (below & keep) | (other & ~keep)
                ceil[n] = c | below
            else:
                ceil[n] = c
                lead[n] = low

    def node(self, layer: int, value, succs: tuple) -> STNode:
        """The call's one node for (layer, value, successors)."""
        key = (layer, value, succs)
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = STNode(layer, value, succs, len(self.table))
        return node

    def settle(self, pair: tuple):
        """Whether ``n`` is simulated by ``m`` for ``pair = (n, m)``, with
        ``val(n) <= val(m)``, if known without a sweep: decided before, or
        settled (and then recorded) because ``n`` has no successors, because
        its largest successor exceeds the largest of ``m``, or by ceilings
        and leads where both nodes have them packed.  None otherwise."""
        known = self.memo.get(pair)
        if known is not None:
            return known
        n, m = pair
        below, above = n.succs, m.succs
        if not below:
            known = self.memo[pair] = True  # nothing to simulate below n
        elif not above or below[0].value > above[0].value:
            known = self.memo[pair] = False  # n's largest successor has nothing above it
        elif self.ceil:
            cn, cm = self.ceil.get(n), self.ceil.get(m)
            if cn is not None and cm is not None:
                guard = self.guard
                if ((cm | guard) - cn) & guard != guard:
                    known = self.memo[pair] = False
                elif ((self.lead[m] | guard) - cn) & guard == guard:
                    known = self.memo[pair] = True
        return known

    def decide(self, pairs) -> None:
        """Record in ``memo`` whether ``n`` is simulated by ``m``, for every
        pair ``(n, m)`` of nodes of one layer with ``val(n) <= val(m)``.

        The sweep down collects, layer by layer, the successor pairs the
        answers read that are neither trivial (``s is t``) nor settled.  It
        stops early on a pair: a successor that nothing can simulate refutes
        it, and a successor already simulated needs no other pair.  The
        sweep up decides the rest, deepest layer first.  Keys hold the
        nodes themselves (hashed by identity), never ``id()``s that a
        collected node could pass on.
        """
        memo, settle = self.memo, self.settle
        levels = []
        todo = {pair: None for pair in pairs if settle(pair) is None}
        while todo:
            levels.append(todo)
            below: dict = {}
            for n, m in todo:
                succs = m.succs
                ask = []
                for s in n.succs:
                    x = s.value
                    mark = len(ask)
                    status = 0  # 0: nothing can simulate s, 1: to sweep, 2: simulated
                    for t in succs:
                        if t.value < x:
                            break  # successors only get smaller
                        if t is s:
                            status = 2
                            break
                        key = (s, t)
                        known = settle(key)
                        if known:
                            status = 2
                            break
                        if known is None:
                            ask.append(key)
                            status = 1
                    if status == 2:
                        del ask[mark:]  # s is simulated: its other pairs are not needed
                    elif status == 0:
                        memo[n, m] = False  # s refutes the pair: nothing below is needed
                        break
                else:
                    for key in ask:
                        below[key] = None
            todo = below
        for level in reversed(levels):
            for pair in level:
                if pair in memo:
                    continue
                n, m = pair
                succs = m.succs
                result = True
                for s in n.succs:
                    x = s.value
                    found = False
                    for t in succs:
                        if t.value < x:
                            break
                        if t is s or memo.get((s, t)):  # pairs left out are not needed
                            found = True
                            break
                    if not found:
                        result = False
                        break
                memo[pair] = result


def simulates(n: STNode, m: STNode) -> bool:
    """True iff ``n`` is forward-simulated by ``m`` (same layer required)."""
    if n.layer != m.layer:
        raise ValueError("simulation compares nodes of the same layer only")
    if n is m:
        return True
    if n.value is not TOP and n.value > m.value:
        return False
    leaf = n
    while leaf.succs:
        leaf = leaf.succs[0]
    call = _Call(leaf.layer)
    call.decide(((n, m),))
    return call.memo[n, m]


def build_cst(ac: Antichain) -> STree:
    """Build the layered DAG of an antichain (the sharing-tree build, which
    is simulation-minimal for an antichain)."""
    return _build(ac)


def member_cst(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Membership in the downward closure of the encoded language."""
    return _search(tree, u, stats)


def _merge(root: tuple, call: _Call) -> STNode:
    """The union of a pair of equal-valued nodes of one layer.

    The sweep down reads the pairs in the order they are reached, which is
    layer by layer, and plans each pair's candidate children in decreasing
    value order: a successor of the first node (side 0), of the second
    (side 1), or the union of an equal-valued pair below (side 2).  A pair
    of one node with itself is that node.  The sweep up walks the plans
    backwards, deepest layer first, and decides each pair's sibling checks
    as one batch: a candidate is kept unless an earlier one simulates it,
    which by transitivity is the same as being simulated by a kept one.
    """
    order = []
    queue = [root]
    reached = {root}
    for pair in queue:  # grows while read
        ns, nt = pair
        if ns is nt:
            order.append((pair, None))
            continue
        ss, ts = ns.succs, nt.succs
        ls, lt = len(ss), len(ts)
        cands = []
        i = j = 0
        while i < ls and j < lt:
            a, b = ss[i], ts[j]
            if a.value > b.value:
                cands.append((a, 0))
                i += 1
            elif a.value < b.value:
                cands.append((b, 1))
                j += 1
            else:
                below = (a, b)
                if below not in reached:
                    reached.add(below)
                    queue.append(below)
                cands.append((below, 2))
                i += 1
                j += 1
        while i < ls:
            cands.append((ss[i], 0))
            i += 1
        while j < lt:
            cands.append((ts[j], 1))
            j += 1
        order.append((pair, cands))
    merged: dict = {}
    for pair, cands in reversed(order):
        ns = pair[0]
        if cands is None:
            merged[pair] = ns
            continue
        if len(cands) == 1:  # one successor on either side: nothing to check
            c, side = cands[0]
            nodes = (merged[c] if side == 2 else c,)
        else:
            nodes = _kept(cands, merged, call)
        # a union equal to one of the two nodes is that node
        if nodes == ns.succs:
            merged[pair] = ns
        elif nodes == pair[1].succs:
            merged[pair] = pair[1]
        else:
            merged[pair] = call.node(ns.layer, ns.value, nodes)
    return merged[root]


def _kept(cands: list, merged: dict, call: _Call) -> tuple:
    """The candidates that no earlier one simulates, deciding their checks
    as one batch."""
    memo = call.memo
    resolved = []
    simulated = ()
    checks = []
    for c, side in cands:
        if side == 2:
            pair, c = c, merged[c]
            if c is pair[0]:  # a union that is one operand's node is its sibling there
                side = 0
            elif c is pair[1]:
                side = 1
        for d, other in resolved:
            # siblings of one operand node never simulate each other
            if side == 2 or other != side:
                checks.append((c, d))
        resolved.append((c, side))
    if checks:
        if len(checks) > 2 * len(resolved):
            # candidates met in several checks: packing pays for itself
            call.pack([c for c, _ in resolved])
        call.decide(checks)
        simulated = {c for c, d in checks if memo[c, d]}
    return tuple([c for c, _ in resolved if c not in simulated])


def union_cst(s: STree, t: STree, stats: Optional[Stats] = None) -> STree:
    """Graph union; counts the simulation pairs it decided as comparisons."""
    if s.dim != t.dim:
        raise DimensionMismatch(f"dimensions differ: {s.dim} vs {t.dim}")
    if s.empty:
        return t
    if t.empty:
        return s
    call = _Call(s.dim)
    root = _merge((s.root, t.root), call)
    if stats is not None:
        stats.comparisons += len(call.memo)
    return STree(root, s.dim)


def maximal_elements(tree: STree) -> Antichain:
    """The true antichain encoded by the tree: maximal elements of its
    language."""
    return maxac(iter_vectors(tree), dim=tree.dim)


# The downset index protocol (core.DownsetIndex) of this backend, for
# membership and intersection: union is the graph operation.
build, member = build_cst, member_cst


def union(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """Union of downsets: the graph union of the operands' trees, reduced to
    its maximal elements."""
    return maximal_elements(union_cst(build(a), build(b), stats))


def is_simulation_minimal(tree: STree) -> bool:
    """Structural check: no child of any node simulates a sibling.

    The reachable nodes are collected layer by layer; the sibling pairs of
    each layer are then decided as one batch, deepest layer first.
    """
    layers = []
    layer = (tree.root,)
    while layer:
        layers.append(layer)
        layer = tuple(dict.fromkeys(s for n in layer for s in n.succs))
    call = _Call(tree.dim)
    for layer in reversed(layers):
        checks = [(a, b) for n in layer for a in n.succs for b in n.succs
                  if a is not b and a.value <= b.value]
        call.pack([a for pair in checks for a in pair])
        call.decide(checks)
        if any(call.memo[p] for p in checks):
            return False
    return True
