"""k-d tree backend for downsets.

The tree splits the vector collection on a cyclically chosen coordinate at
the median under the tie-breaking order "smaller value, then smaller
position", which guarantees balanced splits even with repeated values.  The
median vector goes to the right subtree, so the right child holds the
ceil(p/2) largest entries of the split coordinate and the left child the
rest.

Membership search keeps a running lower bound of the current node's region
and a counter of coordinates where the bound is still below the query; the
counter hitting zero certifies that every vector in the region dominates
the query, in constant time per descent.  Left branches whose region cannot
contain a dominator are pruned by comparing the split value against the
query coordinate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import (
    Antichain,
    DimensionMismatch,
    Stats,
    Vector,
    compare_counted,
    EQUAL,
    LESS,
)


class KdLeaf:
    __slots__ = ("vec",)

    def __init__(self, vec: Vector):
        self.vec = vec


class KdSplit:
    """Internal node: ``value`` is the split coordinate's median value.

    ``left_allows_equal`` records whether the left subtree received vectors
    whose split coordinate equals the median (possible only with repeated
    values, where ties broke on position); exact left-branch pruning needs
    this bit.
    """

    __slots__ = ("value", "depth", "left", "right", "left_allows_equal")

    def __init__(self, value: int, depth: int, left, right, left_allows_equal: bool):
        self.value = value
        self.depth = depth
        self.left = left
        self.right = right
        self.left_allows_equal = left_allows_equal


class EmptyTree:
    """Sentinel for the empty antichain; every query on it is negative."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "EMPTY_TREE"


EMPTY_TREE = EmptyTree()


def precedes(a: int, ia: int, b: int, ib: int) -> bool:
    """Strict order on indexed values: by value, ties by position."""
    return a < b or (a == b and ia < ib)


def _select(pairs: list, rank: int):
    """Deterministic linear-time selection of the ``rank``-th smallest pair
    (0-based) via median of medians; pairs are distinct (value, index)."""
    while True:
        n = len(pairs)
        if n <= 10:
            pairs.sort()
            return pairs[rank]
        medians = []
        for i in range(0, n, 5):
            group = sorted(pairs[i:i + 5])
            medians.append(group[(len(group) - 1) // 2])
        pivot = _select(medians, (len(medians) - 1) // 2)
        lo = [p for p in pairs if p < pivot]
        if rank < len(lo):
            pairs = lo
            continue
        if rank == len(lo):
            return pivot
        hi = [p for p in pairs if p > pivot]
        rank -= len(lo) + 1
        pairs = hi


def prec_median(values: Sequence[int]) -> int:
    """Position of the median under the value-then-position order.

    For p values this is the ceil(p/2)-th largest, i.e. the element of
    ascending rank floor(p/2); with all-distinct ranks the result is unique
    and deterministic.
    """
    p = len(values)
    if p == 0:
        raise ValueError("median of an empty sequence")
    value, index = _select([(v, i) for i, v in enumerate(values)], p // 2)
    return index


def _build(vectors: list, depth: int, k: int):
    if len(vectors) == 1:
        return KdLeaf(vectors[0])
    i = depth % k
    mpos = prec_median([v[i] for v in vectors])
    mu = vectors[mpos][i]
    left: list = []
    right: list = []
    left_ties = False
    for pos, v in enumerate(vectors):
        if pos == mpos:
            continue
        if v[i] < mu or (v[i] == mu and pos < mpos):
            left.append(v)
            if v[i] == mu:
                left_ties = True
        else:
            right.append(v)
    right.append(vectors[mpos])
    return KdSplit(mu, depth, _build(left, depth + 1, k), _build(right, depth + 1, k), left_ties)


def build_kdtree(source):
    """Build a balanced tree from an antichain or a raw vector collection.

    Raw collections may contain duplicates and comparable vectors; the
    leaves always reproduce the input exactly.
    """
    if isinstance(source, Antichain):
        vectors = list(source.vectors)
        k = source.dim
    else:
        vectors = [tuple(v) for v in source]
        if not vectors:
            return EMPTY_TREE
        k = len(vectors[0])
        for v in vectors:
            if len(v) != k:
                raise DimensionMismatch("mixed vector lengths")
    if not vectors:
        return EMPTY_TREE
    return _build(vectors, 0, k)


def tree_height(tree) -> int:
    if isinstance(tree, (EmptyTree, KdLeaf)):
        return 0
    return 1 + max(tree_height(tree.left), tree_height(tree.right))


def tree_leaves(tree) -> list:
    """Leaf vectors left to right."""
    if isinstance(tree, EmptyTree):
        return []
    out: list = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, KdLeaf):
            out.append(node.vec)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


class _Search:
    """Per-query mutable state: region lower bounds, the pending-coordinate
    counter, and instrumentation."""

    __slots__ = ("u", "k", "lb", "c", "strict_dims", "visits", "comps")

    def __init__(self, u: Vector):
        self.u = u
        self.k = len(u)
        self.lb = [0] * self.k
        self.c = sum(1 for x in u if x > 0)
        self.strict_dims = 0
        self.visits = 0
        self.comps = 0


def _search(node, st: _Search, strict: bool) -> bool:
    st.visits += 1
    if isinstance(node, KdLeaf):
        local = Stats()
        outcome = compare_counted(st.u, node.vec, local)
        st.comps += local.comparisons
        if strict:
            return outcome is LESS
        return outcome is LESS or outcome is EQUAL
    u = st.u
    i = node.depth % st.k
    mu = node.value
    ui = u[i]
    old = st.lb[i]
    # descend right: the right region's bound on coordinate i rises to mu
    st.comps += 1
    restored_c = st.c
    restored_strict = st.strict_dims
    if mu > old:
        st.lb[i] = mu
        st.comps += 2
        if old < ui and mu >= ui:
            st.c -= 1
        if old <= ui and mu > ui:
            st.strict_dims += 1
    if st.c == 0 and (not strict or st.strict_dims > 0):
        # every vector in the right region dominates u (strictly if needed)
        st.lb[i] = old
        st.c = restored_c
        st.strict_dims = restored_strict
        return True
    r_right = _search(node.right, st, strict)
    st.lb[i] = old
    st.c = restored_c
    st.strict_dims = restored_strict
    r_left = False
    st.comps += 1
    if ui < mu or (ui == mu and node.left_allows_equal):
        # the left region can still contain a dominator of u
        r_left = _search(node.left, st, strict)
    return r_right or r_left


def tree_dim(tree) -> Optional[int]:
    """Vector length stored in the tree, or None for the empty sentinel."""
    if isinstance(tree, EmptyTree):
        return None
    node = tree
    while not isinstance(node, KdLeaf):
        node = node.left
    return len(node.vec)


def _run_query(tree, u: Vector, stats: Optional[Stats], strict: bool) -> bool:
    if isinstance(tree, EmptyTree):
        return False
    u = tuple(u)
    if len(u) != tree_dim(tree):
        raise DimensionMismatch("query length does not match tree dimension")
    st = _Search(u)
    result = _search(tree, st, strict)
    if stats is not None:
        stats.merge(comparisons=st.comps, node_visits=st.visits)
    return result


def member_kdtree(tree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """True iff some leaf vector dominates ``u``."""
    return _run_query(tree, u, stats, strict=False)


def strict_member_kdtree(tree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """True iff some leaf vector strictly dominates ``u``.

    Same pruning as the plain search; region inclusion additionally requires
    one coordinate where the bound strictly exceeds the query, and leaves are
    tested strictly.
    """
    return _run_query(tree, u, stats, strict=True)


# The downset index protocol (core.DownsetIndex) of this backend.
build, member, strict_member = build_kdtree, member_kdtree, strict_member_kdtree
