"""k-d tree backend for downsets.

The tree splits the vector collection on a cyclically chosen coordinate at
the median under the tie-breaking order "smaller value, then smaller
position", which guarantees balanced splits even with repeated values.  The
median vector goes to the right subtree, so the right child holds the
ceil(p/2) largest entries of the split coordinate and the left child the
rest.  Both children keep the input's position order, the median last.

The median comes from one stable sort of the node's positions by the split
coordinate: ties keep their position, so the sort order is exactly the
value-then-position order, and it hands over both children at once.  That
is O(p log p) per node and O(n log^2 n) for the build, against the linear
time of a selection, but the work runs inside the C sort instead of the
interpreter.

Membership search keeps a running lower bound of the current node's region
and a counter of coordinates where the bound is still below the query; the
counter hitting zero certifies that every vector in the region dominates
the query, in constant time per descent.  Left branches whose region cannot
contain a dominator are pruned by comparing the split value against the
query coordinate.  Leaves are compared in place with the counting of
``core.compare_counted``, so a query allocates nothing beyond its state.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Antichain, DimensionMismatch, Stats, Vector


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


def _prec_order(values: Sequence[int]) -> list:
    """Positions in the value-then-position order: the sort is stable, so
    ties keep their position."""
    return sorted(range(len(values)), key=values.__getitem__)


def prec_median(values: Sequence[int]) -> int:
    """Position of the median under the value-then-position order.

    For p values this is the ceil(p/2)-th largest, i.e. the element of
    ascending rank floor(p/2); the result is unique and deterministic.
    """
    if not values:
        raise ValueError("median of an empty sequence")
    return _prec_order(values)[len(values) // 2]


def _build(vectors: list, depth: int, k: int):
    p = len(vectors)
    if p == 1:
        return KdLeaf(vectors[0])
    i = depth % k
    col = [v[i] for v in vectors]
    order = _prec_order(col)
    h = p // 2
    mpos = order[h]
    mu = col[mpos]
    # both children keep the input's position order; the median goes last
    left = [vectors[j] for j in sorted(order[:h])]
    right = [vectors[j] for j in sorted(order[h + 1:])]
    right.append(vectors[mpos])
    return KdSplit(mu, depth, _build(left, depth + 1, k), _build(right, depth + 1, k),
                   col[order[h - 1]] == mu)


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
    u = st.u
    if type(node) is KdLeaf:
        # core.compare_counted inlined, with its count: k for equal vectors,
        # else the scan up to the first coordinate against the direction of
        # the first difference, plus the direction check
        v = node.vec
        k = st.k
        if u == v:
            st.comps += k
            return not strict
        if u < v:  # lexicographic: the first difference is an increase
            for j in range(k):
                if u[j] > v[j]:
                    st.comps += j + 2
                    return False
            st.comps += k + 1
            return True
        for j in range(k):
            if u[j] < v[j]:
                st.comps += j + 2
                return False
        st.comps += k + 1
        return False
    lb = st.lb
    i = node.depth % st.k
    mu = node.value
    ui = u[i]
    old = lb[i]
    # descend right: the right region's bound on coordinate i rises to mu
    c = st.c
    strict_dims = st.strict_dims
    if mu > old:
        st.comps += 3
        lb[i] = mu
        if old < ui <= mu:
            st.c = c - 1
        if old <= ui < mu:
            st.strict_dims = strict_dims + 1
    else:
        st.comps += 1
    if st.c == 0 and (not strict or st.strict_dims > 0):
        # every vector in the right region dominates u (strictly if needed)
        lb[i] = old
        st.c = c
        st.strict_dims = strict_dims
        return True
    r_right = _search(node.right, st, strict)
    lb[i] = old
    st.c = c
    st.strict_dims = strict_dims
    st.comps += 1
    if ui < mu or (ui == mu and node.left_allows_equal):
        # the left region can still contain a dominator of u
        return _search(node.left, st, strict) or r_right
    return r_right


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
