"""k-d tree backend for downsets.

The tree splits the vector collection on a cyclically chosen coordinate at
the median under the tie-breaking order "smaller value, then smaller
position", which guarantees balanced splits even with repeated values.  The
median vector goes to the right subtree, so the right child holds the
ceil(p/2) largest entries of the split coordinate and the left child the
rest.  Both children keep the input's position order, the median last.
A leaf is its vector tuple itself, and the empty tree is ``None``.

The tree is split lazily: ``build_kdtree`` splits only the root, and a
child stays a pending vector list until a search first descends into it
(or ``left``/``right`` is read), so a query pays only for the nodes it
reaches and each node is split at most once.  A split takes one C sort of
the split coordinate's values for the median and one linear pass that
deals the vectors out: values below the median left, values above it
right, and of the positions equal to it the first few left (to fill the
left half), the next one as the median, the rest right.  That is
O(p log p) per node and O(n log^2 n) for a full build.

Concurrent searches of one tree are safe: a split is deterministic, so a
race can only split one node twice into equal subtrees, and every search
returns the same answer and counts.

Membership search keeps a running lower bound of the current node's region
and a counter of coordinates where the bound is still below the query; the
counter hitting zero certifies that every vector in the region dominates
the query, in constant time per descent.  Left branches whose region cannot
contain a dominator are pruned by comparing the split value against the
query coordinate.  The search tries the right child first and returns at
the first dominator it finds, so a member query pays for the path to that
dominator and the branches tried before it; a left branch after a hit is
neither tested nor split.  A leaf is tested in place by the one-way scan of
``core.member_list``, counted as there, so a query allocates nothing more.
Membership is the tree's only query: ``core.union`` and ``core.intersect``
need no other.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector


class KdSplit:
    """Internal node: ``value`` is the split coordinate's median value.
    A leaf is its vector, the tuple itself.

    ``left_allows_equal`` records whether the left subtree received vectors
    whose split coordinate equals the median (possible only with repeated
    values, where ties broke on position); exact left-branch pruning needs
    this bit.

    A child stays a pending vector list (position order, the median last
    on the right) until it is first reached; ``left`` and ``right`` split
    it on access, as the search does.
    """

    __slots__ = ("value", "depth", "_left", "_right", "left_allows_equal")

    def __init__(self, value: int, depth: int, left: list, right: list, left_allows_equal: bool):
        self.value = value
        self.depth = depth
        self._left = left
        self._right = right
        self.left_allows_equal = left_allows_equal

    @property
    def left(self):
        left = self._left
        if type(left) is list:
            left = self._left = _split(left, self.depth + 1)
        return left

    @property
    def right(self):
        right = self._right
        if type(right) is list:
            right = self._right = _split(right, self.depth + 1)
        return right


def _split(vectors: list, depth: int):
    """One node over ``vectors``: a leaf (the one vector), or a split whose
    children are left pending."""
    p = len(vectors)
    if p == 1:
        return vectors[0]
    i = depth % len(vectors[0])
    col = [v[i] for v in vectors]
    s = sorted(col)
    h = p // 2
    mu = s[h]
    # the h smallest under value-then-position go left: every value below
    # mu, then the first mu-valued positions; the next one is the median
    ties = h - bisect_left(s, mu)
    left: list = []
    right: list = []
    median = None
    for v, x in zip(vectors, col):
        if x < mu:
            left.append(v)
        elif x > mu:
            right.append(v)
        elif ties:
            left.append(v)
            ties -= 1
        elif median is None:
            median = v
        else:
            right.append(v)
    right.append(median)
    return KdSplit(mu, depth, left, right, s[h - 1] == mu)


def build_kdtree(source):
    """Build a balanced tree from an antichain or a raw vector collection.

    Only the root is split here; every other node is split when first
    reached.  Raw collections may contain duplicates and comparable
    vectors; the leaves always reproduce the input exactly.  The empty
    tree is ``None``.
    """
    if isinstance(source, Antichain):
        vectors = source.vectors
    else:
        vectors = [tuple(v) for v in source]
        if any(len(v) != len(vectors[0]) for v in vectors):
            raise DimensionMismatch("mixed vector lengths")
    return _split(vectors, 0) if vectors else None


def tree_height(tree) -> int:
    if type(tree) is not KdSplit:
        return 0
    return 1 + max(tree_height(tree.left), tree_height(tree.right))


class _Search:
    """Per-query mutable state: region lower bounds, the pending-coordinate
    counter, and instrumentation."""

    __slots__ = ("u", "k", "lb", "c", "visits", "comps")

    def __init__(self, u: Vector):
        self.u = u
        self.k = len(u)
        self.lb = [0] * self.k
        self.c = sum(1 for x in u if x > 0)
        self.visits = 0
        self.comps = 0


def _search(node, st: _Search) -> bool:
    st.visits += 1
    u = st.u
    if type(node) is tuple:
        # the one-way scan of core.member_list, with its count
        v = node
        k = st.k
        j = 0
        while j < k and u[j] <= v[j]:
            j += 1
        if j == k:
            st.comps += k
            return True
        st.comps += j + 1
        return False
    lb = st.lb
    i = node.depth % st.k
    mu = node.value
    ui = u[i]
    old = lb[i]
    # descend right: the right region's bound on coordinate i rises to mu
    c = st.c
    if mu > old:
        st.comps += 3
        lb[i] = mu
        if old < ui <= mu:
            st.c = c - 1
    else:
        st.comps += 1
    if st.c == 0:
        # every vector in the right region dominates u
        lb[i] = old
        st.c = c
        return True
    right = node._right
    if type(right) is list:  # first descent: split the pending child
        right = node._right = _split(right, node.depth + 1)
    found = _search(right, st)
    lb[i] = old
    st.c = c
    if found:
        # the first dominator answers the query, so a member query pays for
        # the path to it and the branches tried before; the left branch
        # here is neither tested nor split
        return True
    st.comps += 1
    if ui < mu or (ui == mu and node.left_allows_equal):
        # the left region can still contain a dominator of u
        left = node._left
        if type(left) is list:
            left = node._left = _split(left, node.depth + 1)
        return _search(left, st)
    return False


def tree_dim(tree) -> Optional[int]:
    """Vector length stored in the tree, or None for the empty tree."""
    node = tree
    while type(node) is KdSplit:
        node = node._left  # read without splitting
    if node is None:
        return None
    return len(node) if type(node) is tuple else len(node[0])


def member_kdtree(tree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """True iff some leaf vector dominates ``u``."""
    if tree is None:
        return False
    u = tuple(u)
    if len(u) != tree_dim(tree):
        raise DimensionMismatch("query length does not match tree dimension")
    st = _Search(u)
    result = _search(tree, st)
    if stats is not None:
        stats.comparisons += st.comps
        stats.node_visits += st.visits
    return result


# The downset index protocol (core.DownsetIndex) of this backend.
build, member = build_kdtree, member_kdtree
