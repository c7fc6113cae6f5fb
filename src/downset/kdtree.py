"""k-d tree backend for downsets.

The tree splits the vector collection on a cyclically chosen coordinate at
the median of a stable sort of the node's vectors on that coordinate, which
guarantees balanced splits even with repeated values.  Ties keep the order
of the node's own list: its parent's sorted order, and at the root the
input's order (lexicographic for an antichain).  The first floor(p/2)
vectors of the sorted list form the left child and the rest the right, so
the right child holds the ceil(p/2) largest entries of the split coordinate
and starts with the median.  A leaf is its vector tuple itself, and the
empty tree is ``None``.

The tree is split lazily: ``build_kdtree`` splits only the root, and a
child stays a pending vector list until a search first descends into it
(or ``left``/``right`` is read), so a query pays only for the nodes it
reaches and each node is split at most once.  A split is one stable C sort
of the node's vectors keyed on the split coordinate, cut in two halves;
no Python loop runs over the vectors.  That is O(p log p) per node and
O(n log^2 n) for a full build.

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

from operator import itemgetter
from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector


class KdSplit:
    """Internal node: ``value`` is the split coordinate's median value and
    ``dim`` the length of the vectors below it.  A leaf is its vector, the
    tuple itself.

    ``left_allows_equal`` records whether the left subtree received vectors
    whose split coordinate equals the median (possible only with repeated
    values, where ties keep the list's order); exact left-branch pruning
    needs this bit.

    A child stays a pending vector list (a half of the sorted list, the
    median first on the right) until it is first reached; ``left`` and
    ``right`` split it on access, as the search does.
    """

    __slots__ = ("value", "depth", "dim", "_left", "_right", "left_allows_equal")

    def __init__(self, value: int, depth: int, dim: int, left: list, right: list,
                 left_allows_equal: bool):
        self.value = value
        self.depth = depth
        self.dim = dim
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
    children, the two halves of one stable sort of ``vectors`` on the
    split coordinate, are left pending."""
    p = len(vectors)
    if p == 1:
        return vectors[0]
    k = len(vectors[0])
    i = depth % k
    # stable, so ties keep the list's order: the first h go left, the
    # median is the first on the right
    order = sorted(vectors, key=itemgetter(i))
    h = p // 2
    mu = order[h][i]
    return KdSplit(mu, depth, k, order[:h], order[h:], order[h - 1][i] == mu)


def build_kdtree(source):
    """Build a balanced tree from an antichain or a raw vector collection.

    Only the root is split here, by one stable sort of the input in its
    own order (an antichain's is lexicographic); every other node is split
    when first reached.  Raw collections may contain duplicates and
    comparable vectors, but not vectors of length 0; the leaves always
    reproduce the input exactly.  The empty tree is ``None``.
    """
    if isinstance(source, Antichain):
        vectors = source.vectors
    else:
        vectors = [tuple(v) for v in source]
        if any(len(v) != len(vectors[0]) for v in vectors):
            raise DimensionMismatch("mixed vector lengths")
        if vectors and not vectors[0]:
            raise ValueError("dimension must be at least 1")
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
        self.c = len([x for x in u if x > 0])
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
    """Vector length stored in the tree, or None for the empty tree; read
    from the root, which splits nothing."""
    if tree is None:
        return None
    return len(tree) if type(tree) is tuple else tree.dim


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
