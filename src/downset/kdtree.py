"""k-d tree backend for downsets.

The tree splits the vector collection on a cyclically chosen coordinate at
the median of a stable sort of the node's vectors on that coordinate, which
guarantees balanced splits even with repeated values.  Ties keep the order
of the node's own list: its parent's sorted order, and at the root the
input's order (lexicographic for an antichain).  The first floor(p/2)
vectors of the sorted list form the left child and the rest the right, so
the right child holds the ceil(p/2) largest entries of the split coordinate
and starts with the median.  A list of at most ``_LEAF`` = 8 vectors is
never split: it is a leaf, the half of its parent's sorted list (at the
root, the input's own order) holding the input's own tuples, after the
bucket of Friedman, Bentley & Finkel (ACM TOMS 1977).  The empty tree is
``None``.

The tree is split lazily: ``build_kdtree`` splits only the root, and a
child stays a pending vector list until a search first descends into it
(or ``left``/``right`` is read), so a query pays only for the nodes it
reaches and each node is split at most once.  A node of more than
``_LEAF`` vectors is split by one stable C sort keyed on the split
coordinate, cut in two halves: O(p log p) per node and O(n log^2 n) for a
full build.

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
neither tested nor split.  It is one loop with no recursion: an explicit
stack holds each split where it went right, with the bound and counter to
restore when a miss backs up to try that split's left branch.  A leaf is
scanned in one loop from its last vector to its first, which is right
first too, since the list is sorted on its parent's coordinate.  Each
vector is tested in place on the query's positive components alone, which
the search lists once: a stored component is natural, so a zero one never
exceeds it.  The test stops at the first component ``j`` where the query
exceeds the vector and counts ``j + 1``, or counts ``k`` at a dominator,
the verdict and count of the definition-level one-way scan; each vector
tested counts one node visit, as each split visited does.
Membership is the tree's only query: ``core.union`` and ``core.intersect``
need no other.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector

# A list of at most this many vectors is a leaf, scanned and never split.
_LEAF = 8


class KdSplit:
    """Internal node: ``value`` is the split coordinate's median value,
    ``axis`` that coordinate (``depth % dim``, stored so that a visit reads
    it) and ``dim`` the length of the vectors below it.  A leaf is a list
    of at most ``_LEAF`` vectors, the input's own tuples.

    ``left_allows_equal`` records whether the left subtree received vectors
    whose split coordinate equals the median (possible only with repeated
    values, where ties keep the list's order); exact left-branch pruning
    needs this bit.

    A child is a half of the sorted list, the median first on the right.
    A half of more than ``_LEAF`` vectors stays pending until it is first
    reached; ``left`` and ``right`` split it on access, as the search does,
    and return a smaller half as it is, the leaf.
    """

    __slots__ = ("value", "depth", "axis", "dim", "_left", "_right", "left_allows_equal")

    def __init__(self, value: int, depth: int, axis: int, dim: int, left: list, right: list,
                 left_allows_equal: bool):
        self.value = value
        self.depth = depth
        self.axis = axis
        self.dim = dim
        self._left = left
        self._right = right
        self.left_allows_equal = left_allows_equal

    @property
    def left(self):
        left = self._left
        if type(left) is list and len(left) > _LEAF:
            left = self._left = _split(left, self.depth + 1)
        return left

    @property
    def right(self):
        right = self._right
        if type(right) is list and len(right) > _LEAF:
            right = self._right = _split(right, self.depth + 1)
        return right


def _split(vectors: list, depth: int) -> KdSplit:
    """The split over more than ``_LEAF`` ``vectors``, whose children, the
    two halves of a stable sort of ``vectors`` on the split coordinate, are
    left pending."""
    k = len(vectors[0])
    i = depth % k
    # stable, so ties keep the list's order: the first h go left, the
    # median is the first on the right
    order = sorted(vectors, key=itemgetter(i))
    h = len(order) // 2
    mu = order[h][i]
    return KdSplit(mu, depth, i, k, order[:h], order[h:], order[h - 1][i] == mu)


def build_kdtree(source):
    """Build a balanced tree from an antichain or a raw vector collection.

    Only the root is split here, by one stable sort of the input in its
    own order (an antichain's is lexicographic); every other node is split
    when first reached.  An input of at most ``_LEAF`` vectors is one leaf,
    a list in the input's order.  Raw collections may contain duplicates
    and comparable vectors, but their vectors must have one length of at
    least 1 and natural components, as an antichain's have: the search
    relies on both.  The leaves always reproduce the input exactly.  The
    empty tree is ``None``.
    """
    if isinstance(source, Antichain):
        vectors = source.vectors
    else:
        vectors = [tuple(v) for v in source]
        if any(len(v) != len(vectors[0]) for v in vectors):
            raise DimensionMismatch("mixed vector lengths")
        if vectors and not vectors[0]:
            raise ValueError("dimension must be at least 1")
        for v in vectors:
            for x in v:
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    raise ValueError(f"components must be natural numbers, got {x!r}")
    if len(vectors) > _LEAF:
        return _split(vectors, 0)
    return list(vectors) if vectors else None


def tree_height(tree) -> int:
    """Splits on the longest root-to-leaf path: 0 for a leaf."""
    if type(tree) is not KdSplit:
        return 0
    return 1 + max(tree_height(tree.left), tree_height(tree.right))


def _search(tree, u: Vector, stats: Optional[Stats]) -> bool:
    """Is there a dominator of ``u`` in the non-empty ``tree``?  One loop
    over the nodes, right child first; ``stack`` holds a frame
    ``(node, old, c)`` for each split where the search went right, and a
    miss resumes at the innermost frame whose left region can still hold a
    dominator."""
    k = len(u)
    lb = [0] * k
    # a stored component is natural, so only a positive one of u can exceed it
    positive = [(j, x) for j, x in enumerate(u) if x > 0]
    c = len(positive)
    visits = comps = 0
    stack = []
    node = tree
    while True:
        if type(node) is KdSplit:
            visits += 1
            i = node.axis
            mu = node.value
            old = lb[i]
            stack.append((node, old, c))
            # descend right: the right region's bound on coordinate i rises to mu
            if mu > old:
                comps += 3
                lb[i] = mu
                if old < u[i] <= mu:
                    c -= 1
            else:
                comps += 1
            if c == 0:
                # every vector in the right region dominates u
                found = True
                break
            right = node._right
            if type(right) is list and len(right) > _LEAF:  # first descent: split it
                right = node._right = _split(right, node.depth + 1)
            node = right
            continue
        # the leaf, last vector first, each with the verdict and count of
        # the definition-level one-way scan
        for v in reversed(node):
            visits += 1
            for j, x in positive:
                if x > v[j]:
                    comps += j + 1
                    break
            else:
                comps += k
                break
        else:
            # no vector of the leaf dominates u: back up
            while stack:
                node, old, c = stack.pop()
                i = node.axis
                lb[i] = old
                comps += 1
                ui = u[i]
                if ui < node.value or (ui == node.value and node.left_allows_equal):
                    # the left region can still contain a dominator of u
                    left = node._left
                    if type(left) is list and len(left) > _LEAF:
                        left = node._left = _split(left, node.depth + 1)
                    node = left
                    break
            else:
                found = False
                break
            continue
        # the first dominator answers the query, so a member query pays for
        # the path to it and the branches tried before; no left branch on
        # that path is tested or split
        found = True
        break
    if stats is not None:
        stats.comparisons += comps
        stats.node_visits += visits
    return found


def tree_dim(tree) -> Optional[int]:
    """Vector length stored in the tree, or None for the empty tree; read
    from the root, which splits nothing."""
    if tree is None:
        return None
    return tree.dim if type(tree) is KdSplit else len(tree[0])


def member_kdtree(tree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """True iff some leaf vector dominates ``u``."""
    if tree is None:
        return False
    u = tuple(u)
    if len(u) != tree_dim(tree):
        raise DimensionMismatch("query length does not match tree dimension")
    return _search(tree, u, stats)


# The downset index protocol (core.DownsetIndex) of this backend.
build, member = build_kdtree, member_kdtree
