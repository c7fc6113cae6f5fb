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
reaches and each node is split at most once.  A node of three or more
vectors is split by one stable C sort keyed on the split coordinate, cut
in two halves: O(p log p) per node and O(n log^2 n) for a full build.  Two
vectors are ordered by one comparison, as the stable sort would order
them, and a pending list of one vector is taken as its leaf with no split.

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
tested in place on the query's positive components alone, which the search
lists once: a stored component is natural, so a zero one never exceeds it.
The test stops at the first component ``j`` where the query exceeds the
leaf and counts ``j + 1``, or counts ``k`` at a dominator, the verdict and
count of the one-way scan of ``core.member_list``.
Membership is the tree's only query: ``core.union`` and ``core.intersect``
need no other.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .core import Antichain, DimensionMismatch, Stats, Vector


class KdSplit:
    """Internal node: ``value`` is the split coordinate's median value,
    ``axis`` that coordinate (``depth % dim``, stored so that a visit reads
    it) and ``dim`` the length of the vectors below it.  A leaf is its
    vector, the tuple itself.

    ``left_allows_equal`` records whether the left subtree received vectors
    whose split coordinate equals the median (possible only with repeated
    values, where ties keep the list's order); exact left-branch pruning
    needs this bit.

    A child stays a pending vector list (a half of the sorted list, the
    median first on the right) until it is first reached; ``left`` and
    ``right`` split it on access, as the search does, and take a list of
    one vector as that leaf.
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
        if type(left) is list:
            left = self._left = left[0] if len(left) == 1 else _split(left, self.depth + 1)
        return left

    @property
    def right(self):
        right = self._right
        if type(right) is list:
            right = self._right = right[0] if len(right) == 1 else _split(right, self.depth + 1)
        return right


def _split(vectors: list, depth: int) -> KdSplit:
    """The split over two or more ``vectors``, whose children, the two
    halves of a stable sort of ``vectors`` on the split coordinate, are
    left pending."""
    k = len(vectors[0])
    i = depth % k
    if len(vectors) == 2:
        # the stable sort of two vectors: the second goes first only if smaller
        a, b = vectors
        if b[i] < a[i]:
            return KdSplit(a[i], depth, i, k, [b], [a], False)
        return KdSplit(b[i], depth, i, k, [a], [b], a[i] == b[i])
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
    when first reached.  Raw collections may contain duplicates and
    comparable vectors, but their vectors must have one length of at least
    1 and natural components, as an antichain's have: the search relies on
    both.  The leaves always reproduce the input exactly.  The empty tree is
    ``None``.
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
    if len(vectors) > 1:
        return _split(vectors, 0)
    return vectors[0] if vectors else None


def tree_height(tree) -> int:
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
        visits += 1
        if type(node) is KdSplit:
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
            if type(right) is list:  # first descent: the pending child's node
                right = node._right = right[0] if len(right) == 1 else _split(right, node.depth + 1)
            node = right
            continue
        # the verdict and count of core.member_list's one-way scan
        for j, x in positive:
            if x > node[j]:
                comps += j + 1
                break
        else:
            # the first dominator answers the query, so a member query pays
            # for the path to it and the branches tried before; no left
            # branch on that path is tested or split
            comps += k
            found = True
            break
        while stack:
            node, old, c = stack.pop()
            i = node.axis
            lb[i] = old
            comps += 1
            ui = u[i]
            if ui < node.value or (ui == node.value and node.left_allows_equal):
                # the left region can still contain a dominator of u
                left = node._left
                if type(left) is list:
                    left = node._left = left[0] if len(left) == 1 else _split(left, node.depth + 1)
                node = left
                break
        else:
            found = False
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
    return len(tree) if type(tree) is tuple else tree.dim


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
