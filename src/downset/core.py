"""Vectors, the product order, and canonical antichains.

A downward-closed set of natural vectors is represented by the antichain of
its maximal elements.  This module provides the componentwise order
(:func:`leq`), meets, the maximal-element reduction, and union and
intersection written once over a backend's index (:class:`DownsetIndex`),
which needs only ``build`` and ``member``.  Only an operand of two or more
members gets an index: :func:`member`, :func:`union` and :func:`intersect`
query an empty or one-member operand by :func:`member_list`, which visits
no node.  The list backend, whose index is the antichain itself, doubles
as the correctness oracle for every other backend in the package.

A dominator of ``u`` is lexicographically at least ``u``, and the members
are sorted so.  A list query binary-searches for the first member not
below ``u`` and scans only from there, testing each member from component
1 on, since its first component is already at least ``u[0]``; the
pairwise reduction tests each vector against lexicographically larger
kept ones, from component 1 too.  The scan stays linear in the members,
as the paper's list bound says, and every verdict is the one-way scan's.

Vectors are plain tuples of non-negative ints.  Antichains are immutable
values.  Every operation on antichains counts its work into the ``stats``
its caller passes, and ``stats=None`` means nothing is counted; the
vector helpers :func:`leq` and :func:`meet` count nothing.  Counting never
changes which algorithm runs.

The maximal-element reduction picks its kernel by the number of distinct
vectors alone.  Below ``_BITSET_MIN`` = 32, as in the parity solver's
images of 1 to 4 vectors, it runs the pairwise scan, which counts its
scalar comparisons.  From 32 on (large meet sets of :func:`intersect`,
parsing) it runs a word-parallel bitset kernel (after Tan, Eng & Ooi,
VLDB 2001): one sort and one pass per coordinate, O(k·m) big-int
operations for m ≤ ``_BITSET_BLOCK`` = 1024 vectors, and blocks of that
many candidates beyond, so its masks take about 1024·m bits.  It counts
the column entries its walks visit, ``k·hi`` for a block ending at
position ``hi``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Protocol, Sequence

Vector = tuple  # tuple[int, ...]

# Reductions of at least this many distinct vectors use the bitset kernel,
# which reduces them in blocks of _BITSET_BLOCK candidates.
_BITSET_MIN = 32
_BITSET_BLOCK = 1024


class DimensionMismatch(ValueError):
    """Operands have incompatible vector lengths."""


class VectorSetFormatError(ValueError):
    """Malformed vector-set file; message carries the offending line number."""


class Stats:
    """Mutable operation counters shared by all backends.

    ``comparisons`` counts scalar comparisons between vector components,
    and for a bitset reduction the column entries its walks visit,
    ``k·hi`` per block ``[lo, hi)`` (see :func:`_max_of`).  A tree
    backend's dominance test is the definition-level one-way scan and
    counts as it does: ``j + 1`` when the queried vector exceeds the other
    at component ``j``, ``k`` when it is dominated.  A list query
    (:func:`member_list`) counts one per probe of its binary search, then,
    per member scanned from the cut, ``j`` when the test fails at component
    ``j`` and ``k - 1`` at a dominator; the pairwise reduction counts its
    tests the same way, from component 1.
    ``node_visits`` counts tree nodes touched during queries; in a k-d
    tree, whose leaves hold up to 8 vectors, these are the splits visited
    and the leaf vectors tested.
    """

    __slots__ = ("comparisons", "node_visits")

    def __init__(self, comparisons: int = 0, node_visits: int = 0):
        self.comparisons = comparisons
        self.node_visits = node_visits

    def __repr__(self) -> str:
        return f"Stats(comparisons={self.comparisons}, node_visits={self.node_visits})"


def _check_dims(u: Sequence[int], v: Sequence[int]) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")


def leq(u: Vector, v: Vector) -> bool:
    """Is ``u <= v`` componentwise?  The definition-level one-way scan from
    component 0, uncounted; :func:`member_list` and the pairwise reduction
    run it from component 1 on vectors whose first component is already
    known to be large enough."""
    _check_dims(u, v)
    k = len(u)
    j = 0
    while j < k and u[j] <= v[j]:
        j += 1
    return j == k


def meet(u: Vector, v: Vector) -> Vector:
    """Componentwise minimum."""
    _check_dims(u, v)
    return tuple(a if a < b else b for a, b in zip(u, v))


def _max_of(vectors: Iterable[Vector], stats: Optional[Stats] = None) -> list:
    """Maximal elements of a vector collection, sorted ascending.

    Deduplicates and sorts descending lexicographically, then reduces with
    :func:`_max_of_bitset` if there are at least ``_BITSET_MIN`` distinct
    vectors, else with :func:`_max_of_pairwise`; ``stats`` only counts.
    The pairwise scan counts its scalar comparisons.  The bitset kernel
    counts ``k·hi`` for each block ``[lo, hi)`` of candidates: the column
    entries its ``k`` coordinate walks visit, each walk covering the
    ``hi`` vectors up to the block's end.
    """
    uniq = sorted(set(vectors), reverse=True)
    if len(uniq) >= _BITSET_MIN:
        return _max_of_bitset(uniq, stats)
    return _max_of_pairwise(uniq, stats)


def _max_of_pairwise(uniq: list, stats: Optional[Stats] = None) -> list:
    """Maximal elements of distinct vectors sorted descending
    lexicographically, returned sorted ascending.

    A vector is kept unless one of the already-kept vectors dominates it.
    A dominator is always lexicographically larger, so it was processed
    earlier; dominated dominators are themselves covered by a kept vector
    by transitivity.  Every kept vector is lexicographically larger than
    the one tested, so its first component is at least as large, and each
    test is :func:`member_list`'s one-way scan from component 1, counted
    as there: ``j`` when the tested vector exceeds the kept one at
    component ``j``, ``k - 1`` when it is dominated.
    """
    kept: list = []
    comps = 0
    k = len(uniq[0]) if uniq else 0
    for v in uniq:
        for c in kept:
            j = 1
            while j < k and v[j] <= c[j]:
                j += 1
            if j == k:
                comps += k - 1
                break
            comps += j
        else:
            kept.append(v)
    if stats is not None:
        stats.comparisons += comps
    kept.sort()
    return kept


def _max_of_bitset(uniq: list, stats: Optional[Stats] = None) -> list:
    """Maximal elements of distinct vectors sorted descending
    lexicographically, returned sorted ascending.

    Candidates are taken in blocks of ``_BITSET_BLOCK`` consecutive vectors;
    only a vector at or before a block's end can dominate one of its
    members.  A bitmask over the block is kept for each such vector ``u``:
    the members that precede ``u`` in some coordinate's walk.  A walk visits
    the vectors in descending value order, equal values in list order (the
    sort is stable), and ORs into each vector's mask the running OR of the
    members visited before it.  A member ``c`` missing from the mask of
    another vector ``u`` follows ``u`` in every walk, so ``u`` is at least
    as large in every coordinate.  Conversely a dominator ``u`` of ``c`` is
    lexicographically larger, so it comes first in the list and precedes
    ``c`` in every walk, ties included.  A member is maximal exactly when
    every other vector's mask holds it.
    """
    m = len(uniq)
    cols = list(zip(*uniq))
    kept: list = []
    for lo in range(0, m, _BITSET_BLOCK):
        hi = min(lo + _BITSET_BLOCK, m)
        bits = [0] * lo + [1 << p for p in range(hi - lo)]
        # a member's own bit starts set: it must not count as its own dominator
        above = bits[:]
        for col in cols:
            running = 0
            for j in sorted(range(hi), key=col.__getitem__, reverse=True):
                above[j] |= running
                running |= bits[j]
        full = (1 << (hi - lo)) - 1
        dominated = 0
        for mask in above:
            dominated |= full ^ mask
        kept.extend(uniq[j] for j in range(lo, hi) if not dominated >> (j - lo) & 1)
        if stats is not None:
            stats.comparisons += len(cols) * hi
    kept.reverse()
    return kept


class Antichain:
    """Canonical set of pairwise-incomparable vectors.

    ``vectors`` is a lexicographically sorted tuple, so equal downsets have
    structurally equal antichains regardless of which backend produced them.
    Construction runs arbitrary input through the maximal-element reduction.
    """

    __slots__ = ("dim", "vectors")

    def __init__(self, vectors: Iterable[Vector] = (), dim: Optional[int] = None):
        vecs = [tuple(v) for v in vectors]
        if dim is None:
            if not vecs:
                raise ValueError("dimension required for an empty antichain")
            dim = len(vecs[0])
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        for v in vecs:
            if len(v) != dim:
                raise DimensionMismatch(f"expected dimension {dim}, got vector of length {len(v)}")
            for x in v:
                if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                    raise ValueError(f"components must be natural numbers, got {x!r}")
        self.dim = dim
        self.vectors = tuple(_max_of(vecs))

    @classmethod
    def _from_maximal(cls, dim: int, sorted_vectors) -> "Antichain":
        """Trusted constructor for vectors already maximal, distinct, sorted."""
        ac = cls.__new__(cls)
        ac.dim = dim
        ac.vectors = tuple(sorted_vectors)
        return ac

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.vectors)

    def __contains__(self, v) -> bool:
        """Is ``v`` a member (not merely dominated)?  A binary search of the
        sorted ``vectors``."""
        v = tuple(v)
        if len(v) != self.dim:
            return False
        vectors = self.vectors
        i = bisect_left(vectors, v)
        return i < len(vectors) and vectors[i] == v

    def __eq__(self, other) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash((self.dim, self.vectors))

    def __repr__(self) -> str:
        return f"Antichain(dim={self.dim}, vectors={list(self.vectors)!r})"


def maxac(vectors: Iterable[Vector], dim: Optional[int] = None) -> Antichain:
    """Antichain of maximal elements of a finite collection of natural vectors.

    Checks vector lengths, not components: callers pass vectors they built
    or validated, and ``Antichain(...)`` is the constructor that validates.
    """
    vecs = [tuple(v) for v in vectors]
    if dim is None and not vecs:
        raise ValueError("dimension required for an empty collection")
    if dim is None:
        dim = len(vecs[0])
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatch(f"expected dimension {dim}, got vector of length {len(v)}")
    return Antichain._from_maximal(dim, _max_of(vecs))


def member_list(ac: Antichain, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Membership of ``u`` in the downset: does some member dominate ``u``?

    A dominator of ``u`` is lexicographically at least ``u``, so a binary
    search of the sorted ``vectors`` finds the cut, the first member not
    below ``u``, and the scan starts there.  Every member from the cut on
    has a first component at least ``u[0]``, so its one-way test
    ``while j < k and u[j] <= v[j]`` starts at component 1.  Counted: one
    comparison per probe of the search, then per member scanned ``j`` when
    ``u`` exceeds it at component ``j``, ``k - 1`` at a dominator.
    """
    u = tuple(u)
    if len(u) != ac.dim:
        raise DimensionMismatch(f"query has length {len(u)}, set has dimension {ac.dim}")
    vectors = ac.vectors
    lo, hi = 0, len(vectors)
    comps = 0
    while lo < hi:
        mid = (lo + hi) // 2
        comps += 1
        if vectors[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    k = ac.dim
    found = False
    for v in vectors[lo:]:
        j = 1
        while j < k and u[j] <= v[j]:
            j += 1
        if j == k:
            comps += k - 1
            found = True
            break
        comps += j
    if stats is not None:
        stats.comparisons += comps
    return found


class DownsetIndex(Protocol):
    """What a backend provides for :func:`union`, :func:`intersect` and
    :func:`member`: an index ``build`` from an antichain, and ``member``
    queries on it that count their work into ``stats``.  Those functions
    build an index only for an operand of two or more members and scan a
    smaller one with :func:`member_list`.

    The backend modules ``kdtree``, ``sharingtree`` and ``cst`` are passed
    as the index themselves: the functions are looked up on every call, so
    a wrapper installed on the module sees each build made and each query.
    """

    def build(self, ac: Antichain): ...

    def member(self, index, u: Vector, stats: Optional[Stats] = None) -> bool: ...


class ListIndex:
    """The list backend's index: the antichain is its own index."""

    @staticmethod
    def build(ac: Antichain) -> Antichain:
        return ac

    @staticmethod
    def member(index: Antichain, u: Vector, stats: Optional[Stats] = None) -> bool:
        # member_list is looked up on every call, so a wrapper installed on
        # this module sees the list queries of union and intersect too
        return member_list(index, u, stats)


def member(index: DownsetIndex, ac: Antichain, u: Vector,
           stats: Optional[Stats] = None) -> bool:
    """Membership of ``u`` through an index built for this one query, or by
    :func:`member_list` when ``ac`` has at most one member."""
    if len(ac.vectors) < 2:
        return member_list(ac, u, stats)
    u = tuple(u)
    if len(u) != ac.dim:
        raise DimensionMismatch(f"query has length {len(u)}, set has dimension {ac.dim}")
    return index.member(index.build(ac), u, stats)


def union(index: DownsetIndex, a: Antichain, b: Antichain,
          stats: Optional[Stats] = None) -> Antichain:
    """Union of downsets: members of either antichain not strictly dominated
    by a member of the other, shared vectors kept once.

    No member of an antichain dominates another, so a member of one operand
    that is not in the other is strictly dominated exactly when it lies in
    the other's downset.  Shared members are kept without a query; each
    other member costs one membership query on the other operand: on its
    index, built once, if it has two or more members, else by
    :func:`member_list`.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    ia, query_a = (index.build(a), index.member) if len(a.vectors) > 1 else (a, member_list)
    ib, query_b = (index.build(b), index.member) if len(b.vectors) > 1 else (b, member_list)
    in_a, in_b = set(a.vectors), set(b.vectors)
    kept = []
    for u in a.vectors:
        if u in in_b or not query_b(ib, u, stats):
            kept.append(u)
    for v in b.vectors:
        if v not in in_a and not query_a(ia, v, stats):
            kept.append(v)
    return Antichain._from_maximal(a.dim, sorted(kept))


def intersect(index: DownsetIndex, a: Antichain, b: Antichain,
              stats: Optional[Stats] = None) -> Antichain:
    """Intersection of downsets via meets of member pairs.

    A member of one antichain that already lies in the other downset
    contributes only itself: all its meets are dominated by it, so they are
    skipped.  The remaining meets are reduced by :func:`_max_of`.  Each
    operand of two or more members is queried on its index, built once;
    a smaller one by :func:`member_list`.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    ia, query_a = (index.build(a), index.member) if len(a.vectors) > 1 else (a, member_list)
    ib, query_b = (index.build(b), index.member) if len(b.vectors) > 1 else (b, member_list)
    candidates: list = []
    a_rest = []
    for u in a.vectors:
        if query_b(ib, u, stats):
            candidates.append(u)
        else:
            a_rest.append(u)
    b_rest = []
    for v in b.vectors:
        if query_a(ia, v, stats):
            candidates.append(v)
        else:
            b_rest.append(v)
    for u in a_rest:
        for v in b_rest:
            candidates.append(tuple(x if x < y else y for x, y in zip(u, v)))
    return Antichain._from_maximal(a.dim, _max_of(candidates, stats))


def union_list(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """:func:`union` on the list backend."""
    return union(ListIndex, a, b, stats)


def intersect_list(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """:func:`intersect` on the list backend."""
    return intersect(ListIndex, a, b, stats)


# ---------------------------------------------------------------------------
# Vector-set text format, shared by every command that reads or writes sets.
#
#   # comment lines and blank lines are ignored
#   dim <k>
#   <k space-separated naturals per line, in ASCII decimal digits>
#
# Input may contain duplicates and dominated vectors; loading canonicalizes.
# The writer emits `dim <k>` and then the members sorted lexicographically
# ascending, single spaces, each line newline-terminated.
# ---------------------------------------------------------------------------

def parse_vector_set(text: str) -> Antichain:
    dim: Optional[int] = None
    vectors: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if dim is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "dim":
                raise VectorSetFormatError(f"line {lineno}: expected 'dim <k>', got {line!r}")
            if not (parts[1].isascii() and parts[1].isdigit()):
                raise VectorSetFormatError(f"line {lineno}: bad dimension {parts[1]!r}")
            dim = int(parts[1])
            if dim < 1:
                raise VectorSetFormatError(f"line {lineno}: dimension must be at least 1")
            continue
        parts = line.split()
        if len(parts) != dim:
            raise VectorSetFormatError(
                f"line {lineno}: expected {dim} components, got {len(parts)}")
        digits = "".join(parts)
        if not (digits.isascii() and digits.isdigit()):
            negative = any(p[0] == "-" and p[1:].isdigit() for p in parts)
            kind = "negative" if negative else "non-integer"
            raise VectorSetFormatError(f"line {lineno}: {kind} component in {line!r}")
        vectors.append(tuple(map(int, parts)))
    if dim is None:
        raise VectorSetFormatError("missing 'dim <k>' header line")
    return maxac(vectors, dim=dim)


def format_vector_set(ac: Antichain) -> str:
    lines = [f"dim {ac.dim}"]
    if ac.vectors:
        row = " ".join(["%d"] * ac.dim)
        lines.extend([row % v for v in ac.vectors])
    return "\n".join(lines) + "\n"


def load_vector_set(path) -> Antichain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector_set(fh.read())


def save_vector_set(ac: Antichain, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_vector_set(ac))
