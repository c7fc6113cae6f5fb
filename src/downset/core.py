"""Vectors, the product order, and canonical antichains.

A downward-closed set of natural vectors is represented by the antichain of
its maximal elements.  This module provides the componentwise order, meets,
the maximal-element reduction, and union and intersection written once over
a backend's index (:class:`DownsetIndex`).  The list backend, whose index is
the antichain itself, doubles as the correctness oracle for every other
backend in the package.

Vectors are plain tuples of non-negative ints.  Antichains are immutable
after construction; only their operation counters mutate.  All query
functions accumulate counts locally and merge them once on return, so
concurrent readers never observe torn updates.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Optional, Protocol, Sequence

Vector = tuple  # tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands have incompatible vector lengths."""


class VectorSetFormatError(ValueError):
    """Malformed vector-set file; message carries the offending line number."""


class ComparisonOutcome(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


LESS = ComparisonOutcome.LESS
GREATER = ComparisonOutcome.GREATER
EQUAL = ComparisonOutcome.EQUAL
INCOMPARABLE = ComparisonOutcome.INCOMPARABLE


class Stats:
    """Mutable operation counters shared by all backends.

    ``comparisons`` counts scalar comparisons between vector components;
    ``node_visits`` counts tree nodes touched during queries.
    """

    __slots__ = ("comparisons", "node_visits")

    def __init__(self, comparisons: int = 0, node_visits: int = 0):
        self.comparisons = comparisons
        self.node_visits = node_visits

    def merge(self, comparisons: int = 0, node_visits: int = 0) -> None:
        self.comparisons += comparisons
        self.node_visits += node_visits

    def reset(self) -> None:
        self.comparisons = 0
        self.node_visits = 0

    def __repr__(self) -> str:
        return f"Stats(comparisons={self.comparisons}, node_visits={self.node_visits})"


def _check_dims(u: Sequence[int], v: Sequence[int]) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")


def compare(u: Vector, v: Vector) -> ComparisonOutcome:
    """Componentwise comparison under the product order."""
    _check_dims(u, v)
    less = greater = False
    for a, b in zip(u, v):
        if a < b:
            less = True
        elif a > b:
            greater = True
    if less and greater:
        return INCOMPARABLE
    if less:
        return LESS
    if greater:
        return GREATER
    return EQUAL


def compare_counted(u: Vector, v: Vector, stats: Optional[Stats] = None) -> ComparisonOutcome:
    """Comparison using at most ``k + 1`` scalar comparisons.

    Scans for the first differing component, then checks the remaining
    components in the one direction that is still possible.  Equivalent to
    :func:`compare`; the scalar comparisons are counted into ``stats``.
    """
    _check_dims(u, v)
    k = len(u)
    comps = 0
    i = 0
    while i < k:
        comps += 1
        if u[i] != v[i]:
            break
        i += 1
    else:
        if stats is not None:
            stats.comparisons += comps
        return EQUAL
    comps += 1
    if u[i] < v[i]:
        outcome = LESS
        for j in range(i + 1, k):
            comps += 1
            if u[j] > v[j]:
                outcome = INCOMPARABLE
                break
    else:
        outcome = GREATER
        for j in range(i + 1, k):
            comps += 1
            if u[j] < v[j]:
                outcome = INCOMPARABLE
                break
    if stats is not None:
        stats.comparisons += comps
    return outcome


def meet(u: Vector, v: Vector) -> Vector:
    """Componentwise minimum."""
    _check_dims(u, v)
    return tuple(a if a < b else b for a, b in zip(u, v))


def _max_of(vectors: Iterable[Vector], stats: Optional[Stats] = None) -> list:
    """Maximal elements of a vector collection, sorted ascending.

    Deduplicates, sorts descending lexicographically, and keeps a vector
    unless one of the already-kept vectors dominates it.  A dominator is
    always lexicographically larger, so it was processed earlier; dominated
    dominators are themselves covered by a kept vector by transitivity.
    """
    uniq = sorted(set(vectors), reverse=True)
    kept: list = []
    comps = 0
    for v in uniq:
        dominated = False
        for c in kept:
            n = 0
            below = True
            for a, b in zip(v, c):
                n += 1
                if a > b:
                    below = False
                    break
            comps += n
            if below:
                dominated = True
                break
        if not dominated:
            kept.append(v)
    if stats is not None:
        stats.comparisons += comps
    kept.sort()
    return kept


class Antichain:
    """Canonical set of pairwise-incomparable vectors.

    ``vectors`` is a lexicographically sorted tuple, so equal downsets have
    structurally equal antichains regardless of which backend produced them.
    Construction runs arbitrary input through the maximal-element reduction.
    """

    __slots__ = ("dim", "vectors", "stats")

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
        self.stats = Stats()

    @classmethod
    def _from_maximal(cls, dim: int, sorted_vectors) -> "Antichain":
        """Trusted constructor for vectors already maximal, distinct, sorted."""
        ac = cls.__new__(cls)
        ac.dim = dim
        ac.vectors = tuple(sorted_vectors)
        ac.stats = Stats()
        return ac

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self.vectors)

    def __contains__(self, v) -> bool:
        return tuple(v) in set(self.vectors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Antichain):
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash((self.dim, self.vectors))

    def __repr__(self) -> str:
        return f"Antichain(dim={self.dim}, vectors={list(self.vectors)!r})"

    def max_norm(self) -> int:
        """Largest component over all members (0 for the empty antichain)."""
        return max((max(v) for v in self.vectors), default=0)


def maxac(vectors: Iterable[Vector], dim: Optional[int] = None, stats: Optional[Stats] = None) -> Antichain:
    """Antichain of maximal elements of an arbitrary finite vector collection."""
    vecs = [tuple(v) for v in vectors]
    if dim is None and not vecs:
        raise ValueError("dimension required for an empty collection")
    if dim is None:
        dim = len(vecs[0])
    for v in vecs:
        if len(v) != dim:
            raise DimensionMismatch(f"expected dimension {dim}, got vector of length {len(v)}")
    return Antichain._from_maximal(dim, _max_of(vecs, stats))


def member_list(ac: Antichain, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Membership of ``u`` in the downset: does some member dominate ``u``?

    Linear scan; at most ``k + 1`` scalar comparisons per member.
    """
    u = tuple(u)
    if len(u) != ac.dim:
        raise DimensionMismatch(f"query has length {len(u)}, set has dimension {ac.dim}")
    comps = 0
    k = ac.dim
    found = False
    for v in ac.vectors:
        # inline one-way comparison: scan to first difference, then one direction
        i = 0
        while i < k:
            comps += 1
            if u[i] != v[i]:
                break
            i += 1
        else:
            found = True  # u == v
            break
        comps += 1  # direction check
        if u[i] > v[i]:
            continue  # v cannot dominate u
        ok = True
        for j in range(i + 1, k):
            comps += 1
            if u[j] > v[j]:
                ok = False
                break
        if ok:
            found = True
            break
    tally = stats if stats is not None else ac.stats
    tally.comparisons += comps
    return found


def strict_member_list(ac: Antichain, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Does some member strictly dominate ``u``?  Linear scan."""
    for v in ac.vectors:
        if compare_counted(u, v, stats) is LESS:
            return True
    return False


class DownsetIndex(Protocol):
    """What a backend provides for :func:`union`, :func:`intersect` and
    :func:`member`: an index ``build`` from an antichain, and ``member`` /
    ``strict_member`` queries on it that count their work into ``stats``.

    The backend modules ``kdtree``, ``sharingtree`` and (for membership)
    ``cst`` are passed as the index themselves: the functions are looked up
    on every call, so a wrapper installed on the module sees each build and
    query.
    """

    def build(self, ac: Antichain): ...

    def member(self, index, u: Vector, stats: Optional[Stats] = None) -> bool: ...

    def strict_member(self, index, u: Vector, stats: Optional[Stats] = None) -> bool: ...


class ListIndex:
    """The list backend's index: the antichain is its own index."""

    @staticmethod
    def build(ac: Antichain) -> Antichain:
        return ac

    member = staticmethod(member_list)
    strict_member = staticmethod(strict_member_list)


def member(index: DownsetIndex, ac: Antichain, u: Vector,
           stats: Optional[Stats] = None) -> bool:
    """Membership of ``u`` through an index built for this one query."""
    u = tuple(u)
    if len(u) != ac.dim:
        raise DimensionMismatch(f"query has length {len(u)}, set has dimension {ac.dim}")
    return index.member(index.build(ac), u, stats)


def union(index: DownsetIndex, a: Antichain, b: Antichain,
          stats: Optional[Stats] = None) -> Antichain:
    """Union of downsets: members of either antichain not strictly dominated
    by a member of the other, shared vectors kept once.

    Each operand's index is built once and queried once per member of the
    other operand.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    tally = stats if stats is not None else a.stats
    strict_member = index.strict_member
    ia, ib = index.build(a), index.build(b)
    kept = set()
    for u in a.vectors:
        if not strict_member(ib, u, tally):
            kept.add(u)
    for v in b.vectors:
        if not strict_member(ia, v, tally):
            kept.add(v)
    return Antichain._from_maximal(a.dim, sorted(kept))


def intersect(index: DownsetIndex, a: Antichain, b: Antichain,
              stats: Optional[Stats] = None, optimize: bool = True) -> Antichain:
    """Intersection of downsets via meets of member pairs.

    With ``optimize`` enabled, a member of one antichain that already lies in
    the other downset contributes only itself: all its meets are dominated by
    it, so they are skipped.  The remaining meets are reduced by
    :func:`_max_of`.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimensions differ: {a.dim} vs {b.dim}")
    tally = stats if stats is not None else a.stats
    candidates: list = []
    if optimize:
        member_of = index.member
        ia, ib = index.build(a), index.build(b)
        a_rest = []
        for u in a.vectors:
            if member_of(ib, u, tally):
                candidates.append(u)
            else:
                a_rest.append(u)
        b_rest = []
        for v in b.vectors:
            if member_of(ia, v, tally):
                candidates.append(v)
            else:
                b_rest.append(v)
    else:
        a_rest = list(a.vectors)
        b_rest = list(b.vectors)
    for u in a_rest:
        for v in b_rest:
            candidates.append(tuple(x if x < y else y for x, y in zip(u, v)))
    return Antichain._from_maximal(a.dim, _max_of(candidates, tally))


def union_list(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    """:func:`union` on the list backend."""
    return union(ListIndex, a, b, stats)


def intersect_list(a: Antichain, b: Antichain, stats: Optional[Stats] = None,
                   optimize: bool = True) -> Antichain:
    """:func:`intersect` on the list backend."""
    return intersect(ListIndex, a, b, stats, optimize)


# ---------------------------------------------------------------------------
# Vector-set text format, shared by every command that reads or writes sets.
#
#   # comment lines and blank lines are ignored
#   dim <k>
#   <k space-separated naturals per line>
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
            try:
                dim = int(parts[1])
            except ValueError:
                raise VectorSetFormatError(f"line {lineno}: bad dimension {parts[1]!r}") from None
            if dim < 1:
                raise VectorSetFormatError(f"line {lineno}: dimension must be at least 1")
            continue
        parts = line.split()
        if len(parts) != dim:
            raise VectorSetFormatError(
                f"line {lineno}: expected {dim} components, got {len(parts)}")
        try:
            vec = tuple(int(p) for p in parts)
        except ValueError:
            raise VectorSetFormatError(f"line {lineno}: non-integer component in {line!r}") from None
        if any(x < 0 for x in vec):
            raise VectorSetFormatError(f"line {lineno}: negative component in {line!r}")
        vectors.append(vec)
    if dim is None:
        raise VectorSetFormatError("missing 'dim <k>' header line")
    return Antichain(vectors, dim=dim)


def format_vector_set(ac: Antichain) -> str:
    lines = [f"dim {ac.dim}"]
    lines.extend(" ".join(str(x) for x in v) for v in ac.vectors)
    return "\n".join(lines) + "\n"


def load_vector_set(path) -> Antichain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector_set(fh.read())


def save_vector_set(ac: Antichain, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_vector_set(ac))
