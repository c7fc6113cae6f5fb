"""Counting, enumeration and random generation of antichains in finite grids.

The grid [ell]^d holds vectors with components in {0, ..., ell-1}.  In two
dimensions an antichain of size n is a strictly increasing sequence paired
with a strictly decreasing one, which gives the closed forms
``binom(ell, n)**2`` per size and ``binom(2*ell, ell)`` in total (the empty
antichain included).  In three dimensions the antichains are the
downsets, which are the plane partitions in an ell x ell x ell box, counted
by MacMahon's box formula.  Other counts are made by explicit enumeration
with dominance pruning, guarded by a grid-size limit and an antichain
limit.

The width of the grid (maximum antichain cardinality) is the size of its
middle constant-sum layer.  Vectors of equal component sum are pairwise
incomparable, so every layer is an antichain; de Bruijn, Tengbergen and
Kruyswijk (1951) proved that no antichain of a product of chains is larger
than the middle layer.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

from .core import Antichain, leq

GRID_POINT_LIMIT = 2 ** 20
# [4]^3's 232,848 antichains fit; enumerating this many takes seconds
ANTICHAIN_LIMIT = 2 ** 18


class GridTooLarge(ValueError):
    """Enumeration endpoints refuse grids beyond GRID_POINT_LIMIT points,
    and enumerated counts stop past ANTICHAIN_LIMIT antichains."""


def _check_grid(d: int, ell: int) -> None:
    if d < 1 or ell < 1:
        raise ValueError("need d >= 1 and ell >= 1")
    if ell ** d > GRID_POINT_LIMIT:
        raise GridTooLarge(f"grid [{ell}]^{d} has {ell ** d} points, limit is {GRID_POINT_LIMIT}")


def count_2d(ell: int, n: Optional[int] = None) -> int:
    """Number of antichains in [ell]^2: ``binom(ell, n)**2`` for a fixed
    size, ``binom(2*ell, ell)`` in total (empty antichain included)."""
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if n is None:
        return comb(2 * ell, ell)
    if n < 0:
        raise ValueError(f"size {n} is negative")
    return comb(ell, n) ** 2


def count_3d(ell: int) -> int:
    """Number of antichains in [ell]^3, by MacMahon's box formula.

    An antichain is the set of maximal points of a downset, and a downset
    of [ell]^3 is a plane partition in an ell x ell x ell box, of which
    there are the product over i, j, k in 1..ell of
    (i+j+k-1)/(i+j+k-2).  The product over k telescopes to
    (i+j+ell-1)/(i+j-1), so ell^2 factors remain.
    """
    _check_grid(3, ell)
    num = den = 1
    for i in range(1, ell + 1):
        for s in range(i + 1, i + ell + 1):  # s = i + j
            num *= s + ell - 1
            den *= s - 1
    return num // den


def count(d: int, ell: int, n: Optional[int] = None) -> int:
    """Number of antichains in [ell]^d, of size ``n`` if given: by closed
    form where one is known (d = 1, d = 2, and d = 3 without a size), by
    ``count_antichains`` otherwise."""
    if d == 1:  # a chain: the empty antichain and the ell single points
        if ell < 1:
            raise ValueError("ell must be at least 1")
        return {None: ell + 1, 0: 1, 1: ell}.get(n, 0)
    if d == 2:
        return count_2d(ell, n)
    if d == 3 and n is None:
        return count_3d(ell)
    return count_antichains(d, ell, n)


def grid_points(d: int, ell: int) -> list:
    """Lattice points of [ell]^d in lexicographic order."""
    _check_grid(d, ell)
    return [tuple(p) for p in itertools.product(range(ell), repeat=d)]


def enumerate_antichains(d: int, ell: int) -> Iterator[tuple]:
    """Every antichain of [ell]^d exactly once, the empty one included.

    Emitted as tuples of points; points within an antichain appear in
    lexicographic order.  Order of emission is deterministic but otherwise
    unspecified.
    """
    points = grid_points(d, ell)
    chosen: list = []

    def extend(start: int) -> Iterator[tuple]:
        yield tuple(chosen)
        for idx in range(start, len(points)):
            p = points[idx]
            if not any(leq(p, c) or leq(c, p) for c in chosen):
                chosen.append(p)
                yield from extend(idx + 1)
                chosen.pop()

    return extend(0)


def count_antichains(d: int, ell: int, n: Optional[int] = None) -> int:
    """Exact antichain count by enumeration; any d, guarded grid size.

    Stops with ``GridTooLarge`` once the grid has more than
    ANTICHAIN_LIMIT antichains, whatever ``n``: at once if ``count``'s
    closed form (d <= 3) or the subsets of its constant-sum layers already
    make more, else after enumerating that many.  Each layer is an
    antichain, and a non-empty subset of one layer is a subset of no
    other, so the grid has at least 1 + sum over s of (2^L_s - 1)
    antichains, L_s the size of layer s.  That bound is far below the
    count of a square grid: [12]^2 has 12,262 such subsets and 2,704,156
    antichains.
    """
    refusal = GridTooLarge(f"grid [{ell}]^{d} has more than {ANTICHAIN_LIMIT} antichains, "
                           f"limit is {ANTICHAIN_LIMIT}")
    _check_grid(d, ell)
    if d <= 3 and count(d, ell) > ANTICHAIN_LIMIT:
        raise refusal
    at_least = 1  # the empty antichain
    for s in range((ell - 1) * d + 1):
        at_least += 2 ** layer_size(d, ell, s) - 1
        if at_least > ANTICHAIN_LIMIT:
            raise refusal
    enumerated = found = 0
    for a in enumerate_antichains(d, ell):
        enumerated += 1
        if enumerated > ANTICHAIN_LIMIT:
            raise refusal
        if n is None or len(a) == n:
            found += 1
    return found


def layer_size(d: int, ell: int, s: int) -> int:
    """Number of vectors in [ell]^d with component sum exactly ``s``.

    Inclusion-exclusion over the j components forced to ell or more.
    """
    if d < 1 or ell < 1:
        raise ValueError("need d >= 1 and ell >= 1")
    if s < 0 or s > (ell - 1) * d:
        return 0
    return sum((-1) ** j * comb(d, j) * comb(s - j * ell + d - 1, d - 1)
               for j in range(s // ell + 1))


def width(d: int, ell: int) -> int:
    """Maximum antichain cardinality in [ell]^d: the size of the middle
    layer, sum floor((ell-1)*d/2), by the theorem of de Bruijn, Tengbergen
    and Kruyswijk ("On the set of divisors of a number", 1951)."""
    _check_grid(d, ell)
    return layer_size(d, ell, (ell - 1) * d // 2)


@dataclass(frozen=True)
class MiddleLayerReport:
    d: int
    ell: int
    width: int
    max_layer_size: int
    argmax_sums: range  # every sum value achieving the maximum layer size
    equal: bool
    stated_sum: int     # floor(ell*d/2)
    midpoint_sum: int   # floor((ell-1)*d/2), midpoint of the realizable sums


def check_middle_layer_conjecture(d: int, ell: int) -> MiddleLayerReport:
    """Does the largest constant-sum layer realize the grid width, and at
    which sums does the maximum occur?

    Reports both the conjectured index floor(ell*d/2) and the natural
    midpoint floor((ell-1)*d/2) of the realizable sum range.  Layer sizes
    are symmetric about the midpoint and log-concave, hence unimodal with a
    plateau only at the top, so they rise to the midpoint, whose layer is
    the largest.  A bisection finds the lowest sum whose layer is as large,
    and the sums from it to its mirror image are the argmax, one run kept
    as a ``range``: O(log(ell*d)) ``layer_size`` calls instead of one per
    sum, and no entry per sum.
    """
    w = width(d, ell)
    top = (ell - 1) * d
    lo = bisect_left(range(top // 2), True, key=lambda s: layer_size(d, ell, s) == w)
    return MiddleLayerReport(
        d=d,
        ell=ell,
        width=w,
        max_layer_size=w,
        argmax_sums=range(lo, top - lo + 1),
        equal=True,
        stated_sum=(ell * d) // 2,
        midpoint_sum=top // 2,
    )


@dataclass(frozen=True)
class GeneratedAntichain:
    antichain: Antichain
    target_reached: bool
    draws_used: int


def random_antichain(k: int, target_m: int, maxval: int, seed) -> GeneratedAntichain:
    """Deterministic random antichain of about ``target_m`` vectors.

    Draws vectors uniformly from [0..maxval]^k and keeps the running set of
    maximal elements; stops at the target size or after 100 * target_m
    draws.  Some (k, maxval) cannot reach the target (a 1-dimensional set
    never exceeds one vector); the result then carries target_reached=False.
    """
    if k < 1 or target_m < 1 or maxval < 0:
        raise ValueError("need k >= 1, target_m >= 1, maxval >= 0")
    rng = random.Random(seed)
    current: list = []
    budget = 100 * target_m
    draws = 0
    while draws < budget and len(current) < target_m:
        draws += 1
        v = tuple(rng.randint(0, maxval) for _ in range(k))
        if any(leq(v, w) for w in current):
            continue
        current = [w for w in current if not leq(w, v)]
        current.append(v)
    ac = Antichain._from_maximal(k, sorted(current))
    return GeneratedAntichain(ac, len(ac) >= target_m, draws)
