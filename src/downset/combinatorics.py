"""Counting, enumeration and random generation of antichains in finite grids.

The grid [ell]^d holds vectors with components in {0, ..., ell-1}.  In two
dimensions an antichain of size n is a strictly increasing sequence paired
with a strictly decreasing one, which gives the closed forms
``binom(ell, n)**2`` per size and ``binom(2*ell, ell)`` in total (the empty
antichain included).  Higher dimensions are handled by explicit enumeration
with dominance pruning, guarded by a grid-size limit.

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


class GridTooLarge(ValueError):
    """Enumeration endpoints refuse grids beyond GRID_POINT_LIMIT points."""


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
    if n < 0 or n > ell:
        raise ValueError(f"size {n} impossible in [{ell}]^2 (0 <= n <= ell)")
    return comb(ell, n) ** 2


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
    """Exact antichain count by enumeration; any d, guarded grid size."""
    if n is None:
        return sum(1 for _ in enumerate_antichains(d, ell))
    return sum(1 for a in enumerate_antichains(d, ell) if len(a) == n)


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
