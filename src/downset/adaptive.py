"""Backend selection: lists versus k-d trees by the size-to-dimension regime.

k-d trees pay off once the antichains are exponentially larger than the
dimension but not absurdly unbalanced, i.e. when
``2^(k log k) <= m <= n <= 2^m`` (with m <= n the two set sizes).  The
predicate is evaluated in logarithm space with exact integer arithmetic:
``k * ceil(log2 k) <= floor(log2 m)`` and ``n <= 2^m``.

This module also provides the uniform dispatch table used by the CLI and
the parity solver to run any operation through a named backend: the k-d
tree, sharing-tree and covering-sharing-tree backends share ``core.union``
and ``core.intersect`` over their index modules, which their ``BackendOps``
carry as ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from . import cst as _cst
from . import kdtree as _kd
from . import sharingtree as _st
from .core import (
    Antichain,
    Stats,
    Vector,
    intersect,
    intersect_list,
    member,
    member_list,
    union,
    union_list,
)


class BackendChoice(NamedTuple):
    kind: str  # "list" or "kdtree"
    k: int
    m: int
    n: int


def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


def choose_backend(k: int, m: int, n: int) -> BackendChoice:
    """Pure decision: k-d tree iff ``k*log2(k) <= log2(m)`` and ``log2(n) <= m``."""
    if m > n:
        raise ValueError(f"expected m <= n, got m={m} n={n}")
    if m == 0 or n == 0:
        return BackendChoice("list", k, m, n)
    small_dim = k * _ceil_log2(k) <= m.bit_length() - 1
    balanced = _ceil_log2(n) <= m
    kind = "kdtree" if small_dim and balanced else "list"
    return BackendChoice(kind, k, m, n)


def member_adaptive(ac: Antichain, u: Vector, stats: Optional[Stats] = None) -> bool:
    if choose_backend(ac.dim, len(ac), len(ac)).kind == "kdtree":
        return member(_kd, ac, u, stats)
    return member_list(ac, u, stats)


def union_adaptive(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    m, n = sorted((len(a), len(b)))
    if choose_backend(a.dim, m, n).kind == "kdtree":
        return union(_kd, a, b, stats)
    return union_list(a, b, stats)


def intersect_adaptive(a: Antichain, b: Antichain, stats: Optional[Stats] = None) -> Antichain:
    m, n = sorted((len(a), len(b)))
    if choose_backend(a.dim, m, n).kind == "kdtree":
        return intersect(_kd, a, b, stats)
    return intersect_list(a, b, stats)


@dataclass(frozen=True)
class BackendOps:
    """A backend's operations.  ``index`` is the index module the
    operations run over, or ``None`` for ``list`` (nothing to build) and
    ``adaptive`` (which picks its index per call); it is never callable."""

    name: str
    member: object  # (Antichain, Vector, Stats|None) -> bool
    union: object   # (Antichain, Antichain, Stats|None) -> Antichain
    intersect: object
    index: object = None


def _over_index(name: str, index) -> BackendOps:
    """Set operations written once in ``core`` over a backend's index."""
    return BackendOps(name, partial(member, index), partial(union, index), partial(intersect, index),
                      index)


BACKENDS = {
    "list": BackendOps("list", member_list, union_list, intersect_list),
    "kdtree": _over_index("kdtree", _kd),
    "sharingtree": _over_index("sharingtree", _st),
    "cst": _over_index("cst", _cst),
    "adaptive": BackendOps("adaptive", member_adaptive, union_adaptive, intersect_adaptive),
}

BACKEND_NAMES = tuple(BACKENDS)


def get_backend(name: str) -> BackendOps:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}") from None
