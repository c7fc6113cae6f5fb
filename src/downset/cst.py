"""Covering sharing trees: the sharing-tree index under the name ``cst``.

A covering sharing tree (Delzanno, Raskin & Van Begin) is a layered DAG
that may encode dominated vectors, as long as the downward closure of its
language equals that of the input set.  Built from an antichain, the
minimal DAG is already such a tree, so this backend builds and searches
exactly as ``sharingtree`` does, and its union and intersection are
``core.union`` and ``core.intersect`` over this module as the index.  The
graph union and product that once made it a backend of its own took 1.5 to
14 times as long as those calls on the same sets, and were removed.

``build_cst`` and ``member_cst`` are functions of their own rather than
aliases of the sharing tree's, so that a wrapper installed on one module's
entry points (as the benchmark's tracer does) sees only that backend's
calls.
"""

from __future__ import annotations

from typing import Optional

from .core import Antichain, Stats, Vector
from .sharingtree import STree, _build, _search


def build_cst(ac: Antichain) -> STree:
    """Build the layered DAG of an antichain (the sharing-tree build)."""
    return _build(ac)


def member_cst(tree: STree, u: Vector, stats: Optional[Stats] = None) -> bool:
    """Membership in the downward closure of the encoded language."""
    return _search(tree, u, stats)


# The downset index protocol (core.DownsetIndex) of this backend.
build, member = build_cst, member_cst
