"""Shared oracles and instance generators for the test suite.

The oracles here are deliberately independent of the backend
implementations: membership oracles enumerate, set oracles compare boxes
pointwise, and the antichain generator maintains maximality by
definition-level checks.  ``tree_leaves``, ``cpre_step``,
``reference_solve`` and ``reference_strategy`` instead reach into the k-d
tree and the parity solver for structural tests.
"""

import itertools
from collections import deque

from downset import Antichain, ComparisonOutcome, DimensionMismatch, get_backend
from downset.kdtree import EmptyTree, KdLeaf
from downset.core import maxac
from downset.parity import (
    EVEN,
    ODD,
    ParityGame,
    _cpre_vertex,
    bwd_counter,
    counter_space,
    down_bwd,
    initial_counters,
)


def compare(u, v):
    """Product-order comparison by definition: the oracle for
    ``compare_counted``."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
    less = any(a < b for a, b in zip(u, v))
    greater = any(a > b for a, b in zip(u, v))
    if less and greater:
        return ComparisonOutcome.INCOMPARABLE
    if less:
        return ComparisonOutcome.LESS
    if greater:
        return ComparisonOutcome.GREATER
    return ComparisonOutcome.EQUAL


def box_points(k, top):
    """All points of [0..top]^k."""
    return itertools.product(range(top + 1), repeat=k)


def brute_member(vectors, u):
    """Downset membership by direct enumeration of dominators."""
    return any(all(a <= b for a, b in zip(u, v)) for v in vectors)


def brute_downset(vectors, top):
    """The downset as an explicit point set inside [0..top]^k."""
    k = len(next(iter(vectors)))
    return {p for p in box_points(k, top) if brute_member(vectors, p)}


def rand_antichain(rng, k, m, maxval):
    """Random antichain of size <= m by incremental insertion."""
    cur = []
    for _ in range(60 * m):
        if len(cur) >= m:
            break
        v = tuple(rng.randint(0, maxval) for _ in range(k))
        if any(all(a <= b for a, b in zip(v, w)) for w in cur):
            continue
        cur = [w for w in cur if not all(a <= b for a, b in zip(w, v))]
        cur.append(v)
    return Antichain(cur, dim=k) if cur else Antichain((), dim=k)


def adversarial_vectors(rng, k, m, special):
    """Worst-case search family: per-dimension distinct positive values on
    the first k-1 coordinates, last coordinate 0.

    With ``special`` the final vector instead takes the strictly largest
    value everywhere and last coordinate 1, which lands it at the rightmost
    leaf; the query (0, ..., 0, 1) is then a member, otherwise not.
    """
    cols = []
    for _ in range(k - 1):
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        cols.append(perm)
    vecs = [tuple(col[i] for col in cols) + (0,) for i in range(m)]
    if special:
        vecs[-1] = tuple(m + 1 for _ in range(k - 1)) + (1,)
    return vecs


def _prec_order(values):
    """Positions in the value-then-position order: the sort is stable, so
    ties keep their position."""
    return sorted(range(len(values)), key=values.__getitem__)


def prec_median(values):
    """Position of the median under the value-then-position order.

    For p values this is the ceil(p/2)-th largest, i.e. the element of
    ascending rank floor(p/2); the result is unique and deterministic.
    """
    if not values:
        raise ValueError("median of an empty sequence")
    return _prec_order(values)[len(values) // 2]


def pair_family(n):
    """The 2^n vectors of length 2n made of blocks (0,1) or (1,0); pairwise
    incomparable, yet their minimal layered DAG has only 4n+1 nodes."""
    vecs = []
    for bits in itertools.product(((0, 1), (1, 0)), repeat=n):
        vecs.append(tuple(x for pair in bits for x in pair))
    return Antichain(vecs, dim=2 * n)


def tree_leaves(tree) -> list:
    """Leaf vectors left to right."""
    if isinstance(tree, EmptyTree):
        return []
    out: list = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, KdLeaf):
            out.append(node.vec)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


def cpre_step(mu, game, backend="list"):
    """One synchronous refinement of the whole map, as the solver refines a
    vertex (no intersection with the old downset); returns the new map and
    the set of vertices whose downset changed."""
    ops = get_backend(backend)
    space = counter_space(game)
    nu = [_cpre_vertex([down_bwd(mu[v], game.priorities[u], space) for v in game.succs[u]],
                       game.owners[u], ops)
          for u in range(len(game))]
    changed = {u for u in range(len(game)) if nu[u] != mu[u]}
    return nu, changed


def reference_solve(game, backend="list", order=None):
    """The worklist solve written out plainly: every backward image is
    recomputed and reduced at each refinement, and the combined image is
    intersected with the vertex's current downset.  Returns
    ``(winners, final, iterations)`` for comparison with ``parity.solve``."""
    ops = get_backend(backend)
    space = counter_space(game)
    nv = len(game)
    mu = [initial_counters(space)] * nv
    preds = game.predecessors()
    queue = deque(order if order is not None else range(nv))
    queued = [False] * nv
    for u in queue:
        queued[u] = True
    iterations = 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        iterations += 1
        pu = game.priorities[u]
        parts = [maxac([bwd_counter(c, pu, space.caps) for c in mu[v].vectors], dim=space.d)
                 for v in game.succs[u]]
        combined = parts[0]
        for part in parts[1:]:
            combined = (ops.union if game.owners[u] == EVEN else ops.intersect)(combined, part)
        new = ops.intersect(mu[u], combined)
        if new != mu[u]:
            mu[u] = new
            for p in preds[u]:
                if not queued[p]:
                    queued[p] = True
                    queue.append(p)
    winners = [EVEN if any(min(c) >= 1 for c in mu[v].vectors) else ODD for v in range(nv)]
    return winners, mu, iterations


def reference_strategy(game, result):
    """The even strategy with every backward image recomputed from the final
    downsets, for comparison with ``parity.synthesize_even_strategy``, which
    reads the images the solve kept."""
    space = result.space
    strategy = {}
    for u in range(len(game)):
        if game.owners[u] != EVEN or result.winners[u] != EVEN:
            continue
        pu = game.priorities[u]
        kept = [i for i in range(space.d) if 2 * (i + 1) >= pu]
        best_key = best_succ = None
        for v in game.succs[u]:
            keys = [tuple(c[i] for i in reversed(kept))
                    for c in down_bwd(result.final[v], pu, space).vectors if min(c) >= 1]
            if keys and (best_key is None or max(keys) > best_key):
                best_key, best_succ = max(keys), v
        strategy[u] = best_succ
    return strategy


def rand_game(rng, nv, maxp, maxdeg):
    owners = [rng.randint(0, 1) for _ in range(nv)]
    prios = [rng.randint(0, maxp) for _ in range(nv)]
    succs = []
    for _ in range(nv):
        deg = rng.randint(1, maxdeg)
        succs.append(sorted(rng.sample(range(nv), min(deg, nv))))
    return ParityGame(owners, prios, succs, list(range(nv)))


def self_loops(n):
    """n vertices, each with a self-loop and its own priority 0..n-1: the
    attractor decomposition nests once per priority."""
    return ParityGame([v % 2 for v in range(n)], list(range(n)), [[v] for v in range(n)], list(range(n)))
