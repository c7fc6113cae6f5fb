"""Shared oracles and instance generators for the test suite.

The oracles here are deliberately independent of the backend
implementations: membership oracles enumerate, set oracles compare boxes
pointwise, and the antichain generator and :func:`incomparable` check the
order by definition, one component pair at a time.  ``tree_leaves``,
``cpre_step``, ``reference_solve`` and ``reference_strategy`` instead reach
into the k-d tree and the parity solver for structural tests.
``bwd_counter`` and ``full_bwd`` write the counters' backward update out
in full, counters with a lost component kept, for ``full_fixpoint`` and
``reference_solve``.  To keep a lost component (logical -1) among the
naturals, they work on counters shifted by +1 (``shifted``), where a lost
component is stored 0; ``live`` takes the live members back to the face
value the solver stores.
"""

import itertools
from types import SimpleNamespace

from downset import Antichain, get_backend
from downset.core import maxac
from downset.parity import (
    EVEN,
    ODD,
    ParityGame,
    _cpre_vertex,
    counter_space,
    down_bwd,
    initial_counters,
)


def incomparable(u, v):
    """Neither vector is componentwise below the other, by definition: the
    oracle for the antichain property."""
    return not (all(a <= b for a, b in zip(u, v)) or all(b <= a for a, b in zip(u, v)))


def scan_count(u, v):
    """Does ``v`` dominate ``u``, and what does the one-way scan pay to say
    so?  ``(False, j + 1)`` for the first ``j`` with ``u[j] > v[j]``, else
    ``(True, k)``: the oracle for every counted dominance test."""
    for j, (a, b) in enumerate(zip(u, v)):
        if a > b:
            return False, j + 1
    return True, len(u)


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
    """Leaf vectors left to right, each leaf list in its order; reading
    ``left``/``right`` splits every pending half, so a list is a leaf."""
    if tree is None:
        return []
    out: list = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if type(node) is list:
            out.extend(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return out


def bwd_counter(stored, priority, caps):
    """One-step backward update of a shifted counter through a vertex of the
    given priority; total and saturating on both ends.

    Odd priority 2i-1 decrements component i, flooring at logical -1
    (stored 0), which is absorbing: once the odd player can force the bad
    cycle, nothing recovers the component.  Even priority 2i tops the live
    components 1..i back up to their caps; dead components stay dead, since
    an even visit ahead of an already-lost continuation does not change the
    continuation.
    """
    if priority % 2 == 1:
        idx = (priority - 1) // 2
        s = stored[idx]
        return stored[:idx] + (s - 1 if s > 0 else 0,) + stored[idx + 1:]
    i = priority // 2
    if i == 0:
        return stored
    head = [c + 1 if s else 0 for c, s in zip(caps, stored[:i])]
    return tuple(head) + stored[len(head):]


def full_bwd(ac, priority, caps):
    """The backward image of a whole shifted downset, counters with a lost
    component kept: ``bwd_counter`` on every member, then ``maxac``."""
    return maxac([bwd_counter(c, priority, caps) for c in ac.vectors], dim=len(caps))


def shifted(ac):
    """A face-value downset in the shifted domain: every component + 1."""
    return Antichain._from_maximal(ac.dim, [tuple(s + 1 for s in c) for c in ac.vectors])


def live(ac):
    """The members of a shifted downset with no lost component (none
    stored 0), at face value: every component - 1."""
    return tuple(tuple(s - 1 for s in c) for c in ac.vectors if 0 not in c)


def live_bwd(ac, priority, caps):
    """The live part of ``full_bwd`` on a shifted downset, at face value:
    what ``down_bwd`` keeps of the image."""
    return Antichain(live(full_bwd(ac, priority, caps)), dim=len(caps))


def cpre_step(mu, game, backend="list", image=down_bwd):
    """One synchronous refinement of the whole map, as the solver refines a
    vertex (no intersection with the old downset), with ``image`` as the
    backward image (the solver's by default); returns the new map and the
    set of vertices whose downset changed."""
    ops = get_backend(backend)
    caps = counter_space(game)
    nu = [_cpre_vertex([image(mu[v], game.priorities[u], caps) for v in game.succs[u]],
                       game.owners[u], ops)
          for u in range(len(game))]
    changed = {u for u in range(len(game)) if nu[u] != mu[u]}
    return nu, changed


def full_fixpoint(game):
    """The plain fixpoint over whole shifted downsets: synchronous
    ``cpre_step`` rounds with ``full_bwd`` from the all-caps downset until
    nothing changes, no counter dropped.  Returns a namespace with
    ``final`` (shifted), ``caps`` and ``winners`` (even where a final
    downset has a live member), which ``reference_strategy`` reads with
    ``image=live_bwd``."""
    caps = counter_space(game)
    mu = [shifted(initial_counters(caps))] * len(game)
    while True:
        mu, changed = cpre_step(mu, game, image=full_bwd)
        if not changed:
            break
    winners = [EVEN if live(ac) else ODD for ac in mu]
    return SimpleNamespace(final=mu, caps=caps, winners=winners)


def dfs_postorder(game):
    """Vertices in depth-first postorder along ``succs``, written as the
    textbook recursion: roots in index order, successors in list order."""
    seen, out = set(), []

    def visit(v):
        seen.add(v)
        for w in game.succs[v]:
            if w not in seen:
                visit(w)
        out.append(v)

    for v in range(len(game)):
        if v not in seen:
            visit(v)
    return out


def reference_solve(game, backend="list", order=None):
    """The worklist solve written out plainly: every backward image is
    recomputed in full by ``bwd_counter`` over the shifted downset, reduced,
    and its counters with a lost component dropped at each refinement, and
    the combined image is intersected with the vertex's current downset.
    The worklist is a stack, ``order[0]`` on top (``order`` defaults to
    :func:`dfs_postorder`), and a change pushes the predecessors not
    already on it.

    Returns a namespace for comparison with ``parity.solve``: ``winners``,
    ``final`` and ``iterations``, and the solve's accounts kept by value.
    ``backward`` holds, per vertex and priority, the first image taken of
    the vertex's current downset, and ``images`` counts those first
    images; a change at the vertex forgets them.  ``setops`` counts the
    distinct unordered pairs of unequal operand values each operation
    combined, leaving out the intersection with the old downset and every
    pair with an empty or all-caps operand, whose result the solve knows
    without the backend."""
    ops = get_backend(backend)
    caps = counter_space(game)
    nv = len(game)
    mu = [initial_counters(caps)] * nv
    top = (caps,)
    backward = [{} for _ in range(nv)]
    preds = game.predecessors()
    stack = list(reversed(order if order is not None else dfs_postorder(game)))
    queued = [True] * nv
    iterations = images = 0
    pairs = set()
    while stack:
        u = stack.pop()
        queued[u] = False
        iterations += 1
        pu = game.priorities[u]
        parts = []
        for v in game.succs[u]:
            part = live_bwd(shifted(mu[v]), pu, caps)
            if pu not in backward[v]:
                backward[v][pu] = part
                images += 1
            parts.append(part)
        kind = "union" if game.owners[u] == EVEN else "intersect"
        combined = parts[0]
        for part in parts[1:]:
            operands = (combined.vectors, part.vectors)
            if operands[0] != operands[1] and all(a and a != top for a in operands):
                pairs.add((kind, frozenset(operands)))
            combined = getattr(ops, kind)(combined, part)
        new = ops.intersect(mu[u], combined)
        if new != mu[u]:
            mu[u] = new
            backward[u].clear()
            for p in preds[u]:
                if not queued[p]:
                    queued[p] = True
                    stack.append(p)
    winners = [EVEN if mu[v].vectors else ODD for v in range(nv)]
    return SimpleNamespace(winners=winners, final=mu, iterations=iterations, images=images,
                           backward=backward, setops=len(pairs))


def reference_strategy(game, result, image=down_bwd):
    """The even strategy with every backward image recomputed from the final
    downsets by ``image``, which gives the image's live part at face value,
    for comparison with ``parity.synthesize_even_strategy``, which reads the
    images the solve kept.  Whole shifted downsets (``full_fixpoint`` with
    ``image=live_bwd``) give the same moves."""
    caps = result.caps
    strategy = {}
    for u in range(len(game)):
        if game.owners[u] != EVEN or result.winners[u] != EVEN:
            continue
        pu = game.priorities[u]
        kept = [i for i in range(len(caps)) if 2 * (i + 1) >= pu]
        best_key = best_succ = None
        for v in game.succs[u]:
            keys = [tuple(c[i] for i in reversed(kept))
                    for c in image(result.final[v], pu, caps).vectors]
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


def relabel(game, perm):
    """The game with vertex ``v`` renamed ``perm[v]``, successor lists in
    their order: the same game, searched and refined in another order."""
    nv = len(game)
    owners, prios, succs = [0] * nv, [0] * nv, [None] * nv
    for v in range(nv):
        owners[perm[v]] = game.owners[v]
        prios[perm[v]] = game.priorities[v]
        succs[perm[v]] = [perm[w] for w in game.succs[v]]
    return ParityGame(owners, prios, succs, list(range(nv)))


def self_loops(n):
    """n vertices, each with a self-loop and its own priority 0..n-1: the
    attractor decomposition nests once per priority."""
    return ParityGame([v % 2 for v in range(n)], list(range(n)), [[v] for v in range(n)], list(range(n)))
