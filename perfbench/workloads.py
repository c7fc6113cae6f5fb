"""Seeded inputs, reference answers and ops of the downset benchmark.

The generators and the reference code here import nothing from `downset`,
so a change to the package (its generators, its bench harness, its test
helpers) cannot change what the benchmark feeds it or what it expects back.
The package receives only text: vector-set files and pgsolver games.

Each workload is a list of ops cycled in order.  Ops interleave the
workload's instance families round-robin, so any prefix of the list is a
representative mix: a slow backend that completes few ops covers the same
mix as a fast one.
"""

from __future__ import annotations

import itertools
import random

# Sizes of each workload.  `W` is the largest component value (W = 2t, as in
# the paper's random-antichain experiments).
MEMBERSHIP = {
    "families": (("random", 8, 100), ("random", 16, 100), ("pair", 8), ("pair", 10)),
    "queries_per_family": 256,
}
SETOPS = {
    "families": (("union", 8, 64), ("intersect", 6, 16)),
    "pairs_per_family": 128,
}
PARITY = {
    "vertices": (12, 14),
    "max_priorities": (5, 6, 7, 8, 9),
    "max_out_degree": 3,
    "games": 3000,
}
TINY = {
    "membership": {"families": (("random", 4, 6), ("pair", 3)), "queries_per_family": 6},
    "setops": {"families": (("union", 3, 6), ("intersect", 3, 4)), "pairs_per_family": 3},
    "parity": {"vertices": (6,), "max_priorities": (5,), "max_out_degree": 3, "games": 6},
}


# ---------------------------------------------------------------------------
# Reference code: the product order by definition, pairwise.
# ---------------------------------------------------------------------------

def below(u, v):
    """u <= v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def brute_member(vectors, u):
    return any(below(u, v) for v in vectors)


def maximal(vectors):
    """Maximal elements, sorted.  A vector strictly below another has a
    smaller sum, so in order of falling sums a vector is maximal unless one
    of the maximal vectors already kept is above it."""
    kept = []
    for v in sorted(set(vectors), key=sum, reverse=True):
        if not any(below(v, w) for w in kept):
            kept.append(v)
    return sorted(kept)


def meet(u, v):
    return tuple(min(a, b) for a, b in zip(u, v))


def vector_set_text(dim, vectors):
    """The vector-set file format the package reads and writes."""
    return "".join([f"dim {dim}\n"] + [" ".join(map(str, v)) + "\n" for v in vectors])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def random_antichain(rng, k, t, maxval):
    """t pairwise-incomparable vectors of [0..maxval]^k by rejection."""
    cur = []
    for _ in range(1000 * t):
        if len(cur) == t:
            return cur
        v = tuple(rng.randint(0, maxval) for _ in range(k))
        if not any(below(v, w) or below(w, v) for w in cur):
            cur.append(v)
    raise ValueError(f"no antichain of size {t} found in [0..{maxval}]^{k}")


def overlapping_antichain(rng, base, t, maxval):
    """An antichain of size t that shares t // 2 vectors with `base`."""
    cur = rng.sample(base, t // 2)
    for _ in range(1000 * t):
        if len(cur) == t:
            return cur
        v = tuple(rng.randint(0, maxval) for _ in range(len(base[0])))
        if not any(below(v, w) or below(w, v) for w in cur):
            cur.append(v)
    raise ValueError(f"no overlapping antichain of size {t} found")


def pair_family(n):
    """The 2^n vectors of length 2n made of blocks (0,1) or (1,0): pairwise
    incomparable, with a minimal layered DAG of only 4n+1 nodes."""
    return [tuple(itertools.chain.from_iterable(bits))
            for bits in itertools.product(((0, 1), (1, 0)), repeat=n)]


def random_queries(rng, vectors, maxval, count):
    """Alternating members (a stored vector, one component lowered half the
    time) and non-members (uniform draws rejected while some vector is above)."""
    k = len(vectors[0])
    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            v = list(rng.choice(vectors))
            positive = [i for i, x in enumerate(v) if x > 0]
            if positive and rng.random() < 0.5:
                i = rng.choice(positive)
                v[i] -= rng.randint(1, v[i])
            out.append(tuple(v))
        else:
            u = tuple(rng.randint(0, maxval) for _ in range(k))
            if not brute_member(vectors, u):
                out.append(u)
    return out


def pair_queries(rng, n, count):
    """Alternating members and non-members of the pair family.

    A member is a family vector with each component zeroed half the time.
    A non-member has zero blocks up to a random block j, which is (1,1),
    (2,0) or (0,2), and a family pattern after it.  The sharing-tree search
    branches both ways at every zero block, so it visits about 3 * 2^j
    nodes before it fails; j = n - 1 is the worst case (0,...,0,2).
    """
    out = []
    while len(out) < count:
        v = [x for _ in range(n) for x in rng.choice(((0, 1), (1, 0)))]
        if len(out) % 2 == 0:
            v = [x if rng.random() < 0.5 else 0 for x in v]
        else:
            j = rng.randrange(n)
            v[:2 * j + 2] = [0] * (2 * j) + list(rng.choice(((1, 1), (2, 0), (0, 2))))
        out.append(tuple(v))
    return out


def random_game(rng, nv, maxp, maxdeg):
    """A parity game in pgsolver text.

    Priorities are the balanced multiset {v mod (maxp+1)} and owners are
    half even, half odd, both shuffled; each vertex has 1..maxdeg distinct
    successors (self-loops allowed).  Fixing the priority multiset fixes
    the counter caps, so games of one family are of comparable difficulty.
    """
    prios = [v % (maxp + 1) for v in range(nv)]
    owners = [v % 2 for v in range(nv)]
    rng.shuffle(prios)
    rng.shuffle(owners)
    lines = [f"parity {nv - 1};"]
    for v in range(nv):
        succ = sorted(rng.sample(range(nv), rng.randint(1, maxdeg)))
        lines.append(f"{v} {prios[v]} {owners[v]} {','.join(map(str, succ))};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Text inputs plus the op list.

    ``stored`` holds the texts parsed at set-up; ``ops`` holds one tuple per
    op, whose last entry is the expected output (None where it is computed
    after set-up, for parity); the first ``families`` ops cover one instance
    of each family.
    """

    def __init__(self, name, stored, ops, families):
        self.name = name
        self.stored = stored
        self.ops = ops
        self.families = families


def _rng(name, seed):
    return random.Random(f"downset-perfbench/{name}/{seed}")


def membership(seed, sizes=MEMBERSHIP):
    """Stored texts: per family, the set and its queries (one per line).
    Op: (family, query index, expected verdict)."""
    rng = _rng("membership", seed)
    stored = []
    q = sizes["queries_per_family"]
    for family in sizes["families"]:
        if family[0] == "random":
            _, k, t = family
            vectors = random_antichain(rng, k, t, 2 * t)
            queries = random_queries(rng, vectors, 2 * t, q)
        else:
            n = family[1]
            vectors = pair_family(n)
            rng.shuffle(vectors)
            queries = pair_queries(rng, n, q)
        expected = [brute_member(vectors, u) for u in queries]
        if expected != [i % 2 == 0 for i in range(q)]:
            raise AssertionError("query labels disagree with brute force")
        stored.append((vector_set_text(len(vectors[0]), vectors),
                       "".join(" ".join(map(str, u)) + "\n" for u in queries)))
    ops = [(f, i, i % 2 == 0) for i in range(q) for f in range(len(stored))]
    return Workload("membership", stored, ops, len(stored))


def setops(seed, sizes=SETOPS):
    """Stored texts: pairs of sets sharing half their members.
    Op: (pair index, "union"|"intersect", expected output text)."""
    rng = _rng("setops", seed)
    pools = []
    for kind, k, t in sizes["families"]:
        pool = []
        for _ in range(sizes["pairs_per_family"]):
            a = random_antichain(rng, k, t, 2 * t)
            b = overlapping_antichain(rng, a, t, 2 * t)
            rng.shuffle(b)
            raw = a + b if kind == "union" else [meet(u, v) for u in a for v in b]
            pool.append((kind, vector_set_text(k, a), vector_set_text(k, b),
                         vector_set_text(k, maximal(raw))))
        pools.append(pool)
    pairs = [p for group in zip(*pools) for p in group]
    stored = [(a, b) for _, a, b, _ in pairs]
    ops = [(i, kind, out) for i, (kind, _, _, out) in enumerate(pairs)]
    return Workload("setops", stored, ops, len(pools))


def parity(seed, sizes=PARITY):
    """Stored texts: pgsolver games.  Op: (game index, None); the expected
    winners come from the package's independent Zielonka solver."""
    rng = _rng("parity", seed)
    nvs, maxps = sizes["vertices"], sizes["max_priorities"]
    stored = [random_game(rng, nvs[i % len(nvs)], maxps[(i // len(nvs)) % len(maxps)],
                          sizes["max_out_degree"])
              for i in range(sizes["games"])]
    ops = [(i, None) for i in range(len(stored))]
    return Workload("parity", stored, ops, len(nvs) * len(maxps))


GENERATORS = {"membership": membership, "setops": setops, "parity": parity}


def build(name, seed, tiny=False):
    if tiny:
        return GENERATORS[name](seed, TINY[name])
    return GENERATORS[name](seed)
