"""Parity game solving through downsets of visit counters.

Vertices carry priorities; the even player wins a play iff the maximum
priority seen infinitely often is even.  The solver tracks, per vertex, a
downset of counter vectors over the odd priorities: component i is the
number of further visits to priority 2i-1 vertices the even player can
still afford, ranging over [-1, n_i] where n_i is the number of such
vertices.  Counters are stored shifted by +1 so the antichain machinery
stays over the naturals; logical -1 is stored 0.

Stepping backwards through a vertex of odd priority 2i-1 decrements
component i; through an even priority 2i it tops components 1..i back up to
their caps (a dominating even visit resets the smaller odd debts).  A
component that would fall to logical -1 is lost for good: no later step
raises it again, so a counter with a lost component can never lie below a
counter without one, and meets and joins keep the component lost.  Such a
counter is therefore dropped as soon as a backward step makes it, and every
downset the solver holds is made of live counters only (every component at
least logical 0, stored at least 1).  Iterating the controllable-predecessor
refinement from the all-caps downset converges to the live part of its
greatest fixpoint; a vertex is even-winning iff that part is not empty.

The refinement only ever shrinks a vertex's downset.  The backward update
is monotone and stays inside the box below the all-caps counter, and union
and intersection are monotone, so every refined downset lies inside the
one it replaces, whatever the order of the refinements (Kleene iteration
from the top of a complete lattice).  The solver therefore takes the
combined successor image as the new downset without intersecting it with
the old one, and it keeps each backward image of a vertex's downset until
that downset shrinks.

The order decides only how many refinements reach the fixpoint.  The
worklist is a stack seeded in depth-first postorder along the moves, so a
vertex is first refined once the successors the search reached from it
have been, and a change is carried back to the predecessors before older
work resumes (Bourdoncle, FMPA 1993).  On 3,000 random games of 12-14
vertices this takes 27 % fewer refinements and 29 % fewer unions and
intersections than a first-in first-out queue over the vertex indices.

Within one solve, every downset is hash-consed (Filliâtre & Conchon, ML
2006): the initial counters, each backward image and each union or
intersection result is looked up in a table of the values the solve has
made so far, keyed on ``vectors``, and replaced by the object already
there, so each value is one object for the whole solve.  Value equality is
then identity.  A vertex's downset changed exactly when the new one is
another object, and each union and intersection runs on the backend at
most once per pair of operand objects: a table that lives for the solve
keeps each result under the two operands' ``id`` in increasing order, both
operations commuting, so the pair is unordered and is hashed as two ints,
not as two nested vector tuples.  An operand met with itself is its own
union and intersection and reaches neither the table nor the backend.
Images of different vertices are often equal, and an unchanged image meets
the same partners again at every later refinement of its predecessor, so
about half of a solve's operations are repeats.  On the backends whose
operations build an index of each operand (k-d tree, sharing tree, CST),
the same table is the solve's index: it keeps each operand's index under
the operand's ``id``, so each value's index is built once and queried for
every later operation that value takes part in; without it, more than half
of a solve's builds repeat one it already made.

Hash-consing looks a result up after it is made; it does not change how it
is made.  An odd step lowers one component of every surviving counter by
one, which keeps them pairwise incomparable and in lexicographic order, so
its image needs no reduction.  An even image of two or more counters is
still reduced by ``core.maxac``, the package's canonical constructor, which
the benchmark's tracing counts as canonicalisation; the table only decides
which object stands for the reduced value.

The module also carries a pgsolver-format parser, co-lexicographic strategy
extraction for the even player, and an independent Zielonka-style oracle
used by tests and the CLI's --check mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .adaptive import get_backend
from .core import Antichain, intersect, maxac, union

EVEN = 0
ODD = 1


class ParityParseError(ValueError):
    pass


@dataclass
class ParityGame:
    owners: List[int]             # 0 even, 1 odd
    priorities: List[int]
    succs: List[List[int]]        # dense indices
    ids: List[int]                # dense index -> original id
    names: List[Optional[str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        nv = len(self.owners)
        if not (len(self.priorities) == len(self.succs) == len(self.ids) == nv):
            raise ValueError("inconsistent vertex table lengths")
        if not self.names:
            self.names = [None] * nv
        for v in range(nv):
            if self.owners[v] not in (EVEN, ODD):
                raise ValueError(f"vertex {self.ids[v]}: owner must be 0 or 1")
            if self.priorities[v] < 0:
                raise ValueError(f"vertex {self.ids[v]}: negative priority")
            if not self.succs[v]:
                raise ValueError(f"vertex {self.ids[v]} has no successors")
            for w in self.succs[v]:
                if not 0 <= w < nv:
                    raise ValueError(f"vertex {self.ids[v]}: successor index {w} out of range")

    def __len__(self) -> int:
        return len(self.owners)

    def predecessors(self) -> List[List[int]]:
        preds: List[List[int]] = [[] for _ in range(len(self))]
        for u, out in enumerate(self.succs):
            for v in out:
                preds[v].append(u)
        return preds


def parse_pgsolver(text: str) -> ParityGame:
    """Parse the line-based interchange format.

    Optional header ``parity N;`` then one record per statement:
    ``id priority owner successors[ name];`` with comma-separated successor
    ids and owner 0 for the even player.  Statements end with a semicolon;
    several may share a line.  Every number is ASCII decimal digits:
    ``isdigit`` alone accepts ``²``, which ``int`` rejects, and ``int``
    alone accepts ``+1``, ``1_0`` and ``٣``.
    """
    records: Dict[int, Tuple[int, int, List[int], Optional[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise ParityParseError(f"line {lineno}: statement missing terminating semicolon")
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if stmt.startswith("parity"):
                parts = stmt.split()
                if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdigit()):
                    raise ParityParseError(f"line {lineno}: malformed header {stmt!r}")
                continue
            parts = stmt.split(None, 3)
            if len(parts) < 4:
                raise ParityParseError(
                    f"line {lineno}: record {stmt!r} needs id, priority, owner and successors")
            vid, prio, owner, more = parts
            if not (vid.isascii() and vid.isdigit() and prio.isascii() and prio.isdigit()
                    and owner.isascii() and owner.isdigit()):
                raise ParityParseError(f"line {lineno}: malformed record {stmt!r}")
            vid, prio, owner = int(vid), int(prio), int(owner)
            rest = more.split(None, 1)
            succ_field = rest[0]
            name = rest[1].strip().strip('"') if len(rest) > 1 else None
            if owner not in (0, 1):
                raise ParityParseError(f"line {lineno}: owner must be 0 or 1, got {owner}")
            if vid in records:
                raise ParityParseError(f"line {lineno}: duplicate vertex id {vid}")
            succ_ids: List[int] = []
            for tok in succ_field.split(","):
                if not (tok.isascii() and tok.isdigit()):
                    raise ParityParseError(f"line {lineno}: bad successor entry {tok!r}")
                succ_ids.append(int(tok))
            records[vid] = (prio, owner, succ_ids, name)
    if not records:
        raise ParityParseError("no vertex records found")
    ids = sorted(records)
    index = {vid: i for i, vid in enumerate(ids)}
    owners, priorities, succs, names = [], [], [], []
    for vid in ids:
        prio, owner, succ_ids, name = records[vid]
        out: List[int] = []
        seen = set()
        for s in succ_ids:
            if s not in index:
                raise ParityParseError(f"vertex {vid}: successor {s} does not exist")
            if s not in seen:
                seen.add(s)
                out.append(index[s])
        owners.append(owner)
        priorities.append(prio)
        succs.append(out)
        names.append(name)
    return ParityGame(owners, priorities, succs, ids, names)


def format_pgsolver(game: ParityGame) -> str:
    lines = [f"parity {len(game) - 1};"]
    for v in range(len(game)):
        succ = ",".join(str(game.ids[w]) for w in game.succs[v])
        name = f' "{game.names[v]}"' if game.names[v] else ""
        lines.append(f"{game.ids[v]} {game.priorities[v]} {game.owners[v]} {succ}{name};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Counter downsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterSpace:
    """Shifted counter domain: component i (0-based) tracks odd priority
    2(i+1)-1; stored values range over [0, caps[i]+1], logical = stored-1."""

    d: int
    caps: Tuple[int, ...]


def counter_space(game: ParityGame) -> CounterSpace:
    maxp = max(game.priorities)
    d = max(1, (maxp + 1) // 2)
    caps = tuple(map(game.priorities.count, range(1, 2 * d, 2)))
    return CounterSpace(d, caps)


def down_bwd(ac: Antichain, priority: int, space: CounterSpace) -> Antichain:
    """The live part of the backward image of a live counter downset.

    Odd priority 2i-1 keeps the counters whose component i is still live
    after the step (stored above 1) and decrements it; that map is
    injective and keeps the order and the lexicographic sort, so the image
    is already an antichain.  Even priority 2i sets components 1..i to
    their caps (stored ``cap + 1``), and an image of two or more counters
    is reduced.  Priority 0 is the identity, so ``ac`` itself is returned.
    """
    vectors = ac.vectors
    if priority == 0 or not vectors:
        return ac
    i = priority // 2
    if priority % 2:
        return Antichain._from_maximal(space.d, [c[:i] + (c[i] - 1,) + c[i + 1:]
                                                 for c in vectors if c[i] > 1])
    head = tuple([c + 1 for c in space.caps[:i]])
    if len(vectors) == 1:
        return Antichain._from_maximal(space.d, (head + vectors[0][i:],))
    return maxac([head + c[i:] for c in vectors], dim=space.d)


def initial_counters(space: CounterSpace) -> Antichain:
    """The all-caps downset: the worst still-live situation for the even
    player, one saturated counter per odd priority."""
    return Antichain._from_maximal(space.d, [tuple(c + 1 for c in space.caps)])


def _cpre_vertex(parts: Sequence[Antichain], owner: int, ops) -> Antichain:
    """The controllable predecessor of one vertex, from the backward images
    of its successors' downsets: their union if the even player owns the
    vertex, their intersection if the odd player does.

    It is not intersected with the vertex's current downset: refining from
    ``initial_counters`` keeps every downset inside the one it replaces (see
    the module docstring), so that intersection would never remove anything.
    """
    combine = ops.union if owner == EVEN else ops.intersect
    combined = parts[0]
    for p in parts[1:]:
        combined = combine(combined, p)
    return combined


class _SetopTable:
    """A backend's union and intersection for one solve, each run at most
    once per unordered pair of operand values (see ``solve``).

    The operands are the solve's hash-consed downsets, one object per
    ``vectors`` value, so equal operands are one object and a pair of
    values is a pair of objects.  Each operation keeps its results under
    the two operands' ``id`` in increasing order: Python hashes two ints
    instead of both operands' nested vector tuples.  A result is
    hash-consed through ``intern`` before it is kept, and ``calls`` counts
    the backend calls, one per kept result.

    A backend that runs over an index module (``ops.index``) runs here as
    ``core.union`` and ``core.intersect`` over the table itself: ``build``
    keeps each operand's index under the operand's ``id`` and ``member`` is
    the module's, so each value's index is built once per solve.
    """

    def __init__(self, ops, intern) -> None:
        self.calls = 0
        run_union, run_intersect = ops.union, ops.intersect
        if ops.index is not None:
            self._build, self.member, self._built = ops.index.build, ops.index.member, {}
            run_union, run_intersect = partial(union, self), partial(intersect, self)
        self.union = self._combiner(run_union, intern)
        self.intersect = self._combiner(run_intersect, intern)

    def build(self, ac: Antichain):
        # Every operand is an interned object, which the intern table holds
        # until the solve returns, so no other value can take over its id.
        key = id(ac)
        if key not in self._built:
            self._built[key] = self._build(ac)
        return self._built[key]

    def _combiner(self, run, intern):
        """The operation ``run`` of the backend, bound once, over the table."""
        results: Dict[Tuple[int, int], Antichain] = {}

        def combine(a: Antichain, b: Antichain) -> Antichain:
            if a is b:
                return a
            i, j = id(a), id(b)
            key = (i, j) if i < j else (j, i)
            result = results.get(key)
            if result is None:
                result = run(a, b)
                result = results[key] = intern(result.vectors, result)
                self.calls += 1
            return result

        return combine


@dataclass
class SolveResult:
    winners: List[int]            # per vertex: EVEN or ODD
    iterations: int               # vertex refinements performed
    final: List[Antichain]        # live part of the refinement's greatest fixpoint
    space: CounterSpace
    images: int                   # backward images computed (down_bwd calls)
    backward: List[Dict[int, Antichain]]  # per vertex v: priority p -> down_bwd(final[v], p)
    setops: int                   # unions and intersections the backend ran
    peak_antichain: int           # most vectors in one antichain the solve made


def _postorder(game: ParityGame) -> List[int]:
    """Every vertex once, in depth-first postorder along ``succs``: roots
    in index order, successors in list order, each vertex listed after the
    successors the search first reaches from it.  Iterative, as ``_sccs``
    is, so a long path does not recurse."""
    seen = [False] * len(game)
    out: List[int] = []
    for root in range(len(game)):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(game.succs[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(game.succs[w])))
                    break
            else:
                work.pop()
                out.append(v)
    return out


def solve(game: ParityGame, backend: str = "list") -> SolveResult:
    """Worklist iteration to the greatest fixpoint, then the winner test.

    The worklist is a stack.  It starts with every vertex in depth-first
    postorder (``_postorder``), the first on top, so a vertex is first
    refined after the successors the search reached from it.  A change at a
    vertex pushes its predecessors that are not already waiting, so the
    next refinement is the predecessor pushed last.  The fixpoint is
    independent of the order, which decides only how many refinements
    reach it.  A change only ever shrinks a downset (see the module
    docstring).

    Each vertex keeps its backward images by priority: ``down_bwd(mu[v], p)``
    is computed once for each predecessor priority ``p`` and reused until
    ``mu[v]`` shrinks, which empties the vertex's cache.  The caches are
    returned as ``backward``: a vertex's last refinement comes after its
    successors' last change, so at the fixpoint they hold the image of
    every successor's final downset at the priority of each predecessor.

    Every downset the solve holds is hash-consed through a table created
    here and dropped on return: the initial counters, each image and each
    union or intersection result is replaced by the first object made with
    its ``vectors``, so one value is one object.  A refinement changes
    ``mu[u]`` when the new downset is another object (``is not``), and
    unions and intersections go through a second table: an operand met
    with itself is given back, and any other pair is sent to the backend
    once per operation, keyed on the two operands' ``id`` in increasing
    order, since both operations commute.  ``setops`` counts the backend
    calls, one per stored result, and ``peak_antichain`` is the size of the
    largest value in the intern table, the largest antichain the solve
    made.  Even images are still reduced by ``maxac``; interning happens
    after.
    A backend whose operations run over an index module (``ops.index``)
    builds each operand value's index once per solve, through the second
    table; results and per-query counts are those of fresh builds.
    """
    interned: Dict[tuple, Antichain] = {}
    intern = interned.setdefault
    ops = _SetopTable(get_backend(backend), intern)
    space = counter_space(game)
    nv = len(game)
    init = initial_counters(space)
    mu: List[Antichain] = [intern(init.vectors, init)] * nv
    cache: List[Dict[int, Antichain]] = [{} for _ in range(nv)]
    preds = game.predecessors()
    stack = _postorder(game)[::-1]
    queued = [True] * nv
    iterations = images = 0
    while stack:
        u = stack.pop()
        queued[u] = False
        iterations += 1
        pu = game.priorities[u]
        parts = []
        for v in game.succs[u]:
            image = cache[v].get(pu)
            if image is None:
                image = down_bwd(mu[v], pu, space)
                image = cache[v][pu] = intern(image.vectors, image)
                images += 1
            parts.append(image)
        new = _cpre_vertex(parts, game.owners[u], ops)
        if new is not mu[u]:
            mu[u] = new
            cache[u].clear()
            for p in preds[u]:
                if not queued[p]:
                    queued[p] = True
                    stack.append(p)
    winners = [EVEN if mu[v].vectors else ODD for v in range(nv)]
    return SolveResult(winners, iterations, mu, space, images, cache, ops.calls,
                       max(map(len, interned)))


def synthesize_even_strategy(game: ParityGame, result: SolveResult) -> Dict[int, int]:
    """Positional strategy for the even player on its winning, even-owned
    vertices.

    For each candidate successor, take the best counter guaranteed after
    stepping back through the current vertex (the solve keeps only live
    counters, every component at least logical 0), compared
    co-lexicographically over the counter components that the current
    priority does not dominate; move to the successor with the greatest
    such guarantee, ties broken by successor order.  The images are the
    ones the solve kept (``result.backward``), so none is computed again.
    """
    space = result.space
    strategy: Dict[int, int] = {}
    for u in range(len(game)):
        if game.owners[u] != EVEN or result.winners[u] != EVEN:
            continue
        pu = game.priorities[u]
        kept = [i for i in reversed(range(space.d)) if 2 * (i + 1) >= pu]
        best_key = None
        best_succ = None
        for v in game.succs[u]:
            image = result.backward[v][pu]
            keys = [tuple([c[i] for i in kept]) for c in image.vectors]
            if not keys:
                continue
            key = max(keys)
            if best_key is None or key > best_key:
                best_key = key
                best_succ = v
        if best_succ is None:
            raise RuntimeError(f"no viable successor for winning vertex {game.ids[u]}")
        strategy[u] = best_succ
    return strategy


# ---------------------------------------------------------------------------
# Independent oracle and strategy validation
# ---------------------------------------------------------------------------

def _attract(game: ParityGame, preds, target, player: int, alive) -> set:
    """The attractor of ``player`` to ``target`` in the subgame on ``alive``.

    An opponent vertex joins once all its moves inside the subgame lead into
    the attractor.  Its moves are counted when the attractor first reaches
    it, so a call costs the edges around the attractor, not the size of the
    subgame.
    """
    owners, succs = game.owners, game.succs
    result = set(target)
    left: Dict[int, int] = {}  # opponent vertices reached: moves not yet into the attractor
    stack = list(target)
    while stack:
        v = stack.pop()
        for p in preds[v]:
            if p in result or p not in alive:
                continue
            if owners[p] != player:
                n = left.get(p)
                if n is None:
                    n = sum(1 for w in succs[p] if w in alive)
                left[p] = n = n - 1
                if n:
                    continue
            result.add(p)
            stack.append(p)
    return result


def zielonka(game: ParityGame) -> List[int]:
    """Zielonka's attractor decomposition, winners per vertex.

    A subgame is solved from the subgame without the attractor of its top
    priority and, if the opponent wins some of that, from the subgame
    without the opponent's attractor to it.  The nesting, up to one level
    per priority, runs on an explicit stack of frames, as ``_sccs`` does, so
    its depth is not bounded by the interpreter's stack.  A frame holds a
    subgame, the player its top priority favours, the first subgame it
    asked for and, once asked, the opponent's attractor.  Each answer is the
    odd player's region; the even player's is the rest of the subgame.
    """
    preds = game.predecessors()
    prio = game.priorities
    by_prio: Dict[int, List[int]] = {}
    for v, p in enumerate(prio):
        by_prio.setdefault(p, []).append(v)
    stack: list = []
    sub = frozenset(range(len(game)))
    while True:
        while sub:
            p = max(map(prio.__getitem__, sub))
            player = p % 2
            a = _attract(game, preds, [v for v in by_prio[p] if v in sub], player, sub)
            child = sub - a
            stack.append([sub, player, child, None])
            sub = child
        odd = frozenset()  # the empty subgame's answer
        while stack:
            alive, player, child, b = stack[-1]
            if b is None:  # the answer is the first subgame's
                lost = odd if player == EVEN else child - odd  # the opponent's part of it
                if lost:
                    b = stack[-1][3] = _attract(game, preds, lost, 1 - player, alive)
                    sub = alive - b
                    break
                odd = frozenset() if player == EVEN else alive
            elif player == EVEN:  # the answer is the second subgame's
                odd = odd | b
            stack.pop()
        else:
            return [ODD if v in odd else EVEN for v in range(len(game))]


def _sccs(vertices, edges) -> List[List[int]]:
    """Tarjan's strongly connected components, iterative."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    out: List[List[int]] = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def check_even_strategy(game: ParityGame, winners: Sequence[int],
                        strategy: Dict[int, int]) -> bool:
    """Validate a strategy: inside the even winning region, with even moves
    fixed and odd moves free, every cycle must have an even maximum
    priority."""
    region = {v for v in range(len(game)) if winners[v] == EVEN}
    edges: Dict[int, List[int]] = {}
    for u in region:
        if game.owners[u] == EVEN:
            if u not in strategy:
                return False
            v = strategy[u]
            if v not in game.succs[u] or v not in region:
                return False
            edges[u] = [v]
        else:
            if any(w not in region for w in game.succs[u]):
                return False
            edges[u] = list(game.succs[u])
    odd_priorities = sorted({game.priorities[v] for v in region if game.priorities[v] % 2 == 1})
    for p in odd_priorities:
        sub = {v for v in region if game.priorities[v] <= p}
        sub_edges = {v: [w for w in edges[v] if w in sub] for v in sub}
        for comp in _sccs(sorted(sub), sub_edges):
            nontrivial = len(comp) > 1 or comp[0] in sub_edges.get(comp[0], ())
            if nontrivial and any(game.priorities[v] == p for v in comp):
                return False
    return True
