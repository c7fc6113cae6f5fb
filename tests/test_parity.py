import itertools
import random

import pytest

import downset.adaptive as adaptive
import downset.parity as parity_mod

from downset import Antichain
from downset.parity import (
    EVEN,
    ODD,
    CounterSpace,
    ParityGame,
    ParityParseError,
    _postorder,
    check_even_strategy,
    counter_space,
    down_bwd,
    initial_counters,
    parse_pgsolver,
    solve,
    synthesize_even_strategy,
    zielonka,
)
from util import (
    bwd_counter,
    cpre_step,
    dfs_postorder,
    full_bwd,
    full_fixpoint,
    live,
    rand_game,
    reference_solve,
    reference_strategy,
    relabel,
    self_loops,
)

# hand-traced reference games
G_ODD_LOOP = ParityGame([1], [1], [[0]], [0])          # odd self-loop, priority 1
G_EVEN_LOOP = ParityGame([0], [2], [[0]], [0])         # priority-2 self-loop
G_ESCAPE = ParityGame([0, 1], [1, 2], [[0, 1], [1]], [0, 1])

HANDWRITTEN = [
    G_ODD_LOOP,
    G_EVEN_LOOP,
    G_ESCAPE,
    ParityGame([0], [0], [[0]], [0]),                          # all priorities zero
    ParityGame([1, 0], [3, 4], [[1], [0]], [0, 1]),            # 2-cycle, max even
    ParityGame([0, 1, 1], [1, 3, 2], [[1, 2], [0], [2]], [0, 1, 2]),
    ParityGame([1, 1], [1, 2], [[0, 1], [0]], [0, 1]),
]


def test_parse_examples():
    g = parse_pgsolver("parity 1; 0 2 0 0;")
    assert len(g) == 1 and g.priorities == [2] and g.owners == [0] and g.succs == [[0]]
    g = parse_pgsolver("0 1 1 1; 1 2 0 0,1;")
    assert len(g) == 2 and g.succs == [[1], [0, 1]]
    g = parse_pgsolver('0 1 0 1 "start";\n1 0 1 0,1;')
    assert g.names[0] == "start"


@pytest.mark.parametrize("text,fragment", [
    ("0 1 0 ;", "needs id"),
    ("0 1 0 5;", "does not exist"),
    ("0 1 7 0;", "owner"),
    ("0 1 0 0", "semicolon"),
    ("0 1 0 0; 0 2 1 0;", "duplicate"),
    ("", "no vertex records"),
    ("0 1 0 x;", "bad successor"),
    ("0 1 0 0,\u00b2;", "line 1: bad successor"),
    ("parity \u00b2;\n0 1 0 0;", "line 1: malformed header"),
    ("0 1_0 0 0;", "line 1: malformed record"),
    ("0 +1 0 0;", "line 1: malformed record"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParityParseError) as exc:
        parse_pgsolver(text)
    assert fragment in str(exc.value)


def test_counter_space():
    assert counter_space(G_ESCAPE) == CounterSpace(1, (1,))
    g = ParityGame([0, 1, 0], [1, 3, 4], [[1], [2], [0]], [0, 1, 2])
    assert counter_space(g) == CounterSpace(2, (1, 1))
    assert counter_space(ParityGame([0], [0], [[0]], [0])) == CounterSpace(1, (0,))


def test_bwd_counter_odd_decrement_and_floor():
    caps = (1,)
    assert bwd_counter((2,), 1, caps) == (1,)      # logical 1 -> 0
    assert bwd_counter((1,), 1, caps) == (0,)      # logical 0 -> -1
    assert bwd_counter((0,), 1, caps) == (0,)      # -1 is a floor
    assert bwd_counter((0,), 1, caps) == (0,)


def test_bwd_counter_even_saturation():
    caps = (2, 1)
    # priority 4 = 2i with i = 2: live components 1..2 top up to the caps
    assert bwd_counter((1, 1), 4, caps) == (3, 2)
    assert bwd_counter((2, 2), 4, caps) == (3, 2)
    # priority 2 touches only component 1
    assert bwd_counter((1, 1), 2, caps) == (3, 1)
    # priority 0 is the identity
    assert bwd_counter((1, 1), 0, caps) == (1, 1)
    # dead components stay dead through even resets
    assert bwd_counter((0, 1), 4, caps) == (0, 2)


def test_bwd_counter_even_top_up_matches_the_min_formula():
    # a live component's top-up min(s + cap, cap + 1) is always cap + 1
    for caps in itertools.product(range(3), repeat=2):
        for stored in itertools.product(*(range(c + 2) for c in caps)):
            for priority in (2, 4, 6):
                head = tuple(s if s == 0 else min(s + c, c + 1)
                             for s, c in zip(stored[:priority // 2], caps))
                assert bwd_counter(stored, priority, caps) == head + stored[len(head):]


def test_initial_counters_examples():
    assert initial_counters(CounterSpace(1, (1,))).vectors == ((2,),)
    assert initial_counters(CounterSpace(2, (2, 1))).vectors == ((3, 2),)
    assert initial_counters(CounterSpace(1, (0,))).vectors == ((1,),)


def test_down_bwd_reduces_to_antichain():
    space = CounterSpace(2, (2, 2))
    ac = Antichain([(3, 1), (1, 3)])
    out = down_bwd(ac, 4, space)  # both saturate to the caps, merge
    assert out.vectors == ((3, 3),)


def test_cpre_example_odd_self_loop():
    space = counter_space(G_ODD_LOOP)
    mu = [initial_counters(space)]
    nu, changed = cpre_step(mu, G_ODD_LOOP)
    assert changed == {0}
    assert nu[0].vectors == ((1,),)  # logical 0
    nu2, _ = cpre_step(nu, G_ODD_LOOP)
    assert nu2[0].vectors == ()  # logical -1 is dropped
    nu3, changed3 = cpre_step(nu2, G_ODD_LOOP)
    assert not changed3


def test_down_bwd_is_the_live_part_of_the_full_image():
    # a counter with a lost component is never above a live one, so dropping
    # the lost counters as they are made leaves the live part of the image
    rng = random.Random(131)
    for _ in range(300):
        d = rng.randint(1, 4)
        space = CounterSpace(d, tuple(rng.randint(0, 3) for _ in range(d)))
        ac = Antichain([tuple(rng.randint(1, c + 1) for c in space.caps)
                        for _ in range(rng.randint(1, 6))], dim=d)
        for priority in range(2 * d + 1):
            out = down_bwd(ac, priority, space)
            assert out.vectors == live(full_bwd(ac, priority, space))
            assert out == Antichain(out.vectors, dim=d)


def test_cpre_monotone_descent():
    rng = random.Random(2)
    for _ in range(25):
        g = rand_game(rng, rng.randint(1, 6), 5, 3)
        space = counter_space(g)
        mu = [initial_counters(space)] * len(g)
        for _ in range(6):
            nu, changed = cpre_step(mu, g)
            for v in range(len(g)):
                # downset shrinks: every new maximal element sits below an old one
                for c in nu[v].vectors:
                    assert any(all(x <= y for x, y in zip(c, d)) for d in mu[v].vectors)
            if not changed:
                break
            mu = nu


def test_solve_examples():
    assert solve(G_ODD_LOOP).winners == [ODD]
    assert solve(G_EVEN_LOOP).winners == [EVEN]
    assert solve(G_ESCAPE).winners == [EVEN, EVEN]


def test_solve_matches_zielonka_on_handwritten():
    for g in HANDWRITTEN:
        assert solve(g).winners == zielonka(g)


def test_strategy_example_prefers_escape():
    r = solve(G_ESCAPE)
    strat = synthesize_even_strategy(G_ESCAPE, r)
    assert strat == {0: 1}
    assert check_even_strategy(G_ESCAPE, r.winners, strat)


def test_strategy_single_successor():
    g = ParityGame([0], [2], [[0]], [0])
    r = solve(g)
    assert synthesize_even_strategy(g, r) == {0: 0}


def test_strategies_valid_on_handwritten():
    for g in HANDWRITTEN:
        r = solve(g)
        strat = synthesize_even_strategy(g, r)
        assert check_even_strategy(g, r.winners, strat)


def test_solve_matches_zielonka_randomized():
    rng = random.Random(61)
    for _ in range(200):
        g = rand_game(rng, rng.randint(1, 8), 5, 3)
        r = solve(g)
        assert r.winners == zielonka(g)
        strat = synthesize_even_strategy(g, r)
        assert check_even_strategy(g, r.winners, strat)


def test_zielonka_nests_a_thousand_priorities_deep():
    # a decomposition that recursed once per level would exceed the
    # interpreter's stack here
    assert zielonka(self_loops(1000)) == [EVEN if v % 2 == 0 else ODD for v in range(1000)]


def test_postorder_is_the_recursive_search_order():
    rng = random.Random(113)
    for _ in range(100):
        g = rand_game(rng, rng.randint(1, 12), 5, 3)
        order = _postorder(g)
        assert sorted(order) == list(range(len(g)))
        assert order == dfs_postorder(g)


def test_postorder_lists_successors_first_on_acyclic_games():
    # edges lead to lower ranks, under shuffled labels; the lowest rank's
    # self-loop is the only cycle
    rng = random.Random(127)
    for _ in range(50):
        n = rng.randint(1, 12)
        label = list(range(n))
        rng.shuffle(label)
        succs = [None] * n
        for rank in range(n):
            below = rng.sample(range(rank), min(rank, rng.randint(1, 3))) or [rank]
            succs[label[rank]] = [label[r] for r in below]
        g = ParityGame([0] * n, [0] * n, succs, list(range(n)))
        position = {v: i for i, v in enumerate(_postorder(g))}
        assert all(position[w] < position[u] for u in range(n) for w in succs[u] if w != u)


def test_solve_on_a_thousand_vertices_does_not_recurse():
    assert solve(self_loops(1000)).winners == [EVEN if v % 2 == 0 else ODD for v in range(1000)]
    # a 1,000-vertex path: a recursive depth-first search would exceed the
    # interpreter's stack
    n = 1000
    path = ParityGame([0] * n, [2] * n, [[v + 1] for v in range(n - 1)] + [[n - 1]], list(range(n)))
    assert _postorder(path) == list(reversed(range(n)))
    r = solve(path)
    assert r.winners == [EVEN] * n and r.iterations == n


def test_worklist_counts_are_pinned():
    # the successor-first stack over the depth-first postorder, over live
    # counters only; carrying the lost counters along made 4,518 refinements
    # and 2,411 backend setops on the same games, and the FIFO queue over
    # range(nv) before that 5,341 and 2,999
    rng = random.Random(109)
    games = [rand_game(rng, rng.randint(2, 12), 7, 3) for _ in range(200)]
    results = [solve(g) for g in games]
    assert sum(r.iterations for r in results) == 3704
    assert sum(r.setops for r in results) == 1429


def test_fixpoint_order_independence():
    # the reference, seeded in other orders, reaches the fixpoint the solve
    # reaches from its depth-first postorder
    rng = random.Random(67)
    for _ in range(40):
        g = rand_game(rng, rng.randint(1, 7), 5, 3)
        base = [a.vectors for a in solve(g).final]
        shuffled = list(range(len(g)))
        rng.shuffle(shuffled)
        for order in (list(reversed(range(len(g)))), shuffled):
            assert [a.vectors for a in reference_solve(g, order=order).final] == base


def test_backend_invariance():
    rng = random.Random(73)
    for _ in range(15):
        g = rand_game(rng, rng.randint(1, 6), 5, 3)
        base = solve(g, backend="list")
        for backend in ("kdtree", "sharingtree", "cst", "adaptive"):
            other = solve(g, backend=backend)
            assert other.winners == base.winners
            assert [a.vectors for a in other.final] == [a.vectors for a in base.final]


@pytest.mark.parametrize("backend", ["list", "kdtree", "sharingtree", "cst", "adaptive"])
def test_solve_matches_reference_solver(backend):
    # the reference intersects with the old downset and recomputes every
    # image; a relabelled game is solved in another order, to the same winners
    rng = random.Random(83)
    for _ in range(30):
        g = rand_game(rng, rng.randint(1, 8), 7, 3)
        perm = list(range(len(g)))
        rng.shuffle(perm)
        for game in (g, relabel(g, perm)):
            r = solve(game, backend=backend)
            ref = reference_solve(game, backend=backend)
            assert r.winners == ref.winners
            assert [a.vectors for a in r.final] == [a.vectors for a in ref.final]
            assert r.iterations == ref.iterations
        assert [r.winners[perm[v]] for v in range(len(g))] == solve(g).winners


def test_solve_counts_and_reuses_its_images(monkeypatch):
    computed, used = [], []

    def counted_image(ac, priority, space):
        computed.append(priority)
        return down_bwd(ac, priority, space)

    def counted_cpre(parts, owner, ops):
        used.extend(parts)
        return cpre_vertex(parts, owner, ops)

    cpre_vertex = parity_mod._cpre_vertex
    monkeypatch.setattr(parity_mod, "down_bwd", counted_image)
    monkeypatch.setattr(parity_mod, "_cpre_vertex", counted_cpre)
    rng = random.Random(89)
    total_computed = total_used = 0
    for _ in range(20):
        g = rand_game(rng, rng.randint(2, 8), 5, 3)
        computed.clear()
        used.clear()
        r = solve(g)
        assert r.images == len(computed) <= len(used)
        total_computed += len(computed)
        total_used += len(used)
    assert total_computed < total_used


@pytest.mark.parametrize("backend", ["list", "kdtree", "sharingtree", "cst", "adaptive"])
def test_solve_combines_each_pair_once(backend, monkeypatch):
    # within one solve the backend never sees equal operands, nor a pair of
    # operand values it has already combined the same way, in either order
    ops = adaptive.BACKENDS[backend]
    calls = []

    def counted(kind):
        run = getattr(ops, kind)

        def op(a, b, stats=None):
            calls.append((kind, a.vectors, b.vectors))
            return run(a, b, stats)
        return op

    monkeypatch.setitem(adaptive.BACKENDS, backend, adaptive.BackendOps(
        backend, ops.member, counted("union"), counted("intersect")))
    rng = random.Random(101)
    total = 0
    for _ in range(40):
        g = rand_game(rng, rng.randint(2, 10), 7, 3)
        calls.clear()
        r = solve(g, backend=backend)
        assert all(x != y for _, x, y in calls)
        pairs = [(kind, frozenset((x, y))) for kind, x, y in calls]
        assert len(set(pairs)) == len(pairs)
        assert r.setops == len(calls)
        total += len(calls)
    assert total > 0


@pytest.mark.parametrize("backend", ["list", "kdtree", "sharingtree", "cst", "adaptive"])
def test_solve_holds_one_object_per_downset_value(backend):
    # the solve hash-conses its downsets, so the setop table and the change
    # test can go by identity; its results and accounts are still those of
    # the reference, which goes by value
    rng = random.Random(113)
    for _ in range(40):
        g = rand_game(rng, rng.randint(2, 10), 7, 3)
        r = solve(g, backend=backend)
        objects = {}
        for ac in r.final + [image for kept in r.backward for image in kept.values()]:
            assert objects.setdefault(ac.vectors, ac) is ac
        ref = reference_solve(g, backend=backend)
        assert (r.winners, r.iterations, r.images, r.setops) == \
            (ref.winners, ref.iterations, ref.images, ref.setops)
        assert [a.vectors for a in r.final] == [a.vectors for a in ref.final]
        assert [{p: a.vectors for p, a in kept.items()} for kept in r.backward] == \
            [{p: a.vectors for p, a in kept.items()} for kept in ref.backward]


@pytest.mark.parametrize("backend", ["list", "kdtree", "sharingtree", "cst", "adaptive"])
def test_solve_reports_its_peak_antichain(backend, monkeypatch):
    # the peak is the largest of the initial counter, the backward images
    # and the backend's results, as a counting backend sees them
    ops = adaptive.BACKENDS[backend]
    sizes = []

    def counted(run):
        def op(a, b, stats=None):
            result = run(a, b, stats)
            sizes.append(len(result))
            return result
        return op

    def counted_image(ac, priority, space):
        image = down_bwd(ac, priority, space)
        sizes.append(len(image))
        return image

    monkeypatch.setitem(adaptive.BACKENDS, backend, adaptive.BackendOps(
        backend, ops.member, counted(ops.union), counted(ops.intersect)))
    monkeypatch.setattr(parity_mod, "down_bwd", counted_image)
    rng = random.Random(127)
    peaks = []
    for _ in range(40):
        g = rand_game(rng, rng.randint(2, 10), 7, 3)
        sizes[:] = [1]
        r = solve(g, backend=backend)
        assert r.peak_antichain == max(sizes) >= max(map(len, r.final))
        peaks.append(r.peak_antichain)
    assert max(peaks) > 1


@pytest.mark.parametrize("backend", ["kdtree", "sharingtree", "cst"])
def test_solve_builds_each_operand_value_once(backend, monkeypatch):
    # a tree backend's index is built at most once per operand value in one
    # solve, and the solve returns what the list backend returns
    module = adaptive.BACKENDS[backend].index
    build = module.build
    built = []

    def counted(ac):
        built.append(ac.vectors)
        return build(ac)

    monkeypatch.setattr(module, "build", counted)
    rng = random.Random(103)
    total = 0
    for _ in range(40):
        g = rand_game(rng, rng.randint(2, 10), 7, 3)
        built.clear()
        r = solve(g, backend=backend)
        assert len(set(built)) == len(built)
        total += len(built)
        ref = solve(g, backend="list")
        assert (r.winners, r.final, r.iterations, r.images, r.setops) == \
            (ref.winners, ref.final, ref.iterations, ref.images, ref.setops)
        assert synthesize_even_strategy(g, r) == synthesize_even_strategy(g, ref)
    assert total > 0


@pytest.mark.parametrize("backend", ["list", "kdtree", "sharingtree", "cst", "adaptive"])
def test_strategy_reads_the_images_the_solve_kept(backend, monkeypatch):
    # at the fixpoint every successor's cache holds its final image at the
    # predecessor's priority, so the strategy computes none and picks the
    # same moves as when it recomputed them
    rng = random.Random(97)
    games = [rand_game(rng, rng.randint(1, 8), 7, 3) for _ in range(40)]
    results = [solve(g, backend=backend) for g in games]
    for g, r in zip(games, results):
        for u in range(len(g)):
            for v in g.succs[u]:
                p = g.priorities[u]
                assert r.backward[v][p].vectors == down_bwd(r.final[v], p, r.space).vectors
    expected = [reference_strategy(g, r) for g, r in zip(games, results)]

    def no_image(*args):
        raise AssertionError("the strategy computed a backward image")

    monkeypatch.setattr(parity_mod, "down_bwd", no_image)
    for g, r, strat in zip(games, results, expected):
        assert synthesize_even_strategy(g, r) == strat


def test_all_even_priorities_degenerate_caps():
    g = ParityGame([1, 0], [2, 0], [[1], [0]], [0, 1])
    space = counter_space(g)
    assert space.caps == (0,)
    r = solve(g)
    assert r.winners == [EVEN, EVEN]
    strat = synthesize_even_strategy(g, r)
    assert check_even_strategy(g, r.winners, strat)


def test_dead_positions_never_recover():
    # over whole downsets, lost counters kept: once a vertex downset has no
    # live counter it stays that way, which is why the solve may drop them
    rng = random.Random(79)
    for _ in range(20):
        g = rand_game(rng, rng.randint(1, 6), 5, 3)
        space = counter_space(g)
        mu = [initial_counters(space)] * len(g)
        dead = [False] * len(g)
        for _ in range(12):
            mu, changed = cpre_step(mu, g, image=full_bwd)
            for v in range(len(g)):
                alive = any(all(s >= 1 for s in c) for c in mu[v].vectors)
                if dead[v]:
                    assert not alive
                dead[v] = not alive
            if not changed:
                break


def test_solve_is_the_live_part_of_the_full_fixpoint():
    # the plain fixpoint over whole downsets keeps every counter with a lost
    # component; its live members are the solve's downsets, and it gives the
    # same winners and even strategy, on ordinary games, on all-even games
    # (every cap 0) and on games missing an odd priority (that cap 0)
    rng = random.Random(137)
    kinds = {"any": 0, "all-even": 0, "cap-0": 0}
    for n in range(240):
        g = rand_game(rng, rng.randint(1, 9), 7, 3)
        prios = g.priorities
        if n % 3 == 1:
            prios = [p - p % 2 for p in prios]
        elif n % 3 == 2:
            gone = rng.choice([1, 3, 5])
            prios = [p + 1 if p == gone else p for p in prios]
        g = ParityGame(g.owners, prios, g.succs, g.ids)
        space = counter_space(g)
        kind = "all-even" if not any(space.caps) else "cap-0" if 0 in space.caps else "any"
        kinds[kind] += 1
        r = solve(g)
        full = full_fixpoint(g)
        assert [a.vectors for a in r.final] == [live(a) for a in full.final]
        assert r.winners == full.winners
        assert synthesize_even_strategy(g, r) == reference_strategy(g, full, image=full_bwd)
    assert min(kinds.values()) >= 10
