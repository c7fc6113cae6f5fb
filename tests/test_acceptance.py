"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances and instance counts are pinned here; the
timed criteria assert their own wall-clock budgets.
"""

import math
import random
import time
from math import comb

from downset import get_backend, member_list, union_list, intersect_list
from downset.bench import BenchSpec, run_bench, run_membership_bench
from downset.combinatorics import (
    check_middle_layer_conjecture,
    count_antichains,
    random_antichain,
    width,
)
from downset.core import Stats
from downset.cst import build_cst, member_cst
from downset.kdtree import (
    build_kdtree,
    member_kdtree,
    tree_height,
)
from downset.sharingtree import build_sharingtree, iter_vectors, member_st
from downset.parity import (
    check_even_strategy,
    solve,
    synthesize_even_strategy,
    zielonka,
)
from test_parity import HANDWRITTEN
from util import adversarial_vectors, pair_family, rand_antichain, rand_game


def _report(n, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {label}: PASS{suffix}", flush=True)


def test_criterion_1_cross_backend_equivalence():
    """1,000 seeded random cases; membership, union, intersection identical
    across list, k-d tree, sharing tree and CST.  Zero mismatches in < 5 min."""
    start = time.perf_counter()
    rng = random.Random(20240)
    kd, st, cst = get_backend("kdtree"), get_backend("sharingtree"), get_backend("cst")
    queries = 0
    for case in range(1000):
        k = rng.randint(1, 6)
        maxval = rng.randint(1, 8)
        a = rand_antichain(rng, k, rng.randint(1, 40), maxval)
        b = rand_antichain(rng, k, rng.randint(1, 40), maxval)

        union_ref = union_list(a, b)
        inter_ref = intersect_list(a, b)
        assert kd.union(a, b) == union_ref, f"case {case}: kdtree union"
        assert st.union(a, b) == union_ref, f"case {case}: sharingtree union"
        assert kd.intersect(a, b) == inter_ref, f"case {case}: kdtree intersection"
        assert st.intersect(a, b) == inter_ref, f"case {case}: sharingtree intersection"
        assert cst.union(a, b) == union_ref, f"case {case}: cst union"
        assert cst.intersect(a, b) == inter_ref, f"case {case}: cst intersection"

        tree = build_kdtree(a)
        stree = build_sharingtree(a)
        ctree = build_cst(a)
        assert tuple(sorted(iter_vectors(ctree))) == a.vectors, f"case {case}: cst build language"
        for _ in range(10):
            u = tuple(rng.randint(0, maxval + 1) for _ in range(k))
            queries += 1
            expect = member_list(a, u)
            assert member_kdtree(tree, u) == expect, f"case {case}: kdtree member {u}"
            assert member_st(stree, u) == expect, f"case {case}: sharingtree member {u}"
            assert member_cst(ctree, u) == expect, f"case {case}: cst member {u}"

    elapsed = time.perf_counter() - start
    assert queries >= 10_000
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    _report(1, "cross-backend oracle equivalence",
            f"1000 cases, {queries} membership queries, {elapsed:.1f}s")


def test_criterion_2_counting_exactness():
    """Enumerated antichain counts equal the closed forms, exactly."""
    for ell in range(1, 7):
        assert count_antichains(2, ell) == comb(2 * ell, ell), f"ell={ell}"
    assert count_antichains(3, 2) == 20
    _report(2, "counting exactness", "A(2,1..6) and A(3,2)")


def test_criterion_3_width_facts():
    """Grid widths match the closed form in 2-d; the largest constant-sum
    layer realizes the width for all d <= 3, ell <= 4.  Exact."""
    for ell in range(1, 6):
        assert width(2, ell) == ell, f"width(2,{ell})"
    for d in range(1, 4):
        for ell in range(1, 5):
            report = check_middle_layer_conjecture(d, ell)
            assert report.equal, f"width vs layer mismatch at d={d}, ell={ell}"
    _report(3, "width facts", "width(2,l)=l and middle-layer equality d<=3, l<=4")


def test_criterion_4_kdtree_balance():
    """Height <= ceil(log2 m) + 1 on 100 random antichains up to m=4096."""
    rng = random.Random(4096)
    sizes = [4096, 4096, 2048] + [rng.randint(1, 4096) for _ in range(97)]
    for i, m in enumerate(sizes):
        k = rng.randint(2, 6)
        maxval = 40
        target_sum = (maxval * k) // 2
        pts = set()
        attempts = 0
        while len(pts) < m and attempts < 60 * m:
            attempts += 1
            head = [rng.randint(0, maxval) for _ in range(k - 1)]
            last = target_sum - sum(head)
            if 0 <= last <= maxval:
                pts.add(tuple(head) + (last,))
        vectors = sorted(pts)  # constant-sum vectors are pairwise incomparable
        tree = build_kdtree(vectors)
        height = tree_height(tree)
        bound = (math.ceil(math.log2(len(vectors))) + 1) if len(vectors) > 1 else 1
        assert height <= bound, f"antichain {i}: m={len(vectors)} height={height} > {bound}"
    _report(4, "k-d tree balance", "100 antichains, m up to 4096")


def test_criterion_5_kdtree_search_scaling():
    """Adversarial membership visits Theta(m^(1-1/k)) nodes: within a 4x
    constant band for k in {2,3,4} and m in {2^2k, 2^3k}."""
    rng = random.Random(55)
    for k in (2, 3, 4):
        for exponent in (2 * k, 3 * k):
            m = 2 ** exponent
            scale = m ** (1 - 1 / k)
            lo, hi = scale / 4, 4 * k * scale
            for special in (False, True):
                vectors = adversarial_vectors(rng, k, m, special)
                tree = build_kdtree(vectors)
                stats = Stats()
                query = tuple([0] * (k - 1) + [1])
                assert member_kdtree(tree, query, stats) is special
                assert lo <= stats.node_visits <= hi, \
                    f"k={k} m={m} special={special}: {stats.node_visits} outside [{lo:.0f},{hi:.0f}]"
    _report(5, "k-d tree search scaling", "visits in [m^(1-1/k)/4, 4k m^(1-1/k)]")


def test_criterion_6_sharing_tree_compression():
    """The block-pair family with 2^n members fits in 4n+2 nodes, as a
    sharing tree and as a covering sharing tree."""
    for n in range(1, 13):
        fam = pair_family(n)
        assert len(fam) == 2 ** n
        for build in (build_sharingtree, build_cst):
            tree = build(fam)
            assert tree.node_count <= 4 * n + 2, f"{build.__name__} n={n}: {tree.node_count} nodes"
    _report(6, "sharing-tree compression", "2^n vectors in <= 4n+2 nodes (both DAG backends), n <= 12")


def test_criterion_7_parity_solver():
    """Downset solver matches the attractor oracle on 500 seeded games plus
    the handwritten ones; every synthesized strategy passes the cycle
    parity check.  Zero mismatches in < 2 min."""
    start = time.perf_counter()
    rng = random.Random(777)
    for case in range(500):
        game = rand_game(rng, rng.randint(1, 8), 5, 3)
        result = solve(game)
        assert result.winners == zielonka(game), f"game {case}: winner mismatch"
        strategy = synthesize_even_strategy(game, result)
        assert check_even_strategy(game, result.winners, strategy), f"game {case}: bad strategy"
    for i, game in enumerate(HANDWRITTEN):
        result = solve(game)
        assert result.winners == zielonka(game), f"handwritten {i}"
        strategy = synthesize_even_strategy(game, result)
        assert check_even_strategy(game, result.winners, strategy), f"handwritten {i} strategy"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 7 took {elapsed:.0f}s"
    _report(7, "parity solver correctness", f"500 random + {len(HANDWRITTEN)} handwritten, {elapsed:.1f}s")


def test_criterion_8_benchmark_trend():
    """With k=512 and W=2t, the list-to-k-d-tree comparison ratio for
    membership strictly rises from t=10 to t=2000."""
    spec = BenchSpec(op="membership", sizes=(10, 2000), k=512, maxval=None, seed=1,
                     backends=("list", "kdtree"), metric="comparisons")
    rows = run_membership_bench(spec)
    by = {(r.t, r.backend): r.value for r in rows}
    ratio_small = by[(10, "list")] / by[(10, "kdtree")]
    ratio_large = by[(2000, "list")] / by[(2000, "kdtree")]
    assert ratio_large > ratio_small, f"ratio did not rise: {ratio_small} -> {ratio_large}"
    _report(8, "benchmark trend", f"ratio {ratio_small:.3f} -> {ratio_large:.3f}")


def test_criterion_9_determinism(tmp_path):
    """Identical seeds produce byte-identical CSV and set files."""
    from downset.bench import emit_csv
    from downset.core import save_vector_set

    spec = BenchSpec(op="union", sizes=(5, 12), k=8, maxval=None, seed=9,
                     backends=("list", "kdtree", "sharingtree"), metric="comparisons")
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_bench(spec), csv_a)
    emit_csv(run_bench(spec), csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()

    set_a, set_b = tmp_path / "a.txt", tmp_path / "b.txt"
    save_vector_set(random_antichain(4, 20, 30, seed=31).antichain, set_a)
    save_vector_set(random_antichain(4, 20, 30, seed=31).antichain, set_b)
    assert set_a.read_bytes() == set_b.read_bytes()
    _report(9, "determinism", "byte-identical CSV and set files")
