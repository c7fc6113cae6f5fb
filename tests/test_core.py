import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downset import (
    Antichain,
    DimensionMismatch,
    Stats,
    VectorSetFormatError,
    format_vector_set,
    intersect_list,
    leq,
    meet,
    member_list,
    parse_vector_set,
    union_list,
)
import downset
from downset import core, get_backend, kdtree, sharingtree
from downset.core import maxac
from util import box_points, brute_downset, brute_member, incomparable, rand_antichain, scan_count

vectors_st = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*(st.integers(0, 6) for _ in range(k))))


def small_antichains(rng, count, k_hi=5, m_hi=12, w_hi=6):
    for case in range(count):
        k = rng.randint(1, k_hi)
        yield (rand_antichain(rng, k, rng.randint(1, m_hi), rng.randint(1, w_hi)),
               rand_antichain(rng, k, rng.randint(1, m_hi), rng.randint(1, w_hi)))


def shared_pairs(rng, count, k_hi=4, m_hi=8, w_hi=5):
    """Operand pairs that share members: equal, one a subset of the other,
    about half shared (the rest random, so some are dominated), disjoint."""
    for _ in range(count):
        k = rng.randint(1, k_hi)
        a = rand_antichain(rng, k, rng.randint(1, m_hi), rng.randint(1, w_hi))
        half = a.vectors[::2] + rand_antichain(rng, k, rng.randint(1, m_hi), w_hi).vectors
        yield a, a
        yield a, Antichain(a.vectors[: (len(a) + 1) // 2], dim=k)
        yield a, Antichain(half, dim=k)
        yield a, Antichain([tuple(x + 1 for x in v) for v in a.vectors], dim=k)


def test_compare_examples():
    assert leq((1, 2), (1, 3)) and not leq((1, 3), (1, 2))
    assert leq((0, 0), (0, 0))
    assert not leq((2, 1), (1, 2)) and not leq((1, 2), (2, 1))
    assert incomparable((2, 1), (1, 2))
    assert not incomparable((1, 2), (1, 3)) and not incomparable((0, 0), (0, 0))


@given(vectors_st, st.data())
@settings(max_examples=200, deadline=None)
def test_leq_matches_definition(u, data):
    v = data.draw(st.tuples(*(st.integers(0, 6) for _ in range(len(u)))))
    assert leq(u, v) == all(a <= b for a, b in zip(u, v))


def test_leq_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        leq((1,), (1, 2))


def test_meet_examples():
    assert meet((3, 1), (2, 4)) == (2, 1)
    assert meet((4, 2), (4, 2)) == (4, 2)
    assert meet((0, 5), (5, 0)) == (0, 0)
    with pytest.raises(DimensionMismatch):
        meet((1,), (1, 2))


def test_maxac_examples():
    assert maxac([(1, 1), (0, 1), (1, 0)]).vectors == ((1, 1),)
    assert maxac([(2, 0), (0, 2), (1, 1)]).vectors == ((0, 2), (1, 1), (2, 0))
    assert maxac([], dim=2).vectors == ()
    assert maxac([(1, 1), (1, 1)]).vectors == ((1, 1),)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
                min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_maxac_preserves_closure(vs):
    ac = maxac(vs)
    # pairwise incomparable and same downset over the bounding box
    for i, u in enumerate(ac.vectors):
        for v in ac.vectors[i + 1:]:
            assert incomparable(u, v)
    top = max(max(v) for v in vs)
    assert brute_downset(vs, top) == brute_downset(ac.vectors, top)


def test_member_list_examples():
    a = Antichain([(2, 0), (0, 2)])
    assert member_list(a, (1, 0)) is True
    assert member_list(a, (1, 1)) is False  # oracle: (1,1) not below (2,0) or (0,2)
    assert member_list(Antichain((), dim=2), (0, 0)) is False
    with pytest.raises(DimensionMismatch):
        member_list(a, (1, 0, 0))


def test_member_list_comparison_budget():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 6)
        a = rand_antichain(rng, k, rng.randint(1, 15), 6)
        u = tuple(rng.randint(0, 7) for _ in range(k))
        s = Stats()
        member_list(a, u, s)
        assert s.comparisons <= k * len(a)


def test_dominance_tests_count_as_the_one_way_scan():
    # list membership, a one-leaf k-d tree and the pairwise reduction each
    # give the verdict and the count of the definition-level scan
    rng = random.Random(41)
    for case in range(600):
        k = 1 if case % 5 == 0 else rng.randint(2, 6)
        v = tuple(rng.randint(0, 3) for _ in range(k))
        u = v if case % 7 == 0 else tuple(rng.randint(0, 3) for _ in range(k))
        dominated, count = scan_count(u, v)
        s = Stats()
        assert member_list(Antichain([v]), u, s) is dominated
        assert s.comparisons == count
        s = Stats()
        assert kdtree.member_kdtree(kdtree.build_kdtree([v]), u, s) is dominated
        assert (s.comparisons, s.node_visits) == (count, 1)
        if u <= v:  # the reduction tests the lexicographically smaller one
            s = Stats()
            kept = core._max_of_pairwise([v, u], s)
            assert kept == ([v] if dominated else [u, v])
            assert s.comparisons == count


def _collection(rng, k, m):
    """m distinct vectors, some dominated by others, plus duplicates, shuffled."""
    w = 2 * m if k == 1 else max(3, m // 4)
    distinct, vs = set(), []
    while len(vs) < m:
        if vs and rng.random() < 0.4:
            v = list(rng.choice(vs))
            i = rng.randrange(k)
            v[i] = max(0, v[i] - rng.randint(1, 3))  # lowered: dominated
            v = tuple(v)
        else:
            v = tuple(rng.randint(0, w) for _ in range(k))
        if v not in distinct:
            distinct.add(v)
            vs.append(v)
    vs += [rng.choice(vs) for _ in range(m // 3)]
    rng.shuffle(vs)
    return vs


def _check_kernels_agree(vs):
    uniq = sorted(set(vs), reverse=True)
    reference = core._max_of_pairwise(uniq)
    assert core._max_of(vs) == reference
    assert core._max_of_bitset(uniq) == reference


def test_bitset_reduction_matches_pairwise_scan(monkeypatch):
    rng = random.Random(17)
    n, block = core._BITSET_MIN, core._BITSET_BLOCK
    for k in range(1, 9):
        for m in (1, 2, n - 1, n, n + 1, 3 * n):
            for _ in range(3):
                _check_kernels_agree(_collection(rng, k, m))
    for k in (1, 3, 8):
        for m in (block - 1, block, block + 1):
            _check_kernels_agree(_collection(rng, k, m))
    for m in (n - 1, n, n + 1):
        _check_kernels_agree(_collection(rng, 2000, m))
    monkeypatch.setattr(core, "_BITSET_BLOCK", 5)  # many blocks on small inputs
    for k in (1, 2, 4, 8, 2000):
        for m in (4, 5, 6, 11, 40):
            _check_kernels_agree(_collection(rng, k, m))


def test_bitset_kernel_counts_column_entries_per_block(monkeypatch):
    # k walks of the hi vectors up to each block's end: k*hi per block [lo, hi)
    rng = random.Random(23)
    k, m = 3, 40
    uniq = sorted(set(_collection(rng, k, m)), reverse=True)
    assert len(uniq) == m
    s = Stats()
    core._max_of_bitset(uniq, s)
    assert s.comparisons == k * m
    monkeypatch.setattr(core, "_BITSET_BLOCK", 32)  # blocks [0, 32) and [32, 40)
    s = Stats()
    core._max_of_bitset(uniq, s)
    assert s.comparisons == k * 32 + k * 40
    assert s.node_visits == 0


_LAYER_SCRIPT = """
import itertools, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from downset import Antichain
layer = [v + (40 - sum(v),) for v in itertools.product(range(41), repeat=3) if sum(v) <= 40]
lowered = []
for v in layer:
    i = next(i for i, x in enumerate(v) if x)
    lowered.append(v[:i] + (v[i] - 1,) + v[i + 1:])
vectors = layer + lowered
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
ac = Antichain(vectors, dim=4)
elapsed = time.perf_counter() - start
grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"layer": len(layer), "distinct": len(set(vectors)), "exact": ac.vectors == tuple(sorted(layer)),
                  "seconds": elapsed, "grown_mib": grown_kib / 1024}))
"""


def test_large_antichain_reduction_is_fast_and_small():
    # the sum-40 layer of N^4 plus a lowered copy of each member: pairwise this
    # is ~10^8 vector pairs, and one unblocked mask per vector would take
    # about 68 MiB
    package_root = str(Path(core.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _LAYER_SCRIPT, package_root],
                         capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(out.stdout)
    assert (res["layer"], res["distinct"]) == (12341, 23821)
    assert res["exact"]
    assert res["seconds"] < 5, res
    assert res["grown_mib"] < 64, res


def test_union_examples():
    a = Antichain([(2, 0), (0, 2)])
    b = Antichain([(1, 1)])
    assert union_list(a, b).vectors == ((0, 2), (1, 1), (2, 0))
    assert union_list(Antichain([(1, 1)]), Antichain([(2, 2)])).vectors == ((2, 2),)
    assert union_list(a, a) == a
    with pytest.raises(DimensionMismatch):
        union_list(a, Antichain([(1, 1, 1)]))


def test_intersect_examples():
    a = Antichain([(2, 0), (0, 2)])
    b = Antichain([(1, 1)])
    assert intersect_list(a, b).vectors == ((0, 1), (1, 0))
    assert intersect_list(Antichain([(3, 3)]), Antichain([(1, 2)])).vectors == ((1, 2),)
    assert intersect_list(a, a) == a


def test_set_ops_match_pointwise_semantics():
    rng = random.Random(11)
    pairs = list(small_antichains(rng, 60, k_hi=4, m_hi=8, w_hi=5))
    pairs += shared_pairs(rng, 15)
    unions = [get_backend(name).union for name in ("list", "kdtree", "sharingtree", "adaptive")]
    for a, b in pairs:
        top = max(a.max_norm(), b.max_norm()) + 1
        da = brute_downset(a.vectors, top) if a.vectors else set()
        db = brute_downset(b.vectors, top) if b.vectors else set()
        i = intersect_list(a, b)
        for union in unions:
            u = union(a, b)
            # the union relies on, and must keep, pairwise incomparable members
            for x in u.vectors:
                for y in u.vectors:
                    assert x == y or incomparable(x, y), (x, y)
            for p in box_points(a.dim, top):
                assert member_list(u, p) == (p in da or p in db)
        for p in box_points(a.dim, top):
            assert member_list(i, p) == (p in da and p in db)


class _CountingIndex:
    """An index that offers only ``build`` and ``member``, and counts calls."""

    def __init__(self, inner):
        self.inner = inner
        self.builds = self.members = 0

    def build(self, ac):
        self.builds += 1
        return self.inner.build(ac)

    def member(self, index, u, stats=None):
        self.members += 1
        return self.inner.member(index, u, stats)


@pytest.mark.parametrize("inner", [core.ListIndex, kdtree, sharingtree],
                         ids=["list", "kdtree", "sharingtree"])
def test_union_queries_only_unshared_members(inner):
    rng = random.Random(31)
    shared = 0
    for a, b in shared_pairs(rng, 25, k_hi=5, m_hi=12, w_hi=6):
        index = _CountingIndex(inner)
        got = core.union(index, a, b, Stats())
        sa, sb = set(a.vectors), set(b.vectors)
        assert index.members == len(sa - sb) + len(sb - sa)
        assert index.builds == 2
        assert got == union_list(a, b)
        shared += len(sa & sb)
    assert shared > 0


@pytest.mark.parametrize("inner", [core.ListIndex, kdtree, sharingtree],
                         ids=["list", "kdtree", "sharingtree"])
def test_build_once_shares_builds_of_equal_values(inner):
    a = Antichain([(2, 0, 1), (0, 2, 1)])
    counting = _CountingIndex(inner)
    once = core.BuildOnce(counting)
    first = once.build(a)
    assert once.build(Antichain(list(a.vectors))) is first
    assert counting.builds == 1
    # empty antichains of different dimensions are different values
    once.build(Antichain([], dim=2))
    once.build(Antichain([], dim=3))
    assert counting.builds == 3
    # a new object builds again: nothing is kept between them
    core.BuildOnce(counting).build(a)
    assert counting.builds == 4
    assert once.member(first, (1, 0, 1)) and not once.member(first, (1, 1, 1))


@pytest.mark.parametrize("inner", [core.ListIndex, kdtree, sharingtree],
                         ids=["list", "kdtree", "sharingtree"])
def test_build_once_keeps_results_and_counts(inner):
    # union and intersect count the same over reused indexes as over fresh
    # ones; members queried first leave the reused k-d trees partly split
    rng = random.Random(37)
    once = core.BuildOnce(inner)
    for a, b in list(shared_pairs(rng, 15)) + list(small_antichains(rng, 30)):
        for u in a.vectors[::3]:
            assert core.member(once, a, u)
        for op in (core.union, core.intersect):
            want = op(inner, a, b)
            for x, y in ((a, b), (b, a)):
                fresh, reused = Stats(), Stats()
                assert op(once, x, y, reused) == op(inner, x, y, fresh) == want
                assert (reused.comparisons, reused.node_visits) == (fresh.comparisons, fresh.node_visits)


def test_set_ops_algebra():
    rng = random.Random(23)
    for a, b in small_antichains(rng, 40):
        c = rand_antichain(rng, a.dim, rng.randint(1, 10), 6)
        assert union_list(a, b) == union_list(b, a)
        assert intersect_list(a, b) == intersect_list(b, a)
        assert union_list(a, a) == a
        assert intersect_list(a, a) == a
        assert union_list(union_list(a, b), c) == union_list(a, union_list(b, c))
        assert intersect_list(intersect_list(a, b), c) == intersect_list(a, intersect_list(b, c))


def test_member_list_agrees_with_enumeration():
    rng = random.Random(47)
    for _ in range(40):
        k = rng.randint(1, 5)
        a = rand_antichain(rng, k, rng.randint(1, 12), 6)
        for _ in range(25):
            u = tuple(rng.randint(0, 8) for _ in range(k))
            assert member_list(a, u) == brute_member(a.vectors, u)


def test_antichain_construction_canonicalizes():
    ac = Antichain([(1, 1), (0, 1), (1, 1), (2, 2)])
    assert ac.vectors == ((2, 2),)
    assert ac.dim == 2
    with pytest.raises(ValueError):
        Antichain([])  # dimension unknown
    with pytest.raises(ValueError):
        Antichain([(1, -1)])
    with pytest.raises(ValueError):
        Antichain([], dim=0)
    with pytest.raises(DimensionMismatch):
        Antichain([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        Antichain([(True, 2)])
    with pytest.raises(ValueError):
        Antichain([(0.5, 2)])
    # the unvalidated reduction is not exported; Antichain(...) is the constructor
    assert not hasattr(downset, "maxac")
    assert "maxac" not in downset.__all__
    # the four-way comparator is gone; leq is the one order test
    for name in ("compare_counted", "ComparisonOutcome"):
        assert not hasattr(downset, name) and not hasattr(core, name)
        assert name not in downset.__all__


def test_antichain_contains_members_only():
    ac = Antichain([(0, 3), (1, 2), (3, 0)])
    for v in ac.vectors:
        assert v in ac
    # dominated, dominating, and between or beyond the sorted members
    for v in ((0, 2), (1, 3), (0, 0), (2, 1), (0, 4), (4, 0)):
        assert v not in ac
    assert [1, 2] in ac and [1, 1] not in ac
    # a wrong length is no member, even as a prefix of one
    assert (1,) not in ac and (1, 2, 0) not in ac and () not in ac
    assert (0,) not in Antichain((), dim=2)
    rng = random.Random(13)
    for _ in range(200):
        a = rand_antichain(rng, 3, 12, 4)
        for u in box_points(3, 4):
            assert (u in a) == (u in set(a.vectors))


def test_list_setop_comparison_counts_are_pinned():
    # counts of the list backend on one seeded pair; they must not drift when
    # the shared set operations change
    rng = random.Random(2025)
    a = rand_antichain(rng, 5, 30, 9)
    b = rand_antichain(rng, 5, 30, 9)
    for op, expected in ((union_list, 2476), (intersect_list, 2766)):
        s = Stats()
        op(a, b, s)
        assert s.comparisons == expected, op.__name__


def test_vector_set_format_round_trip():
    a = Antichain([(2, 0), (0, 2)])
    text = format_vector_set(a)
    assert text == "dim 2\n0 2\n2 0\n"
    assert parse_vector_set(text) == a


def test_vector_set_format_writes_whole_numbers_and_the_empty_set():
    # each member is one row template filled with its components
    assert format_vector_set(Antichain([(10, 0, 7), (3, 123456789012345678901, 0)])) == \
        "dim 3\n3 123456789012345678901 0\n10 0 7\n"
    assert format_vector_set(Antichain([(40,)])) == "dim 1\n40\n"
    assert format_vector_set(Antichain((), dim=4)) == "dim 4\n"


def test_vector_set_parser_canonicalizes_and_ignores_comments():
    text = "# heading\n\ndim 2\n1 1\n# dominated below\n0 1\n1 1\n"
    assert parse_vector_set(text).vectors == ((1, 1),)


@pytest.mark.parametrize("text,fragment", [
    ("1 2\n", "dim"),
    ("dim x\n", "bad dimension"),
    ("dim 2\n1\n", "line 2"),
    ("dim 2\n1 a\n", "line 2"),
    ("dim 2\n1 -1\n", "negative"),
    ("", "missing"),
    ("dim 0\n", "at least 1"),
    ("dim 1_0\n", "bad dimension"),
    ("dim 2\n1_0 3\n", "non-integer"),
    ("dim 2\n1 \u0663\n", "non-integer"),
    ("dim 2\n+1 3\n", "non-integer"),
    ("dim 2\n1 \u00b2\n", "non-integer"),
])
def test_vector_set_parser_errors(text, fragment):
    with pytest.raises(VectorSetFormatError) as exc:
        parse_vector_set(text)
    assert fragment in str(exc.value)


def test_uncounted_operations_leave_antichains_without_counters():
    a = Antichain([(2, 0), (0, 2)])
    b = Antichain([(1, 1)])
    assert member_list(a, (1, 1)) is False
    assert union_list(a, b) == Antichain([(2, 0), (0, 2), (1, 1)])
    for ac in (a, b):
        assert not hasattr(ac, "stats")
    s = Stats()
    member_list(a, (1, 1), s)
    assert s.comparisons > 0


def test_counted_and_uncounted_intersection_run_the_same_kernel(monkeypatch):
    # no member of one operand lies in the other downset, and the 100 meets
    # (i, 9-i, j, 9-j) are distinct and pairwise incomparable
    a = Antichain([(i, 9 - i, 9, 9) for i in range(10)])
    b = Antichain([(9, 9, j, 9 - j) for j in range(10)])
    calls = []
    kernel = core._max_of_bitset

    def spy(uniq, stats=None):
        calls.append(len(uniq))
        return kernel(uniq, stats)

    monkeypatch.setattr(core, "_max_of_bitset", spy)
    s = Stats()
    counted = intersect_list(a, b, s)
    assert calls == [100]
    uncounted = intersect_list(a, b)
    assert calls == [100, 100]
    assert uncounted == counted
    assert len(uncounted) == 100
    assert s.comparisons > 0
