import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downset import (
    Antichain,
    ComparisonOutcome,
    DimensionMismatch,
    Stats,
    VectorSetFormatError,
    compare,
    compare_counted,
    format_vector_set,
    intersect_list,
    maxac,
    meet,
    member_list,
    parse_vector_set,
    union_list,
)
from util import box_points, brute_downset, brute_member, rand_antichain

LESS = ComparisonOutcome.LESS
GREATER = ComparisonOutcome.GREATER
EQUAL = ComparisonOutcome.EQUAL
INCOMPARABLE = ComparisonOutcome.INCOMPARABLE

vectors_st = st.integers(1, 5).flatmap(
    lambda k: st.tuples(*(st.integers(0, 6) for _ in range(k))))


def small_antichains(rng, count, k_hi=5, m_hi=12, w_hi=6):
    for case in range(count):
        k = rng.randint(1, k_hi)
        yield (rand_antichain(rng, k, rng.randint(1, m_hi), rng.randint(1, w_hi)),
               rand_antichain(rng, k, rng.randint(1, m_hi), rng.randint(1, w_hi)))


def test_compare_examples():
    assert compare((1, 2), (1, 3)) is LESS
    assert compare((2, 1), (1, 2)) is INCOMPARABLE
    assert compare((0, 0), (0, 0)) is EQUAL
    assert compare((1, 3), (1, 2)) is GREATER


def test_compare_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compare((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        compare_counted((1,), (1, 2))


def test_compare_counted_outcomes_and_budget():
    s = Stats()
    assert compare_counted((3, 0, 0), (1, 5, 5), s) is INCOMPARABLE
    assert s.comparisons <= 4  # k + 1 for k = 3
    assert compare_counted((2, 2), (2, 2)) is EQUAL
    assert compare_counted((1, 1, 1), (2, 2, 2)) is LESS


@given(vectors_st, st.data())
@settings(max_examples=200, deadline=None)
def test_compare_counted_matches_compare(u, data):
    v = data.draw(st.tuples(*(st.integers(0, 6) for _ in range(len(u)))))
    s = Stats()
    assert compare_counted(u, v, s) is compare(u, v)
    assert s.comparisons <= len(u) + 1


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
            assert compare(u, v) is INCOMPARABLE
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
        assert s.comparisons <= (k + 1) * len(a)


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
    for a, b in small_antichains(rng, 60, k_hi=4, m_hi=8, w_hi=5):
        top = max(a.max_norm(), b.max_norm()) + 1
        da = brute_downset(a.vectors, top) if a.vectors else set()
        db = brute_downset(b.vectors, top) if b.vectors else set()
        u = union_list(a, b)
        i = intersect_list(a, b)
        for p in box_points(a.dim, top):
            assert member_list(u, p) == (p in da or p in db)
            assert member_list(i, p) == (p in da and p in db)


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


def test_intersection_optimization_is_transparent():
    rng = random.Random(31)
    for a, b in small_antichains(rng, 60):
        assert intersect_list(a, b, optimize=True) == intersect_list(a, b, optimize=False)


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


def test_list_setop_comparison_counts_are_pinned():
    # counts of the list backend on one seeded pair; they must not drift when
    # the shared set operations change
    rng = random.Random(2025)
    a = rand_antichain(rng, 5, 30, 9)
    b = rand_antichain(rng, 5, 30, 9)
    for op, kwargs, expected in ((union_list, {}, 5754),
                                 (intersect_list, {}, 6786),
                                 (intersect_list, {"optimize": False}, 24734)):
        s = Stats()
        op(a, b, s, **kwargs)
        assert s.comparisons == expected, (op.__name__, kwargs)


def test_vector_set_format_round_trip():
    a = Antichain([(2, 0), (0, 2)])
    text = format_vector_set(a)
    assert text == "dim 2\n0 2\n2 0\n"
    assert parse_vector_set(text) == a


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
])
def test_vector_set_parser_errors(text, fragment):
    with pytest.raises(VectorSetFormatError) as exc:
        parse_vector_set(text)
    assert fragment in str(exc.value)


def test_counters_accumulate_on_first_operand_by_default():
    a = Antichain([(2, 0), (0, 2)])
    before = a.stats.comparisons
    member_list(a, (1, 1))
    assert a.stats.comparisons > before
    s = Stats()
    member_list(a, (1, 1), s)
    assert s.comparisons > 0
