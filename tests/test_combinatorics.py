import itertools
import math
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import downset.combinatorics as combinatorics
from downset.combinatorics import (
    GridTooLarge,
    MiddleLayerReport,
    check_middle_layer_conjecture,
    count,
    count_2d,
    count_3d,
    count_antichains,
    enumerate_antichains,
    grid_points,
    layer_size,
    random_antichain,
    width,
)
from util import incomparable


def test_count_2d_examples():
    assert count_2d(2) == 6
    assert count_2d(2, 1) == 4
    assert count_2d(3) == 20
    assert count_2d(3, 4) == 0  # no antichain of [3]^2 has 4 points
    with pytest.raises(ValueError):
        count_2d(3, -1)


def test_enumeration_examples():
    assert count_antichains(2, 2) == 6
    assert count_antichains(3, 2) == 20
    for ell in (1, 3, 5):
        assert count_antichains(1, ell) == ell + 1


def test_enumeration_is_exact_and_duplicate_free():
    seen = set()
    for a in enumerate_antichains(2, 2):
        assert a not in seen
        seen.add(a)
        for u, v in itertools.combinations(a, 2):
            assert incomparable(u, v)
    assert len(seen) == 6
    assert () in seen
    assert ((0, 1), (1, 0)) in seen


def test_counts_match_closed_form():
    for ell in range(1, 6):
        assert count_antichains(2, ell) == comb(2 * ell, ell)
        for n in range(ell + 1):
            assert count_antichains(2, ell, n) == count_2d(ell, n)


@given(st.integers(1, 30))
@settings(max_examples=30, deadline=None)
def test_binomial_square_identity(ell):
    assert sum(comb(ell, n) ** 2 for n in range(ell + 1)) == comb(2 * ell, ell)


def test_width_examples():
    for ell in range(1, 6):
        assert width(2, ell) == ell
    assert width(1, 7) == 1
    assert width(3, 2) == 3


def test_width_lower_bounds_log_count():
    # every subset of a maximum antichain is an antichain
    for d, ell in [(1, 4), (2, 2), (2, 3), (3, 2), (2, 4)]:
        assert 2 ** width(d, ell) <= count_antichains(d, ell)


def test_layer_size_examples():
    assert layer_size(2, 2, 1) == 2
    assert layer_size(3, 2, 1) == 3
    assert layer_size(2, 3, 2) == 3
    assert layer_size(2, 3, 99) == 0
    assert layer_size(2, 3, -1) == 0


def test_layer_size_matches_enumeration():
    for d, ell in [(1, 5), (2, 4), (3, 3)]:
        pts = grid_points(d, ell)
        for s in range((ell - 1) * d + 1):
            assert layer_size(d, ell, s) == sum(1 for p in pts if sum(p) == s)


def test_layers_are_antichains():
    for d, ell in [(2, 4), (3, 3)]:
        for s in range((ell - 1) * d + 1):
            layer = [p for p in grid_points(d, ell) if sum(p) == s]
            for u, v in itertools.combinations(layer, 2):
                assert incomparable(u, v)


def test_middle_layer_reports():
    r = check_middle_layer_conjecture(2, 3)
    assert (r.width, r.max_layer_size, r.argmax_sums, r.equal) == (3, 3, range(2, 3), True)
    r = check_middle_layer_conjecture(3, 2)
    assert (r.width, r.max_layer_size, r.equal) == (3, 3, True)
    assert r.argmax_sums == range(1, 3)
    r = check_middle_layer_conjecture(1, 5)
    assert (r.width, r.max_layer_size, r.equal) == (1, 1, True)


def test_middle_layer_report_matches_a_full_scan():
    for d in range(1, 6):
        for ell in range(1, 7):
            top = (ell - 1) * d
            sizes = [layer_size(d, ell, s) for s in range(top + 1)]
            best = max(sizes)
            argmax = tuple(s for s, n in enumerate(sizes) if n == best)
            r = check_middle_layer_conjecture(d, ell)
            # the scan's argmax is one run of sums, which the report keeps as a range
            assert tuple(r.argmax_sums) == argmax
            assert r == MiddleLayerReport(
                d=d, ell=ell, width=width(d, ell), max_layer_size=best,
                argmax_sums=range(argmax[0], argmax[-1] + 1),
                equal=width(d, ell) == best, stated_sum=ell * d // 2, midpoint_sum=top // 2)


def test_middle_layer_report_bisects(monkeypatch):
    # d=1 gives 4,096 layers of one vector each: every sum is an argmax,
    # found with a logarithmic number of layer sizes
    calls = []

    def counted(d, ell, s):
        calls.append(s)
        return layer_size(d, ell, s)

    monkeypatch.setattr(combinatorics, "layer_size", counted)
    r = check_middle_layer_conjecture(1, 4096)
    assert r.argmax_sums == range(4096) and r.max_layer_size == 1
    assert len(calls) <= 2 * math.ceil(math.log2(4095)) + 3


def test_grid_guard():
    with pytest.raises(GridTooLarge):
        count_antichains(32, 4)


def test_count_3d_is_macmahons_box_formula():
    # downsets of [ell]^3 are the plane partitions in an ell^3 box
    for ell in (1, 2, 3):
        assert count_3d(ell) == count_antichains(3, ell)
    assert [count_3d(ell) for ell in range(1, 6)] == [2, 20, 980, 232848, 267227532]
    with pytest.raises(GridTooLarge):
        count_3d(102)


def test_count_takes_the_closed_forms_and_enumerates_the_rest():
    for d, ell in [(1, 1), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 2)]:
        for n in [None] + list(range(width(d, ell) + 2)):
            assert count(d, ell, n) == count_antichains(d, ell, n), (d, ell, n)
    # one vector per point in one dimension: no enumeration of ell^2 pairs
    assert count(1, 10 ** 6) == 10 ** 6 + 1 and count(1, 10 ** 6, 1) == 10 ** 6
    assert count(3, 5) == 267227532


def test_enumerated_counts_stop_past_the_antichain_limit(monkeypatch):
    # [5]^3 has a 19-vector antichain, so more than 2^19 antichains: refused
    # before enumerating, whatever the size asked for
    for n in (None, 2):
        with pytest.raises(GridTooLarge, match="more than 262144 antichains"):
            count_antichains(3, 5, n)
    with pytest.raises(GridTooLarge):
        count_antichains(4, 3)
    # [2]^3 has 20 antichains: at the limit they are counted, one below it
    # the closed form refuses them
    monkeypatch.setattr(combinatorics, "ANTICHAIN_LIMIT", 20)
    assert count_antichains(3, 2) == 20 and count_antichains(3, 2, 2) == 9
    monkeypatch.setattr(combinatorics, "ANTICHAIN_LIMIT", 19)
    with pytest.raises(GridTooLarge, match="more than 19 antichains"):
        count_antichains(3, 2, 2)
    # [2]^4 has 168 antichains and its layers' subsets make 96: at the
    # limit they are counted, one below it the enumeration stops
    monkeypatch.setattr(combinatorics, "ANTICHAIN_LIMIT", 168)
    assert count_antichains(4, 2) == 168
    monkeypatch.setattr(combinatorics, "ANTICHAIN_LIMIT", 167)
    with pytest.raises(GridTooLarge, match="more than 167 antichains"):
        count_antichains(4, 2, 2)


_REFUSE_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from downset.combinatorics import GridTooLarge, count_antichains
for d, ell in ((1, 2 ** 18), (2, 12), (2, 18)):
    try:
        count_antichains(d, ell)
    except GridTooLarge:
        continue
    raise SystemExit(f"[{ell}]^{d} was counted")
"""


def test_enumerated_counts_refuse_long_chains_and_wide_squares_at_once():
    # [2^18]^1 has 2^18 + 1 antichains and [12]^2 and [18]^2 more than
    # 2^18, though a largest antichain of any has at most 18 points;
    # enumerating them takes from seconds to minutes, and the closed forms
    # refuse all three before any enumeration
    package_root = str(Path(combinatorics.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", _REFUSE_SCRIPT, package_root],
                   capture_output=True, text=True, timeout=5, check=True)


def test_random_antichain_determinism_and_invariants():
    g1 = random_antichain(2, 3, 10, seed=7)
    g2 = random_antichain(2, 3, 10, seed=7)
    assert g1.antichain == g2.antichain
    assert g1.draws_used == g2.draws_used
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(1, 5)
        g = random_antichain(k, rng.randint(1, 12), rng.randint(1, 12), seed=rng.random())
        ac = g.antichain
        for u, v in itertools.combinations(ac.vectors, 2):
            assert incomparable(u, v)


def test_random_antichain_impossible_target_warns():
    g = random_antichain(1, 2, 5, seed=3)
    assert len(g.antichain) == 1
    assert g.target_reached is False
