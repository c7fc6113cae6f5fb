import pytest

from downset.bench import (
    BenchSpec,
    InfeasibleBench,
    Row,
    emit_csv,
    format_csv,
    parse_csv,
    run_bench,
    run_membership_bench,
    run_setop_bench,
)


def small_spec(**kw):
    base = dict(op="membership", sizes=(5, 15), k=6, maxval=None, seed=3,
                backends=("list", "kdtree", "sharingtree"), metric="comparisons")
    base.update(kw)
    return BenchSpec(**base)


def test_membership_rows_deterministic():
    r1 = run_membership_bench(small_spec())
    r2 = run_membership_bench(small_spec())
    assert r1 == r2
    assert format_csv(r1) == format_csv(r2)


def test_list_counts_are_pinned():
    # comparisons of the list backend on the seeded rows the k-d pin uses
    # (k=6, t=10 and 40): each dominance test counts as the one-way scan
    expected = {"membership": (339, 4038), "union": (197, 2707),
                "intersection": (822, 5827)}
    for op, values in expected.items():
        rows = run_bench(BenchSpec(op=op, sizes=(10, 40), k=6, seed=3,
                                   backends=("list",), metric="comparisons"))
        assert tuple(r.value for r in rows) == values, op


def test_membership_labels_verified_by_harness():
    # the run itself asserts every label on every backend
    rows = run_membership_bench(small_spec(backends=("list", "kdtree", "sharingtree", "cst")))
    assert {r.backend for r in rows} == {"list", "kdtree", "sharingtree", "cst"}
    assert all(r.value > 0 for r in rows)


def test_setop_rows_match_oracle_and_size_bound():
    for op in ("union", "intersection"):
        rows = run_setop_bench(small_spec(op=op, sizes=(4, 10)))
        for row in rows:
            if row.op == "union":
                assert row.out_size <= 2 * row.t
        by_t = {}
        for row in rows:
            by_t.setdefault(row.t, set()).add(row.out_size)
        for t, sizes in by_t.items():
            assert len(sizes) == 1  # identical outputs across backends


def test_bench_dispatch():
    rows = run_bench(small_spec(op="union", sizes=(4,)))
    assert all(r.op == "union" for r in rows)


def test_csv_round_trip_and_shape(tmp_path):
    rows = run_bench(small_spec(sizes=(5,)))
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    text = path.read_text()
    assert text.splitlines()[0] == "t,backend,op,metric,value,out_size,seed"
    assert parse_csv(text) == sorted(rows, key=lambda r: (r.t, r.backend, r.op))


def test_csv_empty_rows_is_header_only():
    assert format_csv([]) == "t,backend,op,metric,value,out_size,seed\n"


def test_wall_time_flagged_nondeterministic():
    rows = [Row(1, "list", "union", "wall_time", 0.25, 1, 0)]
    text = format_csv(rows)
    assert text.splitlines()[0].startswith("# metric wall_time is non-deterministic")


def test_infeasible_size_raises():
    with pytest.raises(InfeasibleBench):
        run_membership_bench(small_spec(k=1, sizes=(3,)))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        BenchSpec(op="subtract", sizes=(1,), k=2)
    with pytest.raises(ValueError):
        BenchSpec(op="union", sizes=(1,), k=2, metric="joules")


def test_backends_checked_before_any_instance():
    # k=2 cannot hold an antichain of size 4 in [0..8]^2, so an unchecked
    # name would surface as the generator's InfeasibleBench instead
    with pytest.raises(ValueError, match="at least one backend"):
        BenchSpec(op="union", sizes=(4,), k=2, backends=())
    with pytest.raises(ValueError, match="unknown backend 'nope'") as info:
        BenchSpec(op="union", sizes=(4,), k=2, backends=("list", "nope"))
    assert not isinstance(info.value, InfeasibleBench)
