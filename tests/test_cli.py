import subprocess
import sys

import pytest

from downset import (Antichain, format_vector_set, intersect_list, load_vector_set, parse_vector_set,
                     union_list)
from downset import core
from downset.cli import main
from downset.parity import format_pgsolver, parse_pgsolver, solve
from util import self_loops

A_TEXT = "dim 2\n0 2\n2 0\n"
B_TEXT = "dim 2\n1 1\n"


@pytest.fixture
def set_files(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(A_TEXT)
    b.write_text(B_TEXT)
    return a, b


def run_main(capsys, argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_member_true_false(capsys, set_files):
    a, _ = set_files
    code, out, _ = run_main(capsys, ["member", a, "1 0"])
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_main(capsys, ["member", a, "1 1", "--backend", "kdtree"])
    assert code == 0 and out.strip() == "false"


def test_member_dimension_mismatch_exit_1(capsys, set_files):
    a, _ = set_files
    code, _, err = run_main(capsys, ["member", a, "1 2 3"])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("literal,fragment", [
    ("1_0 +3", "bad vector literal"),
    ("1 \u0663", "bad vector literal"),
    ("1 \u00b2", "bad vector literal"),
    ("1 -1", "negative"),
])
def test_member_literal_ascii_digits_only(capsys, set_files, literal, fragment):
    a, _ = set_files
    code, out, err = run_main(capsys, ["member", a, literal])
    assert code == 1 and out == ""
    assert fragment in err


@pytest.mark.parametrize("argv,option", [
    (["bench", "--op", "union", "--sizes", "1_0", "--k", "3", "--seed", "1"], "--sizes"),
    (["bench", "--op", "union", "--sizes", "4,٣", "--k", "3", "--seed", "1"], "--sizes"),
    (["bench", "--op", "union", "--sizes", "x", "--k", "3", "--seed", "1"], "--sizes"),
    (["bench", "--op", "union", "--sizes", " , ", "--k", "3", "--seed", "1"], "--sizes"),
    (["bench", "--op", "union", "--sizes", "4", "--k", "3", "--seed", "1", "--maxval", "1e3"],
     "--maxval"),
    (["gen", "--k", "+3", "--m", "4", "--maxval", "9", "--seed", "5", "-o", "g.txt"], "--k"),
    (["gen", "--k", "3", "--m", "4", "--maxval", "9", "--seed", "٣", "-o", "g.txt"], "--seed"),
    (["gen", "--k", "3", "--m", "-4", "--maxval", "9", "--seed", "5", "-o", "g.txt"], "--m"),
    (["count", "--dim", "2", "--ell", "²"], "--ell"),
    (["count", "--dim", "2", "--ell", "2", "--n", "1_0"], "--n"),
    (["width", "--dim", " 2", "--ell", "2"], "--dim"),
    (["conjecture", "--dim", "2", "--ell", "two"], "--ell"),
])
def test_integer_options_take_ascii_digits_only(capsys, tmp_path, monkeypatch, argv, option):
    # a bad integer is a usage error that names its option, and nothing runs
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument {option}:" in out.err and "Traceback" not in out.err
    assert not (tmp_path / "g.txt").exists()


def test_member_stats_flag(capsys, set_files):
    a, _ = set_files
    code, out, err = run_main(capsys, ["member", a, "1 0", "--stats"])
    assert code == 0
    assert "comparisons=" in err


def test_usage_error_exit_2(set_files):
    a, _ = set_files
    with pytest.raises(SystemExit) as exc:
        main(["member", str(a), "1 0", "--backend", "btree"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_union_round_trip(capsys, set_files, tmp_path):
    a, b = set_files
    out_path = tmp_path / "u.txt"
    code, _, _ = run_main(capsys, ["union", a, b, "-o", out_path, "--backend", "sharingtree"])
    assert code == 0
    got = load_vector_set(out_path)
    assert got == union_list(parse_vector_set(A_TEXT), parse_vector_set(B_TEXT))
    # bytes are the canonical writer output
    assert out_path.read_text() == format_vector_set(got)


def test_intersect_to_stdout_all_backends(capsys, set_files):
    a, b = set_files
    for backend in ("list", "kdtree", "sharingtree", "cst", "adaptive"):
        code, out, _ = run_main(capsys, ["intersect", a, b, "--backend", backend])
        assert code == 0
        assert parse_vector_set(out).vectors == ((0, 1), (1, 0))


def test_intersect_stats_flag_leaves_output_and_kernel_unchanged(capsys, tmp_path, monkeypatch):
    # k=6; no member of one set lies in the other downset, and the 100 meets
    # are distinct and pairwise incomparable, so they go to the bitset kernel
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(format_vector_set(Antichain([(i, 9 - i, 9, 9, 5, 5) for i in range(10)])))
    b.write_text(format_vector_set(Antichain([(9, 9, j, 9 - j, 5, 5) for j in range(10)])))
    calls = []
    kernel = core._max_of_bitset

    def spy(uniq, stats=None):
        calls.append(len(uniq))
        return kernel(uniq, stats)

    monkeypatch.setattr(core, "_max_of_bitset", spy)
    code, plain, err = run_main(capsys, ["intersect", a, b])
    assert code == 0 and err == ""
    assert calls == [100]
    code, counted, err = run_main(capsys, ["intersect", a, b, "--stats"])
    assert code == 0
    assert calls == [100, 100]
    assert counted == plain
    assert len(parse_vector_set(plain)) == 100
    comparisons = int(err.split("comparisons=")[1].split()[0])
    assert comparisons > 0


def test_setop_check_mode_agrees(capsys, set_files, tmp_path):
    a, b = set_files
    code, _, _ = run_main(capsys, ["union", a, b, "-o", tmp_path / "u.txt", "--check"])
    assert code == 0


def test_setop_empty_operand_and_self_union(capsys, set_files, tmp_path):
    a, _ = set_files
    empty = tmp_path / "e.txt"
    empty.write_text("dim 2\n")
    code, out, _ = run_main(capsys, ["union", a, empty])
    assert code == 0 and parse_vector_set(out) == parse_vector_set(A_TEXT)
    code, out, _ = run_main(capsys, ["union", a, a])
    assert code == 0 and parse_vector_set(out) == parse_vector_set(A_TEXT)


def test_parse_error_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 2\n1 2\n3\n")
    code, _, err = run_main(capsys, ["member", bad, "0 0"])
    assert code == 1
    assert "line 3" in err


def test_count_width_conjecture(capsys):
    code, out, _ = run_main(capsys, ["count", "--dim", "2", "--ell", "3"])
    assert code == 0 and out.strip() == "20"
    code, out, _ = run_main(capsys, ["count", "--dim", "3", "--ell", "2"])
    assert code == 0 and out.strip() == "20"
    code, out, _ = run_main(capsys, ["count", "--dim", "2", "--ell", "2", "--n", "1"])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_main(capsys, ["width", "--dim", "2", "--ell", "4"])
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_main(capsys, ["conjecture", "--dim", "3", "--ell", "2"])
    assert code == 0 and "equal=true" in out


def test_width_and_conjecture_answer_large_grids_quickly():
    # one process per command with a 10 s timeout: width is a closed form, and
    # a search over the antichains of these grids would not finish in time
    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "downset.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=10)
        return proc.returncode, proc.stdout, proc.stderr

    for d, ell, expected in [(3, 5, 19), (2, 40, 40), (8, 2, 70), (20, 2, 184756)]:
        assert cli("width", "--dim", d, "--ell", ell) == (0, f"{expected}\n", "")
    code, out, _ = cli("conjecture", "--dim", 3, "--ell", 5)
    assert code == 0
    lines = out.splitlines()
    assert "width=19" in lines and "equal=true" in lines
    assert "max_layer_size=19 at sums [6]" in lines
    code, out, err = cli("width", "--dim", 21, "--ell", 2)
    assert (code, out) == (1, "")
    assert err == "error: grid [2]^21 has 2097152 points, limit is 1048576\n"


def test_count_answers_large_grids_quickly_or_refuses():
    # one process per command with a 10 s timeout: d = 3 is MacMahon's box
    # formula and d = 1 is ell + 1; an enumerated count past the antichain
    # limit is an error message, not a traceback or a search that never ends
    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "downset.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=10)
        return proc.returncode, proc.stdout, proc.stderr

    assert cli("count", "--dim", 3, "--ell", 5) == (0, "267227532\n", "")
    assert cli("count", "--dim", 3, "--ell", 3) == (0, "980\n", "")
    assert cli("count", "--dim", 1, "--ell", 1000000) == (0, "1000001\n", "")
    for argv in (["--dim", 3, "--ell", 5, "--n", 2], ["--dim", 4, "--ell", 3]):
        code, out, err = cli("count", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: grid [") and err.endswith(
            " has more than 262144 antichains, limit is 262144\n")


def test_conjecture_prints_a_run_of_tied_sums_as_a_range(capsys):
    # for d=1 every layer has one point, so every sum ties for the maximum;
    # a run of more than two consecutive sums prints as lo..hi
    code, out, _ = run_main(capsys, ["conjecture", "--dim", "1", "--ell", "1048576"])
    assert code == 0 and len(out) < 200
    assert "max_layer_size=1 at sums [0..1048575]" in out.splitlines()
    for ell, sums in [(2, "[0, 1]"), (3, "[0..2]")]:
        code, out, _ = run_main(capsys, ["conjecture", "--dim", "1", "--ell", ell])
        assert code == 0 and f"max_layer_size=1 at sums {sums}" in out.splitlines()


def test_gen_deterministic_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    for p in (p1, p2):
        code, _, _ = run_main(capsys, ["gen", "--k", "3", "--m", "4", "--maxval", "9",
                                       "--seed", "5", "-o", p])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    # the generator's output is pinned, not only repeatable
    assert p1.read_bytes() == b"dim 3\n1 9 3\n3 6 8\n8 0 7\n9 4 5\n"
    ac = load_vector_set(p1)
    assert ac.dim == 3


def test_solve_parity_output_and_check(capsys, tmp_path):
    pg = tmp_path / "g.pg"
    pg.write_text("parity 1;\n0 1 0 0,1;\n1 2 1 1;\n")
    strat = tmp_path / "s.txt"
    code, out, _ = run_main(capsys, ["solve-parity", pg, "--check", "--strategy", strat])
    assert code == 0
    assert out.splitlines() == ["0 even 1", "1 even"]
    assert strat.read_text() == "0 1\n"


def test_solve_parity_stats_flag_leaves_output_unchanged(capsys, tmp_path):
    # a game whose solve still sends a union or intersection to the backend:
    # neither operand is empty or all-caps
    text = "parity 3;\n0 1 0 0,2;\n1 3 1 1,3;\n2 2 0 0,1;\n3 1 0 0,1;\n"
    pg = tmp_path / "g.pg"
    pg.write_text(text)
    code, plain, plain_err = run_main(capsys, ["solve-parity", pg])
    assert code == 0 and plain_err == ""
    code, out, err = run_main(capsys, ["solve-parity", pg, "--stats"])
    assert code == 0
    assert out == plain
    r = solve(parse_pgsolver(text))
    assert r.images > 0 and r.setops > 0
    assert err == (f"refinements={r.iterations} images={r.images} setops={r.setops}"
                   f" peak_antichain={r.peak_antichain}\n")


def test_solve_parity_check_on_a_thousand_priorities_without_traceback(tmp_path):
    # one process, as a user runs it: the oracle behind --check nests once
    # per priority, and 1,000 levels would exceed the interpreter's stack
    # if it recursed
    pg = tmp_path / "g.pg"
    pg.write_text(format_pgsolver(self_loops(1000)))
    proc = subprocess.run([sys.executable, "-m", "downset.cli", "solve-parity", str(pg), "--check"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [f"{v} even {v}" if v % 2 == 0 else f"{v} odd" for v in range(1000)]


def test_solve_parity_backends_agree(capsys, tmp_path):
    pg = tmp_path / "g.pg"
    pg.write_text("0 3 1 0,1; 1 2 0 0,1; 2 1 1 1;")
    outputs = set()
    for backend in ("list", "kdtree", "sharingtree", "cst", "adaptive"):
        code, out, _ = run_main(capsys, ["solve-parity", pg, "--backend", backend, "--check"])
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_bench_csv_deterministic(capsys, tmp_path):
    c1, c2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    args = ["bench", "--op", "union", "--sizes", "4,9", "--k", "6", "--seed", "2",
            "--metric", "comparisons", "--backends", "list,kdtree"]
    for c in (c1, c2):
        code, _, _ = run_main(capsys, args + ["--csv", c])
        assert code == 0
    assert c1.read_bytes() == c2.read_bytes()
    text = c1.read_text()
    assert text.splitlines()[0] == "t,backend,op,metric,value,out_size,seed"


def test_dump_dot(capsys, set_files, tmp_path):
    a, _ = set_files
    dot = tmp_path / "t.dot"
    code, _, _ = run_main(capsys, ["member", a, "1 0", "--backend", "sharingtree",
                                   "--dump-dot", dot])
    assert code == 0
    assert dot.read_text().startswith("digraph")
    code, _, _ = run_main(capsys, ["member", a, "1 0", "--backend", "cst",
                                   "--dump-dot", tmp_path / "c.dot"])
    assert code == 0
    code, _, err = run_main(capsys, ["member", a, "1 0", "--backend", "list",
                                     "--dump-dot", tmp_path / "x.dot"])
    assert code == 1
    assert "dump-dot" in err


def test_member_dump_dot_builds_the_dag_once(capsys, set_files, tmp_path, monkeypatch):
    # the query searches the DAG it dumps: one build, with the verdict, the
    # counts and the DOT text of a query and a dump run apart
    from downset import cst, sharingtree

    builds = []
    build = sharingtree._build

    def counting_build(ac):
        builds.append(ac)
        return build(ac)

    monkeypatch.setattr(sharingtree, "_build", counting_build)
    monkeypatch.setattr(cst, "_build", counting_build)
    a, _ = set_files
    for backend in ("sharingtree", "cst"):
        for query in ("1 0", "1 1"):
            dot = tmp_path / f"{backend}.dot"
            plain = run_main(capsys, ["member", a, query, "--backend", backend, "--stats"])
            del builds[:]
            dumped = run_main(capsys, ["member", a, query, "--backend", backend, "--stats",
                                       "--dump-dot", dot])
            assert len(builds) == 1
            assert dumped == plain
            assert dot.read_text() == sharingtree.to_dot(build(load_vector_set(a)))


def test_high_dimension_sharing_tree_commands_without_traceback(tmp_path):
    # one process per command, as a user runs them: at k=1000 a search that
    # recursed once per coordinate would die with a RecursionError traceback
    k = 1000
    v = tuple(j % 5 for j in range(k))
    w = v[:-2] + (9, 0)  # shares all but the last two components with v
    a, b = Antichain([v]), Antichain([w])
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(format_vector_set(a))
    pb.write_text(format_vector_set(b))

    def cli(*argv):
        proc = subprocess.run([sys.executable, "-m", "downset.cli", *map(str, argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        return proc.stdout

    query = " ".join(map(str, v[:-1] + (0,)))
    for backend in ("sharingtree", "cst"):
        dot = tmp_path / f"{backend}.dot"
        assert cli("member", pa, query, "--backend", backend, "--dump-dot", dot).strip() == "true"
        assert dot.read_text().count("label=") == k + 1
    assert cli("union", pa, pb, "--backend", "sharingtree") == format_vector_set(union_list(a, b))
    assert cli("intersect", pa, pb, "--backend", "sharingtree") == \
        format_vector_set(intersect_list(a, b))

    # sets that differ only in their last two components: each search of a
    # union or intersection walks 998 shared layers first, and --check runs
    # every backend
    c, d = Antichain([(1,) * (k - 2) + (2, 0)]), Antichain([(1,) * (k - 2) + (0, 2)])
    pc, pd = tmp_path / "c.txt", tmp_path / "d.txt"
    pc.write_text(format_vector_set(c))
    pd.write_text(format_vector_set(d))
    union_text = format_vector_set(union_list(c, d))
    assert cli("union", pc, pd, "--backend", "cst") == union_text
    assert cli("intersect", pc, pd, "--backend", "cst") == format_vector_set(intersect_list(c, d))
    assert cli("union", pc, pd, "--backend", "sharingtree", "--check") == union_text


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "downset.cli", "count", "--dim", "2",
                           "--ell", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"
