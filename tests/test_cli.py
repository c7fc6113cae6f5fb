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


def test_gen_deterministic_bytes(capsys, tmp_path):
    p1, p2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    for p in (p1, p2):
        code, _, _ = run_main(capsys, ["gen", "--k", "3", "--m", "4", "--maxval", "9",
                                       "--seed", "5", "-o", p])
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
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
    text = "parity 3;\n0 3 1 0,1;\n1 2 0 0,2;\n2 1 1 1,3;\n3 0 0 2;\n"
    pg = tmp_path / "g.pg"
    pg.write_text(text)
    code, plain, plain_err = run_main(capsys, ["solve-parity", pg])
    assert code == 0 and plain_err == ""
    code, out, err = run_main(capsys, ["solve-parity", pg, "--stats"])
    assert code == 0
    assert out == plain
    r = solve(parse_pgsolver(text))
    assert r.images > 0 and r.setops > 0
    assert err == f"refinements={r.iterations} images={r.images} setops={r.setops}\n"


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
