"""Command-line frontend.

Subcommands: member, union, intersect, solve-parity, count, width,
conjecture, gen, bench.  Exit codes: 0 success, 1 domain errors (bad input
files, dimension mismatches, infeasible requests, check failures), 2 usage
errors.  All randomness takes an explicit seed.
"""

from __future__ import annotations

import argparse
import sys
from types import SimpleNamespace
from typing import Optional

from . import bench as bench_mod
from . import combinatorics as comb
from . import parity as parity_mod
from .adaptive import BACKEND_NAMES, get_backend
from .core import (
    Antichain,
    Stats,
    format_vector_set,
    load_vector_set,
    member,
    save_vector_set,
)
from .sharingtree import STree, build_sharingtree, member_st, to_dot


class CliError(Exception):
    """Domain-level failure; message printed to stderr, exit code 1."""


def _parse_vector_literal(text: str, dim: int):
    parts = text.split()
    if len(parts) != dim:
        raise CliError(f"vector literal has {len(parts)} components, set has dimension {dim}")
    digits = "".join(parts)
    if not (digits.isascii() and digits.isdigit()):
        if any(p[0] == "-" and p[1:].isdigit() for p in parts):
            raise CliError(f"vector literal has negative components: {text!r}")
        raise CliError(f"bad vector literal {text!r}")
    return tuple(map(int, parts))


def _natural(text: str) -> int:
    """An integer option's value: ASCII decimal digits, as every parser of
    the package reads numbers (``int`` alone takes ``+3``, ``1_0`` and ``٣``)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII decimal digits, got {text!r}")
    return int(text)


def _sizes(text: str) -> list:
    """``--sizes``: comma-separated naturals, blank entries skipped."""
    sizes = [_natural(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("no sizes given")
    return sizes


def _dot_tree(args, ac: Antichain) -> Optional[STree]:
    """The DAG of ``ac`` that ``--dump-dot`` writes, or None without it."""
    if args.dump_dot is None:
        return None
    if args.backend not in ("sharingtree", "cst"):
        raise CliError("--dump-dot requires the sharingtree or cst backend")
    return build_sharingtree(ac)  # cst builds the same DAG


def _write_dot(args, tree: Optional[STree]) -> None:
    if tree is not None:
        with open(args.dump_dot, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(to_dot(tree))


def _print_stats(args, stats: Stats) -> None:
    if args.stats:
        print(f"comparisons={stats.comparisons} node_visits={stats.node_visits}", file=sys.stderr)


def cmd_member(args) -> int:
    ac = load_vector_set(args.set)
    u = _parse_vector_literal(args.vector, ac.dim)
    stats = Stats()
    tree = _dot_tree(args, ac)
    if tree is None:
        verdict = get_backend(args.backend).member(ac, u, stats)
    else:
        # query the DAG to be dumped, so that it is built once; cst searches
        # it as the sharing tree does
        verdict = member(SimpleNamespace(build=lambda _: tree, member=member_st), ac, u, stats)
    _write_dot(args, tree)
    print("true" if verdict else "false")
    _print_stats(args, stats)
    return 0


def cmd_setop(args) -> int:
    a = load_vector_set(args.a)
    b = load_vector_set(args.b)
    stats = Stats()
    op = args.command
    out = getattr(get_backend(args.backend), op)(a, b, stats)
    if args.check:
        for name in BACKEND_NAMES:
            if name != args.backend and getattr(get_backend(name), op)(a, b) != out:
                raise CliError(f"backend {name} disagrees with {args.backend} on {op}")
    _write_dot(args, _dot_tree(args, out))
    if args.output:
        save_vector_set(out, args.output)
    else:
        sys.stdout.write(format_vector_set(out))
    if args.stats:
        print(f"|a|={len(a)} |b|={len(b)} |out|={len(out)}", file=sys.stderr)
        _print_stats(args, stats)
    return 0


def cmd_solve_parity(args) -> int:
    with open(args.game, "r", encoding="utf-8") as fh:
        game = parity_mod.parse_pgsolver(fh.read())
    result = parity_mod.solve(game, backend=args.backend)
    strategy = parity_mod.synthesize_even_strategy(game, result)
    for v in range(len(game)):
        winner = "even" if result.winners[v] == parity_mod.EVEN else "odd"
        line = f"{game.ids[v]} {winner}"
        if v in strategy:
            line += f" {game.ids[strategy[v]]}"
        print(line)
    if args.strategy:
        with open(args.strategy, "w", encoding="utf-8", newline="\n") as fh:
            for u in sorted(strategy):
                fh.write(f"{game.ids[u]} {game.ids[strategy[u]]}\n")
    if args.stats:
        print(f"refinements={result.iterations} images={result.images} setops={result.setops}"
              f" peak_antichain={result.peak_antichain}", file=sys.stderr)
    if args.check:
        oracle = parity_mod.zielonka(game)
        if oracle != result.winners:
            raise CliError("winner map disagrees with the attractor-based oracle")
        if not parity_mod.check_even_strategy(game, result.winners, strategy):
            raise CliError("synthesized strategy fails the cycle parity check")
    return 0


def cmd_count(args) -> int:
    print(comb.count(args.dim, args.ell, args.n))
    return 0


def cmd_width(args) -> int:
    print(comb.width(args.dim, args.ell))
    return 0


def _sums_text(sums: range) -> str:
    """The argmax sums, one run of consecutive sums, as a list written
    ``lo..hi`` when the run is longer than two: a grid whose layers all tie
    prints one short line."""
    if len(sums) > 2:
        return f"[{sums[0]}..{sums[-1]}]"
    return "[" + ", ".join(map(str, sums)) + "]"


def cmd_conjecture(args) -> int:
    report = comb.check_middle_layer_conjecture(args.dim, args.ell)
    print(f"d={report.d} ell={report.ell}")
    print(f"width={report.width}")
    print(f"max_layer_size={report.max_layer_size} at sums {_sums_text(report.argmax_sums)}")
    print(f"stated_sum={report.stated_sum} midpoint_sum={report.midpoint_sum}")
    print(f"equal={'true' if report.equal else 'false'}")
    return 0


def cmd_gen(args) -> int:
    gen = comb.random_antichain(args.k, args.m, args.maxval, args.seed)
    save_vector_set(gen.antichain, args.output)
    if not gen.target_reached:
        print(f"warning: reached size {len(gen.antichain)} of requested {args.m}",
              file=sys.stderr)
    return 0


def cmd_bench(args) -> int:
    spec = bench_mod.BenchSpec(
        op=args.op,
        sizes=args.sizes,
        k=args.k,
        maxval=args.maxval,
        seed=args.seed,
        backends=tuple(b.strip() for b in args.backends.split(",") if b.strip()),
        metric=args.metric,
    )
    rows = bench_mod.run_bench(spec)
    if args.csv:
        bench_mod.emit_csv(rows, args.csv)
    else:
        sys.stdout.write(bench_mod.format_csv(rows))
    return 0


def _add_backend_flag(parser) -> None:
    parser.add_argument("--backend", choices=BACKEND_NAMES, default="list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="downset",
                                     description="Antichain-backed downset toolbox.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="membership of a vector in a downset file")
    p.add_argument("set", help="vector-set file")
    p.add_argument("vector", help="space-separated components, e.g. '1 0 2'")
    _add_backend_flag(p)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--dump-dot", metavar="PATH")
    p.set_defaults(run=cmd_member)

    for op in ("union", "intersect"):
        p = sub.add_parser(op, help=f"{op} of two downset files")
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("-o", "--output", metavar="PATH")
        _add_backend_flag(p)
        p.add_argument("--stats", action="store_true")
        p.add_argument("--check", action="store_true",
                       help="verify all backends agree")
        p.add_argument("--dump-dot", metavar="PATH")
        p.set_defaults(run=cmd_setop)

    p = sub.add_parser("solve-parity", help="solve a pgsolver-format parity game")
    p.add_argument("game")
    _add_backend_flag(p)
    p.add_argument("--strategy", metavar="PATH", help="write the even strategy here")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--check", action="store_true",
                   help="cross-check winners against the attractor oracle")
    p.set_defaults(run=cmd_solve_parity)

    p = sub.add_parser("count", help="count antichains of the grid [ell]^d")
    p.add_argument("--dim", type=_natural, required=True)
    p.add_argument("--ell", type=_natural, required=True)
    p.add_argument("--n", type=_natural, default=None, help="restrict to antichains of this size")
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("width", help="maximum antichain size of the grid")
    p.add_argument("--dim", type=_natural, required=True)
    p.add_argument("--ell", type=_natural, required=True)
    p.set_defaults(run=cmd_width)

    p = sub.add_parser("conjecture", help="width versus largest constant-sum layer")
    p.add_argument("--dim", type=_natural, required=True)
    p.add_argument("--ell", type=_natural, required=True)
    p.set_defaults(run=cmd_conjecture)

    p = sub.add_parser("gen", help="generate a random antichain file")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--m", type=_natural, required=True)
    p.add_argument("--maxval", type=_natural, required=True)
    p.add_argument("--seed", type=_natural, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("bench", help="deterministic benchmark harness")
    p.add_argument("--op", choices=bench_mod.OPS, required=True)
    p.add_argument("--sizes", type=_sizes, required=True, help="comma-separated t values")
    p.add_argument("--k", type=_natural, required=True)
    p.add_argument("--maxval", type=_natural, default=None)
    p.add_argument("--seed", type=_natural, required=True)
    p.add_argument("--metric", choices=bench_mod.METRICS, default="comparisons")
    p.add_argument("--backends", default="list,kdtree")
    p.add_argument("--csv", metavar="PATH")
    p.set_defaults(run=cmd_bench)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    # the package's input errors (DimensionMismatch, VectorSetFormatError,
    # ParityParseError, GridTooLarge, InfeasibleBench) are ValueErrors
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
