"""Spans around the public entry points of the `downset` package.

`Tracer.install()` replaces each entry point listed in ENTRY_POINTS, in every
loaded `downset` module that binds it (so `from .core import maxac` copies are
caught), and wraps every function of every `adaptive.BACKENDS` entry, since
`BackendOps` holds direct function references.  `uninstall()` puts the
originals back.  An entry point that the package no longer has is skipped.

A span records its name, start, end, parent span and op id, plus the
counters the call added to the `Stats` it was given (a fresh `Stats` is
passed where the caller gave none) and two numbers read from the arguments
or the result (vectors fed to a build, nodes and edges built, the size of
the antichain returned).  A span's self time and self counts are its own
minus those of its child spans.  Work inside private helpers is therefore
the self time of the public caller.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array


def _len(x):
    return len(x) if hasattr(x, "__len__") else 0


def _result_size(args, result):
    """The size of the antichain returned, for the parity peak."""
    return 0, _len(result)


# module, attribute, extractor (args, result) -> (a, b); the span is named module.attribute
ENTRY_POINTS = (
    ("core", "parse_vector_set", None),
    ("core", "format_vector_set", None),
    ("core", "maxac", None),
    ("core", "member_list", None),
    ("core", "union_list", None),
    ("core", "intersect_list", None),
    ("kdtree", "build_kdtree", lambda args, r: (_len(args[0]), 0)),
    ("kdtree", "member_kdtree", None),
    ("kdtree", "strict_member_kdtree", None),
    ("kdtree", "union_kdtree", None),
    ("kdtree", "intersect_kdtree", None),
    ("sharingtree", "build_sharingtree", lambda args, r: (r.node_count, r.edge_count)),
    ("sharingtree", "member_st", lambda args, r: (args[0].node_count, 0)),
    ("sharingtree", "strict_member_st", lambda args, r: (args[0].node_count, 0)),
    ("sharingtree", "union_st", None),
    ("sharingtree", "intersect_st", None),
    ("cst", "build_cst", lambda args, r: (r.node_count, _len(args[0]))),
    ("cst", "member_cst", None),
    ("cst", "union_cst", None),
    ("cst", "intersect_cst", None),
    ("cst", "maximal_elements", None),
    ("adaptive", "choose_backend", lambda args, r: (int(r.kind == "kdtree"), 0)),
    ("parity", "parse_pgsolver", None),
    ("parity", "solve", lambda args, r: (r.iterations, 0)),
    ("parity", "down_bwd", _result_size),
    ("parity", "synthesize_even_strategy", None),
)
COLUMNS = ("name", "parent", "op", "start_ns", "end_ns", "comparisons", "node_visits", "a", "b", "sid")


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.cols = {c: array("q") for c in COLUMNS}
        self.stack = []
        self.op = -1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, fn, name, stats_at, info):
        name_id = self._name_id(name)
        Stats = self.package.Stats
        cols, stack, clock = self.cols, self.stack, time.perf_counter_ns
        c_name, c_parent, c_op, c_start, c_end = (cols[c] for c in COLUMNS[:5])
        c_comp, c_visit, c_a, c_b, c_sid = (cols[c] for c in COLUMNS[5:])

        def traced(*args, **kwargs):
            stats = None
            if stats_at is not None:
                if len(args) > stats_at:
                    stats = args[stats_at]
                    if stats is None:
                        stats = Stats()
                        args = args[:stats_at] + (stats,) + args[stats_at + 1:]
                else:
                    stats = kwargs.get("stats")
                    if stats is None:
                        stats = kwargs["stats"] = Stats()
            i = len(c_name)
            c_name.append(name_id)
            c_parent.append(stack[-1] if stack else -1)
            c_op.append(self.op)
            c_sid.append(id(stats) if stats is not None else 0)
            for c in (c_end, c_comp, c_visit, c_a, c_b):
                c.append(0)
            comps0 = stats.comparisons if stats is not None else 0
            visits0 = stats.node_visits if stats is not None else 0
            stack.append(i)
            result = None
            c_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c_end[i] = clock()
                stack.pop()
                if stats is not None:
                    c_comp[i] = stats.comparisons - comps0
                    c_visit[i] = stats.node_visits - visits0
                if info is not None and result is not None:
                    try:
                        c_a[i], c_b[i] = info(args, result)
                    except (AttributeError, IndexError, TypeError):
                        pass  # the package changed shape: record no sizes

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        wrapped = {}
        for mod, attr, info in ENTRY_POINTS:
            home = sys.modules.get(f"{pkg}.{mod}")
            fn = getattr(home, attr, None)
            if fn is None or not callable(fn):
                continue
            wrapped[fn] = self._wrap(fn, f"{mod}.{attr}", _stats_index(fn), info)
        for m in modules:
            for key, value in list(vars(m).items()):
                if callable(value) and not isinstance(value, type) and value in wrapped:
                    self._set(m, key, wrapped[value])
        antichain = getattr(self.package, "Antichain", None)
        if antichain is not None:
            self._set(antichain, "__init__", self._wrap(antichain.__init__, "core.Antichain", None, None))
        adaptive = sys.modules.get(f"{pkg}.adaptive")
        backends = getattr(adaptive, "BACKENDS", None)
        for key, ops in list((backends or {}).items()):
            fields = {}
            for f in dataclasses.fields(ops):
                fn = getattr(ops, f.name)
                if callable(fn):
                    fields[f.name] = self._wrap(wrapped.get(fn, fn), f"api.{f.name}",
                                                _stats_index(fn), _result_size)
            self._undo.append((backends, key, ops))
            backends[key] = dataclasses.replace(ops, **fields)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def spans(self):
        """Spans as rows of COLUMNS, in start order (parents before children)."""
        return list(zip(*(self.cols[c] for c in COLUMNS)))

    def write(self, path):
        """Spans as tab-separated text, one per line, names resolved."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(("id",) + COLUMNS[:-1]) + "\n")
            for i, row in enumerate(self.spans()):
                fh.write("\t".join(map(str, (i, self.names[row[0]]) + row[1:-1])) + "\n")

    def totals(self):
        """Per span name: calls, self ns, self comparisons, self node visits,
        sum of a, sum of b, max of b, max of self node visits over a; plus
        the same for spans that run inside `parity.solve`, under the key
        ("in_solve", name)."""
        rows = self.spans()
        n = len(rows)
        child_ns = [0] * n
        child_comp = [0] * n
        child_visit = [0] * n
        for i in range(n - 1, -1, -1):
            name, parent, _, start, end, comp, visit, _, _, sid = rows[i]
            if parent >= 0:
                child_ns[parent] += end - start
                if sid and rows[parent][9] == sid:
                    child_comp[parent] += comp
                    child_visit[parent] += visit
        solve_ids = {i for i, nm in enumerate(self.names) if nm == "parity.solve"}
        in_solve = [False] * n
        out = {}
        for i, (name, parent, _, start, end, comp, visit, a, b, _) in enumerate(rows):
            in_solve[i] = parent >= 0 and (in_solve[parent] or rows[parent][0] in solve_ids)
            keys = [self.names[name]]
            if in_solve[i]:
                keys.append(("in_solve", self.names[name]))
            for key in keys:
                t = out.setdefault(key, [0] * 8)
                t[0] += 1
                t[1] += end - start - child_ns[i]
                t[2] += comp - child_comp[i]
                t[3] += visit - child_visit[i]
                t[4] += a
                t[5] += b
                t[6] = max(t[6], b)
                if a:
                    t[7] = max(t[7], (visit - child_visit[i]) / a)
        return out


def _stats_index(fn):
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("stats") if "stats" in params else None


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

CALLS, SELF_NS, COMPS, VISITS, SUM_A, SUM_B, MAX_B, MAX_VISITS_PER_A = range(8)


def layer_metrics(totals):
    """The per-layer metrics from `Tracer.totals()`, every one present
    (0 where the workload does not reach the layer)."""
    def get(names, field):
        return sum(totals.get(nm, (0,) * 8)[field] for nm in names)

    def sec(*names):
        return get(names, SELF_NS) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    canon = ("core.Antichain", "core.maxac")
    kd_query = ("kdtree.member_kdtree", "kdtree.strict_member_kdtree")
    st_query = ("sharingtree.member_st", "sharingtree.strict_member_st")
    in_solve_setops = (("in_solve", "api.union"), ("in_solve", "api.intersect"))
    in_solve_sizes = in_solve_setops + (("in_solve", "parity.down_bwd"),)
    m = {
        "core.parse.s": sec("core.parse_vector_set"),
        "core.format.s": sec("core.format_vector_set"),
        "core.canon.calls": get(canon, CALLS),
        "core.canon.s": sec(*canon),
        "core.member.calls": get(("core.member_list",), CALLS),
        "core.member.s": sec("core.member_list"),
        "core.member.comparisons": get(("core.member_list",), COMPS),
        "core.union.s": sec("core.union_list"),
        "core.intersect.s": sec("core.intersect_list"),
        "core.setop.comparisons": get(("core.union_list", "core.intersect_list"), COMPS),
        "kdtree.build.calls": get(("kdtree.build_kdtree",), CALLS),
        "kdtree.build.s": sec("kdtree.build_kdtree"),
        "kdtree.build.vectors": get(("kdtree.build_kdtree",), SUM_A),
        "kdtree.builds_per_query": ratio(get(("kdtree.build_kdtree",), CALLS), get(kd_query, CALLS)),
        "kdtree.query.calls": get(kd_query, CALLS),
        "kdtree.query.s": sec(*kd_query),
        "kdtree.query.node_visits": get(kd_query, VISITS),
        "kdtree.query.comparisons": get(kd_query, COMPS),
        "kdtree.setop.self_s": sec("kdtree.union_kdtree", "kdtree.intersect_kdtree"),
        "sharingtree.build.calls": get(("sharingtree.build_sharingtree",), CALLS),
        "sharingtree.build.s": sec("sharingtree.build_sharingtree"),
        "sharingtree.build.nodes": get(("sharingtree.build_sharingtree",), SUM_A),
        "sharingtree.build.edges": get(("sharingtree.build_sharingtree",), SUM_B),
        "sharingtree.query.calls": get(st_query, CALLS),
        "sharingtree.query.s": sec(*st_query),
        "sharingtree.query.node_visits": get(st_query, VISITS),
        "sharingtree.visits_per_node": max(totals.get(k, (0,) * 8)[MAX_VISITS_PER_A] for k in st_query),
        "sharingtree.setop.self_s": sec("sharingtree.union_st", "sharingtree.intersect_st"),
        "cst.build.calls": get(("cst.build_cst",), CALLS),
        "cst.build.s": sec("cst.build_cst"),
        "cst.build.nodes": get(("cst.build_cst",), SUM_A),
        "cst.nodes_per_vector": ratio(get(("cst.build_cst",), SUM_A), get(("cst.build_cst",), SUM_B)),
        "cst.query.calls": get(("cst.member_cst",), CALLS),
        "cst.query.s": sec("cst.member_cst"),
        "cst.query.node_visits": get(("cst.member_cst",), VISITS),
        "cst.union.s": sec("cst.union_cst"),
        "cst.intersect.s": sec("cst.intersect_cst"),
        "cst.maximal.s": sec("cst.maximal_elements"),
        "adaptive.decisions": get(("adaptive.choose_backend",), CALLS),
        "adaptive.kdtree_share": ratio(get(("adaptive.choose_backend",), SUM_A),
                                       get(("adaptive.choose_backend",), CALLS)),
        "parity.parse.s": sec("parity.parse_pgsolver"),
        "parity.solve.s": sec("parity.solve"),
        "parity.refinements": get(("parity.solve",), SUM_A),
        "parity.down_bwd.calls": get(("parity.down_bwd",), CALLS),
        "parity.down_bwd.s": sec("parity.down_bwd"),
        "parity.setop.calls": get(in_solve_setops, CALLS),
        "parity.peak_antichain": max(totals.get(k, (0,) * 8)[MAX_B] for k in in_solve_sizes),
        "parity.strategy.s": sec("parity.synthesize_even_strategy"),
    }
    return m


UNITS = {"s": "s", "calls": "count", "comparisons": "count", "node_visits": "count",
         "vectors": "count", "nodes": "count", "edges": "count", "decisions": "count",
         "refinements": "count", "peak_antichain": "count", "self_s": "s"}


def unit_of(name):
    return UNITS.get(name.rsplit(".", 1)[-1], "ratio")
