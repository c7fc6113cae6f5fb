"""Deterministic random benchmarks over the antichain backends.

For membership, a random antichain of size t is queried with 2t vectors,
half inside the downset and half outside.  For union and intersection, a
second antichain overlapping the first on half its elements is built and
the operation is run.  Counter metrics (comparisons and node visits, as
``core.Stats`` defines them) are bit-reproducible under a fixed seed; wall
time is available but explicitly non-deterministic.

RNG streams are split per size from the root seed, so every backend sees
the same instances and rows can be computed in any order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .adaptive import get_backend
from .core import Antichain, Stats, intersect_list, leq, member_list, union_list
from .combinatorics import random_antichain

OPS = ("membership", "union", "intersection")
METRICS = ("comparisons", "node_visits", "wall_time")


class InfeasibleBench(ValueError):
    """The requested antichain size is unreachable for the given k and W."""


@dataclass(frozen=True)
class BenchSpec:
    op: str
    sizes: Sequence[int]
    k: int
    maxval: Optional[int] = None          # default 2t per size
    seed: int = 0
    backends: Sequence[str] = ("list", "kdtree")
    metric: str = "comparisons"

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if not self.backends:
            raise ValueError("backends must name at least one backend")
        for name in self.backends:
            get_backend(name)  # a ValueError naming an unknown backend


@dataclass(frozen=True)
class Row:
    t: int
    backend: str
    op: str
    metric: str
    value: float
    out_size: int
    seed: int


def _split_rng(seed: int, t: int) -> random.Random:
    return random.Random(f"{seed}/{t}")


def _instance_antichain(k: int, t: int, maxval: int, rng: random.Random) -> Antichain:
    gen = random_antichain(k, t, maxval, rng.getrandbits(64))
    if not gen.target_reached:
        raise InfeasibleBench(
            f"could not grow an antichain of size {t} in [0..{maxval}]^{k} "
            f"(reached {len(gen.antichain)})")
    return gen.antichain


def _overlapping_antichain(base: Antichain, t: int, maxval: int, rng: random.Random) -> Antichain:
    """Antichain of size t sharing floor(t/2) vectors with ``base``."""
    shared = sorted(rng.sample(list(base.vectors), t // 2)) if t // 2 else []
    current = list(shared)
    budget = 100 * t
    draws = 0
    k = base.dim
    while draws < budget and len(current) < t:
        draws += 1
        v = tuple(rng.randint(0, maxval) for _ in range(k))
        if not any(leq(v, w) or leq(w, v) for w in current):
            current.append(v)
    if len(current) < t:
        raise InfeasibleBench(f"could not grow overlap antichain to size {t}")
    return Antichain(current, dim=k)


def _member_queries(ac: Antichain, t: int, maxval: int, rng: random.Random):
    """t members (an element, possibly with one component decremented) and
    t non-members (rejection-sampled against the list oracle)."""
    members = []
    for _ in range(t):
        v = list(rng.choice(ac.vectors))
        positive = [i for i, x in enumerate(v) if x > 0]
        if positive and rng.random() < 0.5:
            i = rng.choice(positive)
            v[i] -= rng.randint(1, v[i])
        members.append(tuple(v))
    non_members = []
    attempts = 0
    k = ac.dim
    while len(non_members) < t:
        attempts += 1
        if attempts > 1000 * t:
            raise InfeasibleBench(f"cannot sample non-members for k={k}, maxval={maxval}")
        u = tuple(rng.randint(0, maxval) for _ in range(k))
        if not member_list(ac, u):
            non_members.append(u)
    return members, non_members


def _metric_value(metric: str, stats: Stats, elapsed: float) -> float:
    if metric == "comparisons":
        return stats.comparisons
    if metric == "node_visits":
        return stats.node_visits
    return elapsed


def run_membership_bench(spec: BenchSpec) -> List[Row]:
    rows: List[Row] = []
    for t in spec.sizes:
        rng = _split_rng(spec.seed, t)
        maxval = spec.maxval if spec.maxval is not None else 2 * t
        ac = _instance_antichain(spec.k, t, maxval, rng)
        members, non_members = _member_queries(ac, t, maxval, rng)
        for backend in spec.backends:
            ops = get_backend(backend)
            stats = Stats()
            start = time.perf_counter()
            for u in members:
                verdict = ops.member(ac, u, stats)
                if not verdict:
                    raise AssertionError(f"backend {backend} rejected a member query")
            for u in non_members:
                verdict = ops.member(ac, u, stats)
                if verdict:
                    raise AssertionError(f"backend {backend} accepted a non-member query")
            elapsed = time.perf_counter() - start
            rows.append(Row(t, backend, "membership", spec.metric,
                            _metric_value(spec.metric, stats, elapsed), len(ac), spec.seed))
    return rows


def run_setop_bench(spec: BenchSpec) -> List[Row]:
    rows: List[Row] = []
    op_name = spec.op
    for t in spec.sizes:
        rng = _split_rng(spec.seed, t)
        maxval = spec.maxval if spec.maxval is not None else 2 * t
        a = _instance_antichain(spec.k, t, maxval, rng)
        b = _overlapping_antichain(a, t, maxval, rng)
        expected = union_list(a, b) if op_name == "union" else intersect_list(a, b)
        for backend in spec.backends:
            ops = get_backend(backend)
            stats = Stats()
            start = time.perf_counter()
            if op_name == "union":
                out = ops.union(a, b, stats)
            else:
                out = ops.intersect(a, b, stats)
            elapsed = time.perf_counter() - start
            if out != expected:
                raise AssertionError(f"backend {backend} disagrees with the list oracle at t={t}")
            rows.append(Row(t, backend, op_name, spec.metric,
                            _metric_value(spec.metric, stats, elapsed), len(out), spec.seed))
    return rows


def run_bench(spec: BenchSpec) -> List[Row]:
    if spec.op == "membership":
        return run_membership_bench(spec)
    return run_setop_bench(spec)


def format_csv(rows: Sequence[Row]) -> str:
    """Stable CSV: sorted by size then backend; counter metrics make the
    bytes reproducible, wall time is flagged as non-deterministic."""
    lines = []
    if any(r.metric == "wall_time" for r in rows):
        lines.append("# metric wall_time is non-deterministic")
    lines.append("t,backend,op,metric,value,out_size,seed")
    for r in sorted(rows, key=lambda r: (r.t, r.backend, r.op)):
        value = repr(r.value) if isinstance(r.value, float) and r.metric == "wall_time" else int(r.value)
        lines.append(f"{r.t},{r.backend},{r.op},{r.metric},{value},{r.out_size},{r.seed}")
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> List[Row]:
    rows: List[Row] = []
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("t,"):
            continue
        t, backend, op, metric, value, out_size, seed = line.split(",")
        num = float(value) if metric == "wall_time" else int(value)
        rows.append(Row(int(t), backend, op, metric, num, int(out_size), int(seed)))
    return rows


def emit_csv(rows: Sequence[Row], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(rows))
