"""Benchmark of the `downset` package: per-backend throughput and latency.

    python3 perfbench/run.py --workload membership|setops|parity --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One process, one client, closed loop: each op starts when
the previous one has returned and been checked.  Every op runs on each of
the five backends, which take turns in equal time slices.

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs a
fixed prefix of the ops on each backend twice, untraced and then with spans
around the package's public entry points, and reports the per-layer metrics
(see tracing.py); its counts repeat exactly for a seed.  The spans are
written to .perfbench/spans-<workload>.tsv.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
every metric with its unit and sample count.  The process re-executes itself
under PYTHONHASHSEED=0 so that runs of one seed are reproducible.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

BACKENDS = ("list", "kdtree", "sharingtree", "cst", "adaptive")
HASH_SEED = "0"
SETUP_REPS = 4  # before the ops, and again after them
ROUNDS = 25  # time slices per backend in a run
NOMINAL_PROBE_NS = 2_500_000  # see Speed
TRACE_OPS = {"membership": 200, "setops": 40, "parity": 40}
ROOT = Path(__file__).resolve().parent.parent


class PackageMissing(Exception):
    pass


def import_package():
    """Import `downset` and its parity module afresh from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "downset" / "__init__.py").is_file():
        raise PackageMissing(f"no downset package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "downset" or n.startswith("downset.")]:
        del sys.modules[name]
    ds = importlib.import_module("downset")
    if Path(ds.__file__).resolve().parent != src / "downset":
        raise PackageMissing(f"imported downset from {ds.__file__}, not from {src}")
    return ds, importlib.import_module("downset.parity")


class Runner:
    """Set-up, op execution and output checks of one workload."""

    def __init__(self, work):
        self.work = work
        self.ds = self.pm = self.state = self.expected = None

    def setup(self):
        """Import the package and parse the stored inputs; returns seconds."""
        start = time.perf_counter()
        self.ds, self.pm = import_package()
        self.parse()
        elapsed = time.perf_counter() - start
        if self.work.name == "parity" and self.expected is None:
            self.expected = [self.pm.zielonka(g) for g in self.state]
        return elapsed

    def parse(self):
        stored = self.work.stored
        if self.work.name == "membership":
            self.state = [(self.ds.parse_vector_set(s), [tuple(int(x) for x in line.split())
                                                         for line in q.splitlines()])
                          for s, q in stored]
        elif self.work.name == "setops":
            self.state = [(self.ds.parse_vector_set(a), self.ds.parse_vector_set(b)) for a, b in stored]
        else:
            self.state = [self.pm.parse_pgsolver(text) for text in stored]

    def run(self, backend, op):
        ds = self.ds
        if self.work.name == "membership":
            family, qi, _ = op
            ac, queries = self.state[family]
            return ds.get_backend(backend).member(ac, queries[qi], ds.Stats())
        if self.work.name == "setops":
            i, kind, _ = op
            a_text, b_text = self.work.stored[i]
            a, b = ds.parse_vector_set(a_text), ds.parse_vector_set(b_text)
            return ds.format_vector_set(getattr(ds.get_backend(backend), kind)(a, b, ds.Stats()))
        game = self.state[op[0]]
        result = self.pm.solve(game, backend=backend)
        return result.winners, self.pm.synthesize_even_strategy(game, result)

    def check(self, op, out):
        if self.work.name != "parity":
            return out == op[-1]
        winners, strategy = out
        game = self.state[op[0]]
        return winners == self.expected[op[0]] and self.pm.check_even_strategy(game, winners, strategy)


class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0

    def step(self, runner, backend, op, timed=True):
        """Run one op, time it, then check its output outside the timed interval."""
        clock = time.perf_counter_ns
        start = clock()
        try:
            out = runner.run(backend, op)
            ok = True
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            print(f"# {backend} op {op[:2]} raised {exc!r}", file=sys.stderr)
            ok = False
        end = clock()
        if timed:
            self.latencies.append(end - start)
        self.attempted += 1
        if not (ok and runner.check(op, out)):
            self.failed += 1
        return out if ok else None


class Speed:
    """Probes of the machine's speed: the time of one fixed pure-Python task.

    Other processes on a shared machine slow a run down, for seconds at a
    time and by up to half, and by different amounts from one run to the
    next.  So each timed interval is scaled by NOMINAL_PROBE_NS over the mean
    of the probes taken just before and just after it: times read as on a
    machine where the probe takes NOMINAL_PROBE_NS.  The task mixes calls,
    tuples, dict updates, sorting and string building, as the package's ops
    do; it tracks their slow-downs more closely than a task of one kind.
    The unscaled figures are printed too.
    """

    def __init__(self):
        self.times = []

    def probe(self):
        """Time the task, with the cyclic collector paused (a collection
        belongs to the ops that made the garbage); returns the probe's index."""
        gc.disable()
        start = time.perf_counter_ns()
        counts = {}
        for i in range(3000):
            key = _ordered(i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
        " ".join(str(v) for _, v in sorted(counts.items(), reverse=True))
        self.times.append(time.perf_counter_ns() - start)
        gc.enable()
        return len(self.times) - 1

    def scale(self, i):
        """Factor for the interval between probes i and i + 1."""
        return NOMINAL_PROBE_NS / ((self.times[i] + self.times[i + 1]) / 2)


def _ordered(x, y):
    return (x, y) if x < y else (y, x)


def measure(runner, seconds, speed):
    """Closed loop, one client: backends take turns in ROUNDS slices each;
    each backend walks the op list from its own cursor.  Returns the
    tallies and, per backend, the op latencies scaled by `speed`."""
    ops = runner.work.ops
    tallies = {b: Tally() for b in BACKENDS}
    cursor = dict.fromkeys(BACKENDS, 0)
    for b in BACKENDS:  # warm-up: one op of each family, checked but not timed
        for _ in range(runner.work.families):
            tallies[b].step(runner, b, ops[cursor[b] % len(ops)], timed=False)
            cursor[b] += 1
    gc.collect()
    slice_ns = int(seconds * 1e9 / (ROUNDS * len(BACKENDS)))
    clock = time.perf_counter_ns
    slices = []
    for r in range(ROUNDS):
        for j in range(len(BACKENDS)):
            b = BACKENDS[(r + j) % len(BACKENDS)]
            lat = tallies[b].latencies
            first, probe = len(lat), speed.probe()
            end = clock() + slice_ns
            while clock() < end:
                tallies[b].step(runner, b, ops[cursor[b] % len(ops)])
                cursor[b] += 1
            slices.append((b, first, len(lat), probe))
    speed.probe()
    scaled = {b: [] for b in BACKENDS}
    for b, first, last, probe in slices:
        factor = speed.scale(probe)
        scaled[b].extend(x * factor for x in tallies[b].latencies[first:last])
    return tallies, scaled


def end_to_end(runner, seconds, speed, setup):
    tallies, scaled = measure(runner, seconds, speed)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set up again after the ops, so that the median does not hang on the
    # machine's speed at the start of the run alone
    setup = setup + [(runner.setup(), speed.probe() - 1) for _ in range(SETUP_REPS)]
    metrics, samples = {}, {}
    for b, t in tallies.items():
        lat = scaled[b]
        metrics[f"{b}.ops_per_s"] = ((len(lat) - t.failed) / (sum(lat) / 1e9), "1/s")
        metrics[f"{b}.p95_ms"] = (statistics.quantiles(lat, n=20)[18] / 1e6, "ms")
        samples[f"{b}.ops_per_s"] = samples[f"{b}.p95_ms"] = len(lat)
        print(f"# {b} unscaled: {len(t.latencies) / (sum(t.latencies) / 1e9)!r} ops/s, "
              f"p95 {statistics.quantiles(t.latencies, n=20)[18] / 1e6!r} ms")
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    metrics["setup_s"] = (statistics.median(t * speed.scale(i) for t, i in setup), "s")
    samples["setup_s"] = len(setup)
    metrics["peak_rss_mib"] = (peak_rss, "MiB")
    metrics["success_rate"] = (1 - failed / attempted, "ratio")
    samples["success_rate"] = attempted
    print(f"# error_rate {failed / attempted!r} ({failed} of {attempted} ops)")
    print(f"# speed probes: fastest {min(speed.times) / 1e6:.3f} ms, median "
          f"{statistics.median(speed.times) / 1e6:.3f} ms, slowest {max(speed.times) / 1e6:.3f} ms")
    return metrics, samples, attempted, failed


def traced(runner, n_ops, speed):
    """Each backend runs the first n_ops ops untraced, then traced."""
    ops = runner.work.ops
    tracer = tracing.Tracer(runner.ds)
    tally = Tally()
    overhead = {}
    digest = hashlib.sha256()
    for b in BACKENDS:
        for op in ops[:runner.work.families]:  # warm-up
            tally.step(runner, b, op, timed=False)
        seq = [ops[i % len(ops)] for i in range(n_ops)]
        busy = []
        for on in (False, True):
            start, probe = len(tally.latencies), speed.probe()
            if on:
                tracer.install()
            try:
                for i, op in enumerate(seq):
                    tracer.op = i
                    out = tally.step(runner, b, op)
                    if on:
                        digest.update(repr(out).encode())
            finally:
                tracer.uninstall()
            speed.probe()
            busy.append(sum(tally.latencies[start:]) * speed.scale(probe))
        overhead[b] = 1 - busy[0] / busy[1]
    tracer.install()  # the parse half of set-up, for the parse layers
    try:
        runner.parse()
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{runner.work.name}.tsv")
    metrics = {name: (value, tracing.unit_of(name))
               for name, value in tracing.layer_metrics(tracer.totals()).items()}
    for b in BACKENDS:
        metrics[f"trace.overhead.{b}"] = (overhead[b], "ratio")
    print(f"# outputs sha256 {digest.hexdigest()}")
    samples = dict.fromkeys(metrics, n_ops)
    return metrics, samples, tally.attempted, tally.failed


def inputs_digest(work):
    return hashlib.sha256(repr((work.stored, work.ops)).encode()).hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    work = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print(f"# workload {work.name} seed {args.seed} trace {args.trace}: python "
          f"{platform.python_version()}, PYTHONHASHSEED={HASH_SEED}, {len(work.ops)} distinct ops")
    print(f"# inputs sha256 {inputs_digest(work)}")
    runner = Runner(work)
    speed = Speed()
    try:
        speed.probe()
        setup = [(runner.setup(), speed.probe() - 1) for _ in range(SETUP_REPS)]
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()
    if args.trace:
        metrics, samples, attempted, failed = traced(runner, TRACE_OPS[work.name], speed)
    else:
        metrics, samples, attempted, failed = end_to_end(runner, args.seconds, speed, setup)
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value!r} {unit} samples={samples.get(name, 1)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
