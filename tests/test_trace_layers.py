"""The benchmark's tracer still sees the layers the package works on.

The tracer wraps entry points by function object and skips names the
package no longer has, so a renamed or aliased build or query would read 0
on its layer without any error, and work moved into a private helper would
leave its layer.  These run traced benchmarks on tiny inputs and check that
each DAG layer recorded work and that parsing canonicalizes on the
`core.canon` layer.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_membership_reaches_both_dag_backends():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", "membership", "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    for name in ("sharingtree.build.calls", "sharingtree.query.calls",
                 "cst.build.calls", "cst.query.calls"):
        assert metrics[name]["value"] > 0, name


def test_traced_setops_canonicalize_on_the_canon_layer():
    # each op parses both operands; a parse that skips maxac and Antichain
    # would leave core.canon with only cst.maximal_elements' calls
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", "setops", "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    ops_per_backend = next(int(line.rsplit("samples=", 1)[1]) for line in lines
                           if line.startswith("# core.canon.calls "))
    backends = sum(name.startswith("trace.overhead.") for name in metrics)
    assert backends == 5
    assert metrics["core.canon.calls"]["value"] >= 2 * ops_per_backend * backends
