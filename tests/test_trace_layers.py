"""The benchmark's tracer still sees both layered-DAG backends.

The tracer wraps entry points by function object and skips names the
package no longer has, so a renamed or aliased build or query would read 0
on its layer without any error.  This runs the traced membership benchmark
on tiny inputs and checks that each DAG layer recorded work.
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
