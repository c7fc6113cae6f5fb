"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent


def run(workload, seed, trace):
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace), "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = out.stdout.splitlines()
    tags = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("# ")}
    return json.loads(lines[-1]), tags


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_traced_counts_and_outputs_repeat_for_a_seed(workload):
    (first, tags1), (second, tags2) = run(workload, 3, 1), run(workload, 3, 1)
    assert first["correct"] and first["failed"] == 0
    counts = {name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "ratio") and not name.startswith("trace.")}
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert tags1["inputs"] == tags2["inputs"] and tags1["outputs"] == tags2["outputs"]
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_another_seed_gives_other_inputs(workload):
    a = workloads.build(workload, 3, tiny=True)
    b = workloads.build(workload, 4, tiny=True)
    assert a.stored != b.stored
    assert workloads.build(workload, 3, tiny=True).stored == a.stored


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, _ = run(workload, 5, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    result, _ = run("parity", 5, 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_reference_reduction():
    assert workloads.maximal([(1, 2), (2, 1), (1, 1), (2, 1), (0, 3)]) == [(0, 3), (1, 2), (2, 1)]
    a, b = [(3, 0), (1, 2)], [(2, 2)]
    assert workloads.maximal([workloads.meet(u, v) for u in a for v in b]) == [(1, 2), (2, 0)]
