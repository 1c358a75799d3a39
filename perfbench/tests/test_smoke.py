"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench/tests

Runs every workload for about a second on 30-curve instances and checks
the contract of the last output line: its keys, that every metric named
in BENCHMARK.json is reported with its unit, and that the outputs pass
the benchmark's own correctness checks.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, n=30):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--n", str(n)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = last_line(run(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["seg1d-center", "curves-center"])
def test_per_layer_metrics(workload):
    out = last_line(run(workload, 1))
    assert out["correct"] is True
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == spec
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["frechet.solves"] > 0 and metrics["oracle.candidates"] > 0
    if workload == "seg1d-center":
        assert metrics["frechet.decisions"] == 0  # segments never bisect
    else:
        assert metrics["frechet.decisions"] > 0 and metrics["geometry.grid_lookups"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_digests_are_kept_per_library_code(tmp_path):
    import run
    pkg = tmp_path / "curveclust"
    pkg.mkdir()
    (pkg / "frechet.py").write_text("X = 1\n")
    before = run.code_hash(pkg)
    (pkg / "frechet.py").write_text("X = 2\n")
    assert run.code_hash(pkg) != before


def _discrete_by_recursion(P, Q):
    D = np.linalg.norm(P[:, None] - Q[None, :], axis=-1)
    ca = np.full(D.shape, math.inf)
    for i in range(len(P)):
        for j in range(len(Q)):
            prev = 0.0 if i == j == 0 else min(
                ca[i - 1, j] if i else math.inf,
                ca[i, j - 1] if j else math.inf,
                ca[i - 1, j - 1] if i and j else math.inf)
            ca[i, j] = max(prev, D[i, j])
    return ca[-1, -1]


def test_batched_discrete_matches_plain_dynamic_program():
    rng = np.random.default_rng(0)
    for p, q in [(2, 2), (3, 7), (6, 4), (1, 5)]:
        P, Q = rng.normal(size=(4, p, 2)), rng.normal(size=(4, q, 2))
        got = reference.batched_discrete(P, Q)
        want = [_discrete_by_recursion(P[b], Q[b]) for b in range(4)]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_bracket_is_exact_for_segments_and_brackets_curves():
    seg = [np.array([[0.0, 0.0], [1.0, 0.0]])]
    lo, hi = reference.distance_bracket(seg, [np.array([[0.0, 1.0], [1.0, 3.0]])])
    assert lo[0] == hi[0] == 3.0
    # a straight curve against itself traversed with an extra vertex
    curve = [np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])]
    lo, hi = reference.distance_bracket(curve, [np.array([[0.0, 0.0], [2.0, 0.0]])])
    assert lo[0] == 0.0 and hi[0] <= reference.REFINE_H


def test_decline_must_meet_the_long_edge_gate():
    inputs = np.zeros((90, 6, 2))
    out = {"declined": True, "longest_edge": 3.0, "approx_cost": 1.0,
           "limit": math.sqrt(90)}
    assert reference.check_declined(out, inputs) == []  # 3^6 > sqrt(90)
    assert reference.check_declined({**out, "longest_edge": 1.2}, inputs)
