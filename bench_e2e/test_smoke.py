"""Plumbing test for the benchmark (not part of the tier-1 suite).

    python -m pytest bench_e2e/test_smoke.py

Drives ``run.py`` the way a user and BENCHMARK.json's runner do, at toy
size, and checks the shape of what comes out — never a timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "bench_e2e" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(RUN + ["--smoke", "--out", str(out)], cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout, elapsed, out


def test_smoke_is_quick(smoke):
    assert smoke[2] < 30.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(smoke, workload):
    result, printed, _, _ = smoke
    summary = result["workloads"][workload]
    assert set(summary["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(summary["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in printed
    # Everything resolves at this commit, so nothing is null.
    assert None not in summary["per_layer"].values()
    for name, row in summary["end_to_end"].items():
        assert row["median"] != 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_pass_and_traced_row_equals_untraced(smoke, workload):
    summary = smoke[0]["workloads"][workload]
    assert summary["reps"] == 1 and summary["traced_reps"] == 1
    assert summary["checks"]["failed"] == 0, summary["checks"]["failures"]
    # placement + validation/attachment checks, and the row comparison
    assert summary["checks"]["attempted"] >= 5


def test_result_is_stamped(smoke):
    assert set(smoke[0]["stamp"]) == {
        "nproc", "usable_cpus", "python", "numpy", "machine"}


def test_unresolved_boundary_is_null_not_a_crash():
    script = (
        "import sys, time\n"
        "from bench_e2e import child, trace\n"
        "trace.BOUNDARIES['sim.run'] = ('repro.sim.engine:Gone.run',)\n"
        "sys.exit(child.main(['--workload', 'cell_cram', '--seed', '1',"
        " '--size', 'smoke', '--trace', '1',"
        " '--spawned-at', repr(time.monotonic())]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "no longer resolves" in done.stderr
    per_layer = json.loads(done.stdout.splitlines()[-1])["per_layer"]
    assert per_layer["sim.engine.run_s"] is None
    assert per_layer["sim.engine.us_per_event"] is None
    assert per_layer["pubsub.matching.routes_n"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(trace):
    done = subprocess.run(
        RUN + ["--workload", "plan_offline", "--size", "smoke", "--seed", "3",
               "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}


def test_compare_same_result_is_clean(smoke):
    out = str(smoke[3])
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "compare.py"), out, out],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "worse" not in done.stdout and "CHANGED" not in done.stdout
    assert done.stdout.count("counts and rows identical") == len(WORKLOADS)


def test_compare_refuses_mixed_numpy(smoke, tmp_path):
    other = dict(smoke[0])
    other["stamp"] = dict(other["stamp"], numpy=not other["stamp"]["numpy"])
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "compare.py"),
         str(smoke[3]), str(path)], capture_output=True, text=True)
    assert done.returncode == 2
    assert "numpy" in done.stderr
