#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, one command.

    python bench_e2e/run.py --seed 2011          # everything, human-readable
    python bench_e2e/run.py --smoke              # toy sizes, < 30 s
    python bench_e2e/run.py --list               # the metrics, from BENCHMARK.json
    python bench_e2e/run.py --workload plan_offline --seed 7 --seconds 20 --trace 0

The last form is the one BENCHMARK.json's ``command`` is run with: it
repeats one workload for about ``--seconds`` and prints, as the last
stdout line, ``{"correct", "attempted", "failed", "metrics"}`` carrying
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).

Every repetition is a fresh single-threaded child process
(``bench_e2e/child.py``), run strictly one after another.  End-to-end
metrics come from the untraced repetitions (the fastest one for the two
timings, the median otherwise); the fastest traced repetition gives the
per-layer numbers and, against the fastest untraced one, the tracing
overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "bench_e2e" / "out" / "result.json"

SCHEMA = "bench-e2e/1"
DEFAULT_REPS = 5
#: Traced repetitions of a ``--reps`` run; the fastest one is reported,
#: so that ``trace.overhead_pct`` compares two quiet moments.
TRACED_REPS = 3
#: A time-budgeted run never reports on fewer repetitions.
MIN_REPS = 3
#: Metrics reported as the fastest repetition instead of the median.
#: The program is deterministic and single-threaded, so for one seed
#: every repetition does identical work and whatever a repetition takes
#: beyond the fastest is the machine, not the program; on the shared
#: 2-core recording box the minimum of five repeats twice as closely as
#: their median (README.md, "Steadiness").
TIMINGS = ("wall_s", "setup_s")
#: Seconds one child may take before it is killed (the largest
#: ``--size full`` repetition is ~20 s on the recording box).
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    """A repetition exited non-zero or printed no result."""


def child_env() -> Dict[str, str]:
    """The parent's environment minus every toggle, plus determinism."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        # numpy (the columnar backend) must not start worker threads.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    return env


def stamp() -> Dict[str, Any]:
    """Where the numbers were taken; compare.py refuses mixed numpy."""
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "machine": platform.machine(),
    }


def warm_bytecode() -> None:
    """One throw-away import so no repetition pays for compiling."""
    done = subprocess.run(
        [sys.executable, "-c", "import bench_e2e.workloads, bench_e2e.trace"],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise ChildFailed("the program under src/ does not import")


def run_child(workload: str, seed: int, size: str, traced: bool) -> Dict[str, Any]:
    """One repetition; returns the child's JSON result."""
    command = [
        sys.executable, "-m", "bench_e2e.child",
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if traced else "0",
        "--spawned-at", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s")
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited with {done.returncode}")
    return json.loads(lines[-1])


def repeat(workload: str, seed: int, size: str, *, reps: Optional[int],
           seconds: Optional[float], untraced: bool, traced: bool) -> Dict[str, List]:
    """Run repetitions one after another.

    With ``reps``: that many untraced ones, then (at most)
    ``TRACED_REPS`` traced ones.  With
    ``seconds``: rounds of (untraced, traced) — whichever kinds are
    asked for — until another round would overshoot the budget by more
    than half a round, but never fewer than ``MIN_REPS`` rounds.
    """
    runs: Dict[str, List] = {"untraced": [], "traced": []}
    if seconds is None:
        if untraced:
            for _ in range(reps):
                runs["untraced"].append(run_child(workload, seed, size, False))
        if traced:
            for _ in range(min(reps, TRACED_REPS)):
                runs["traced"].append(run_child(workload, seed, size, True))
        return runs
    started = time.monotonic()
    rounds = 0
    while True:
        if untraced:
            runs["untraced"].append(run_child(workload, seed, size, False))
        if traced:
            runs["traced"].append(run_child(workload, seed, size, True))
        rounds += 1
        elapsed = time.monotonic() - started
        if rounds >= MIN_REPS and elapsed + 0.5 * elapsed / rounds > seconds:
            return runs


def summarize(spec: Dict[str, Any], runs: Dict[str, List]) -> Dict[str, Any]:
    """Reported values, checks and per-layer numbers of one workload's runs."""
    untraced, traced = runs["untraced"], runs["traced"]
    everything = untraced + traced

    end_to_end: Dict[str, Any] = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run[name] if name in run else run["answers"][name]
                  for run in untraced]
        if values:
            end_to_end[name] = {
                "value": min(values) if name in TIMINGS else statistics.median(values),
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values), "unit": metric["unit"],
                "values": values,
            }

    failures = [f"{name} (repetition {index})"
                for index, run in enumerate(everything)
                for name, passed in run["checks"] if not passed]
    attempted = sum(len(run["checks"]) for run in everything)
    # Same seed, same inputs: every repetition, traced or not, must
    # produce the same row.  No golden values are pinned anywhere.
    for index, run in enumerate(everything[1:], start=1):
        attempted += 1
        if run["row"] != everything[0]["row"]:
            failures.append(f"row_identical (repetition {index})")

    per_layer: Dict[str, Any] = {}
    fastest = min(traced, key=lambda run: run["wall_s"], default=None)
    if fastest is not None:
        # One coherent set: every per-layer number comes from the
        # fastest traced repetition, so spans, shares and counts add up.
        per_layer = dict(fastest["per_layer"])
        per_layer["trace.overhead_pct"] = (
            100.0 * (fastest["wall_s"] / end_to_end["wall_s"]["value"] - 1.0)
            if untraced else None)

    summary: Dict[str, Any] = {
        "reps": len(untraced),
        "traced_reps": len(traced),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "work": everything[0]["work"],
        "checks": {"attempted": attempted, "failed": len(failures),
                   "failures": failures},
        "row": everything[0]["row"],
    }
    if fastest is not None:
        summary["spans"] = fastest["spans"]
        summary["shares"] = fastest["shares"]
    return summary


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def contract_line(spec: Dict[str, Any], summary: Dict[str, Any],
                  traced: bool) -> str:
    """The one-line JSON object BENCHMARK.json's runner reads."""
    values = (summary["per_layer"] if traced else
              {name: row["value"] for name, row in summary["end_to_end"].items()})
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
               for metric in spec["per_layer" if traced else "end_to_end"]}
    checks = summary["checks"]
    return json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    })


def _number(value: Any) -> str:
    if value is None:
        return "null"
    return str(value) if isinstance(value, int) else f"{value:.4g}"


def print_summary(spec: Dict[str, Any], workload: str,
                  summary: Dict[str, Any]) -> None:
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    print(f"\n== {workload} — {why}")
    work = summary["work"]
    print("   work: " + ", ".join(f"{value} {name}" for name, value in work.items()))
    for metric in spec["end_to_end"]:
        row = summary["end_to_end"].get(metric["name"])
        if row is None:
            continue
        how = "fastest" if metric["name"] in TIMINGS else "median"
        print(f"   {metric['name']:<28} {_number(row['value']):>10} {row['unit']:<9}"
              f" ({how} of {row['n']}: min {_number(row['min'])},"
              f" median {_number(row['median'])}, max {_number(row['max'])};"
              f" {metric['better']} is better, bound {metric['bound']:.0%})")
    wall = summary["end_to_end"].get("wall_s")
    if wall is not None:
        # Work over wall_s: what the simulator did, or, where it did
        # nothing, the subscriptions the plan placed.
        done = {name: work[name] for name in ("deliveries", "events") if work[name]}
        for name, amount in (done or {"subscriptions": work["subscriptions"]}).items():
            print(f"   {name + '/s':<28} {_number(amount / wall['value']):>10}")
    if summary["per_layer"]:
        print("   -- per layer (traced repetition)")
        for metric in spec["per_layer"]:
            value = summary["per_layer"].get(metric["name"])
            print(f"   {metric['name']:<40} {_number(value):>12} {metric['unit']}")
    checks = summary["checks"]
    print(f"   checks: {checks['attempted'] - checks['failed']}/{checks['attempted']}"
          " passed" + "".join(f"\n   FAILED {name}" for name in checks["failures"]))


def print_list(spec: Dict[str, Any]) -> None:
    names = ", ".join(w["name"] for w in spec["workloads"])
    print(f"workloads: {names}\n")
    print("end-to-end (untraced; defined on every workload — on plan_offline the"
          " two traffic metrics are the plan's predictions, see README.md)")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<40} {metric['unit']:<9} {metric['better']:<7}"
              f" bound {metric['bound']:.0%}")
    print("\nper layer (traced repetition; 0 where the layer is idle, no bound)")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<40} {metric['unit']:<9} {metric['better']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2011,
                        help="feeds input generation only (default 2011)")
    parser.add_argument("--seconds", type=float,
                        help="repeat --workload for about this long and print "
                             "the contract's one-line JSON last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 0 = end-to-end metrics, "
                             "1 = per-layer metrics")
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="untraced repetitions per workload")
    parser.add_argument("--trace-only", action="store_true",
                        help="only the traced repetition")
    parser.add_argument("--size", choices=("bench", "full", "smoke"),
                        default="bench")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one untraced and one traced repetition")
    parser.add_argument("--list", action="store_true",
                        help="print the metrics and exit")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"result file (default {DEFAULT_OUT.relative_to(ROOT)})")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.list:
        print_list(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; pick from {names}")

    try:
        warm_bytecode()
        if args.seconds is not None:
            if args.workload is None:
                parser.error("--seconds needs --workload")
            summary = summarize(spec, repeat(
                args.workload, args.seed, args.size, reps=None,
                seconds=args.seconds, untraced=True, traced=bool(args.trace)))
            print_summary(spec, args.workload, summary)
            print(contract_line(spec, summary, bool(args.trace)))
            return 0
    except ChildFailed as error:
        print(f"bench_e2e: {error}", file=sys.stderr)
        return 1

    size = "smoke" if args.smoke else args.size
    reps = 1 if args.smoke else args.reps
    result: Dict[str, Any] = {"schema": SCHEMA, "stamp": stamp(), "seed": args.seed,
                              "size": size, "workloads": {}}
    failed = False
    for name in [args.workload] if args.workload else names:
        try:
            summary = summarize(spec, repeat(
                name, args.seed, size, reps=reps, seconds=None,
                untraced=not args.trace_only, traced=True))
        except ChildFailed as error:
            # A child that raises counts every check of the workload failed.
            print(f"\n== {name}\n   FAILED {error}", file=sys.stderr)
            result["workloads"][name] = {"error": str(error)}
            failed = True
            continue
        print_summary(spec, name, summary)
        failed = failed or summary["checks"]["failed"] > 0
        result["workloads"][name] = summary
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nresult written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
