#!/usr/bin/env python3
"""Parent-vs-change timing by alternating pairs (choosing-metrics §8).

    scripts/bench_pairs.py PARENT_REF                 # every workload, in turn
    scripts/bench_pairs.py PARENT_REF --workload plan_offline
    scripts/bench_pairs.py HEAD~1 --workload cell_cram --pairs 12 --seed-base 500
    scripts/bench_pairs.py HEAD~1 --workload plan_offline --size full

Exports PARENT_REF with ``git archive`` into a temporary directory and
runs the *unmodified* ``bench_e2e/run.py --workload W --seed N
--seconds S --trace 0`` (the form BENCHMARK.json's runner uses, ``S``
its ``run_seconds``) in that export and in this working tree —
uncommitted edits included.  ``--size full`` adds ``--size full`` to
both sides' command, for the paper-scale inputs.
Pair *i* uses seed ``seed-base + i`` on both sides; even pairs run the
parent first, odd pairs the change.  Both sides get the same
environment with ``PYTHONDONTWRITEBYTECODE`` removed, so each compiles
its bytecode once, in the benchmark's throw-away import, and neither
runs on a stale or missing ``__pycache__``.

Per end-to-end metric it prints each side's median and quartiles, the
change's wins and ties over the pairs, the parent's quartile distance,
and two verdicts:

* the claim — ``gain`` when, over ten pairs or more, the change wins at
  least nine tenths of them and the medians differ by more than that
  distance; ``same`` when every pair ties; else ``no claim``;
* no regression, against the metric's ``bound`` in BENCHMARK.json —
  ``within bound`` when the change's median is no worse than the
  parent's by more than the bound, ``worse`` when it is, and
  ``unresolved (parent q3-q1 > bound)`` when the parent's own quartile
  distance over its median exceeds the bound, unless every run of the
  change reads better than every run of the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def export(ref: str, target: Path) -> None:
    """Unpack the committed tree of ``ref`` into ``target``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", ref], stdout=subprocess.PIPE
    )
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(target)
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: int, size: str,
             env: Dict[str, str]) -> Dict[str, float]:
    """One contract-form run in ``tree``; its end-to-end metric values."""
    command = [sys.executable, "bench_e2e/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if size != "bench":
        command += ["--size", size]
    done = subprocess.run(command, cwd=tree, env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{tree}: {result['failed']} of {result['attempted']} "
                         f"checks failed on seed {seed}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def regression(old: List[float], new: List[float], better: str,
               bound: float) -> str:
    """The no-regression verdict for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    if old == new or all(sign * (b - a) < 0 for a in old for b in new):
        return "within bound"
    old_q, new_q = quartiles(old), quartiles(new)
    base = abs(old_q[1])
    if base == 0.0:
        return "within bound" if sign * new_q[1] <= 0 else "worse"
    if (old_q[2] - old_q[0]) / base > bound:
        return "unresolved (parent q3-q1 > bound)"
    worsening = sign * (new_q[1] - old_q[1]) / base
    return "worse" if worsening > bound else "within bound"


def report(workload: str, sides: Dict[str, List[Dict[str, float]]],
           metrics: List[Dict[str, object]], args: argparse.Namespace) -> None:
    pairs = args.pairs
    print(f"\n{workload} ({args.size}): {pairs} pairs, parent {args.parent_ref}, "
          f"seeds {args.seed_base}..{args.seed_base + pairs - 1}")
    print(f"{'metric':<21}{'side':<8}{'q1':>10}{'median':>10}{'q3':>10}"
          f"  {'wins':>5}{'ties':>5}  {'parent q3-q1':>12}  {'claim':<19}no regression")
    for metric in metrics:
        name = metric["name"]
        old = [run[name] for run in sides["parent"]]
        new = [run[name] for run in sides["change"]]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        ties = sum(a == b for a, b in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        spread = old_q[2] - old_q[0]
        gain = sign * (new_q[1] - old_q[1])
        if ties == pairs:
            claim = "same"
        elif wins >= 0.9 * pairs and gain > spread:
            claim = "gain" if pairs >= 10 else "better (<10 pairs)"
        else:
            claim = "no claim"
        verdict = regression(old, new, metric["better"], metric["bound"])
        for side, (q1, median, q3) in (("parent", old_q), ("change", new_q)):
            tail = (f"  {wins:>5}{ties:>5}  {spread:>12.4g}  {claim:<19}{verdict}"
                    if side == "change" else "")
            print(f"{name:<21}{side:<8}{q1:>10.4g}{median:>10.4g}{q3:>10.4g}{tail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: every workload in "
                             "BENCHMARK.json, in turn)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--size", choices=("bench", "full"), default="bench")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([args.workload] if args.workload is not None
                 else [entry["name"] for entry in spec["workloads"]])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        parent = Path(scratch)
        export(args.parent_ref, parent)
        trees = {"parent": parent, "change": ROOT}
        for workload in workloads:
            sides: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                seed = args.seed_base + pair
                order = (("parent", "change") if pair % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    sides[side].append(
                        run_once(trees[side], workload, seed,
                                 spec["run_seconds"], args.size, env))
                print(f"{workload} pair {pair + 1}/{args.pairs} seed {seed} "
                      f"({order[0]} first): "
                      f"wall_s parent {sides['parent'][-1]['wall_s']:.3f} "
                      f"change {sides['change'][-1]['wall_s']:.3f}", flush=True)
            report(workload, sides, spec["end_to_end"], args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
