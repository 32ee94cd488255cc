#!/usr/bin/env python3
"""Answers must not depend on the string-hash seed.

    scripts/hashseed_rows.py            # exit 0: identical, 1: they differ

Builds the four workloads of ``bench_e2e/workloads.py`` (imported, not
edited) at ``smoke`` size, plus the ``cell_cram`` cell under a loss +
jitter plan (so the order of the per-transmission fault draws is
checked too) and as a ``manual`` cell (MANUAL keeps every broker of the
pool, so a set of broker IDs has eight members, not the one or two a
smoke plan ends on, and three hash seeds all but surely order it
differently), once per ``PYTHONHASHSEED`` in :data:`HASH_SEEDS`, each
in a fresh interpreter, and compares every cell's row, answers and
``CramStats`` across them as text.  The stats catch what rows alone do
not: a merge order that changed with the hash seed (a tie broken on a
string's hash, say) yet happened to end in the same plan.
``bench_e2e/run.py`` pins
``PYTHONHASHSEED=0`` for its children, so an iteration over a ``set``
of strings that reached an answer — or an ordering argument that
quietly leaned on hashing, like a stable sort whose ties are meant to
keep append order — would pass there on every run and differ on a
user's machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
HASH_SEEDS = ("0", "7", "2011")
WORKLOAD_SEED = 2011
#: ``(loss_rate, jitter)`` of the faulted ``cell_cram`` cell.
LOSS_JITTER = (0.02, 0.01)


def outcomes() -> Dict[str, Dict[str, str]]:
    """Run every smoke workload, and the faulted cell, in this interpreter."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench_e2e import workloads
    from repro.experiments.runner import ExperimentRunner
    from repro.sim.faults import FaultPlan

    result = {}
    for name in workloads.SIZES["smoke"]:
        workload = workloads.build(name, "smoke")
        workload.prepare(WORKLOAD_SEED)
        workload.run()
        outcome = workload.outcome()
        failed = [check for check, passed in outcome.checks if not passed]
        if failed:
            raise SystemExit(f"{name}: checks failed: {failed}")
        result[name] = {"row": json.dumps(outcome.row),
                        "answers": json.dumps(outcome.answers),
                        "cram_stats": repr(outcome.cram_stats)}
    # Loss makes ``nothing_lost`` fail by design, so this cell skips the
    # workload's checks and is compared on its summary instead.
    loss_rate, jitter = LOSS_JITTER
    runner = ExperimentRunner(
        workloads.build("cell_cram", "smoke").scenario, seed=WORKLOAD_SEED,
        cram_failure_budget=workloads.CRAM_FAILURE_BUDGET,
        fault_plan=FaultPlan(loss_rate=loss_rate, jitter=jitter, seed=5))
    cell = runner.run("cram-ios")
    row = cell.as_row()
    del row["computation_s"]  # wall-clock
    result["cell_cram+loss_jitter"] = {
        "row": json.dumps(row),
        "answers": json.dumps([repr(cell.summary), repr(cell.baseline_summary),
                               runner.network.faults.drops,
                               runner.network.sim.events_processed]),
        "cram_stats": repr(cell.cram_stats),
    }
    runner = ExperimentRunner(
        workloads.build("cell_cram", "smoke").scenario, seed=WORKLOAD_SEED)
    cell = runner.run("manual")
    row = cell.as_row()
    del row["computation_s"]  # wall-clock
    result["cell_manual"] = {
        "row": json.dumps(row),
        "answers": json.dumps([repr(cell.summary), runner.network.sim.events_processed]),
        "cram_stats": repr(cell.cram_stats),
    }
    return result


def outcomes_under(hash_seed: str) -> Dict[str, Dict[str, str]]:
    """:func:`outcomes` from a fresh interpreter with that hash seed."""
    done = subprocess.run([sys.executable, __file__, "--child"], cwd=ROOT,
                          env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                          check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(outcomes()))
        return 0
    reference = outcomes_under(HASH_SEEDS[0])
    differing = 0
    for hash_seed in HASH_SEEDS[1:]:
        seen = outcomes_under(hash_seed)
        for name, expected in reference.items():
            for part in ("row", "answers", "cram_stats"):
                if seen[name][part] != expected[part]:
                    differing += 1
                    print(f"{name}: {part} differs under PYTHONHASHSEED="
                          f"{hash_seed}\n  {HASH_SEEDS[0]:>4}: {expected[part]}"
                          f"\n  {hash_seed:>4}: {seen[name][part]}")
    if differing:
        return 1
    print(f"{len(reference)} cells: rows, answers and CRAM stats identical under "
          f"PYTHONHASHSEED {', '.join(HASH_SEEDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
