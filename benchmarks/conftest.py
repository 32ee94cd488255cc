"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index) and prints the rows so they can be
compared with the published plots.  EXPERIMENTS.md records a captured
run.

Scaling
-------
The paper's full-size scenarios (80 brokers / 8,000 subscriptions on a
cluster; 400–1,000 brokers on SciNet) are minutes-long pure-Python
simulations, so the harness runs reduced sizes by default.  Environment
knobs restore the paper's scale:

=====================  =========  ==========================================
variable               default    meaning
=====================  =========  ==========================================
REPRO_BENCH_SCALE      0.15       broker/publisher scale factor (1.0 = paper)
REPRO_BENCH_SUBS       12,25      subscriptions-per-publisher sweep
                                  (paper: 50,100,150,200)
REPRO_BENCH_SCINET     0.08       scale for the SciNet scenarios
REPRO_BENCH_SEED       2011       master seed
REPRO_BENCH_OUT        .          directory for ``BENCH_<suite>.json`` files
=====================  =========  ==========================================

Machine-readable trajectory
---------------------------
Besides printing the aligned tables, every figure is recorded as JSON:
:func:`print_figure` (and :func:`record_bench` for suites with extra
payload) append rows to an in-memory registry that a session-scoped
fixture flushes to ``BENCH_<suite>.json`` under ``REPRO_BENCH_OUT``.
Each file carries the scenario knobs active for the run, so a CI
artifact is enough to reconstruct what was measured.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Tuple

import pytest

from repro.experiments.runner import APPROACHES, ExperimentRunner
from repro.workloads.scenarios import Scenario

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))
BENCH_SUBS = tuple(
    int(x) for x in os.environ.get("REPRO_BENCH_SUBS", "12,25").split(",")
)
SCINET_SCALE = float(os.environ.get("REPRO_BENCH_SCINET", "0.08"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2011"))
BENCH_OUT = os.environ.get("REPRO_BENCH_OUT", ".")

#: The paper's ten approaches, in its presentation order — the
#: baselines plus the allocator registry's import-time snapshot.
ALL_APPROACHES = APPROACHES


def run_matrix(
    scenarios_by_key: Dict[object, Scenario],
    approaches: Tuple[str, ...],
    seed: int = BENCH_SEED,
) -> Dict[Tuple[object, str], object]:
    """Run every (scenario, approach) cell of a figure's sweep."""
    results = {}
    for key, scenario in scenarios_by_key.items():
        for approach in approaches:
            runner = ExperimentRunner(scenario, seed=seed, cram_failure_budget=150)
            results[(key, approach)] = runner.run(approach)
    return results


def pool_speedup(speedup: float, jobs: int, cores: int) -> dict:
    """A ``jobs``-worker speedup as row fields — or why it is not one.

    With fewer usable CPUs than workers the workers time-slice the
    cores, so the wall time says nothing about the pool: the row
    records that instead of a ratio nobody should read.
    """
    if cores < jobs:
        return {"skipped": f"usable_cpus < {jobs}"}
    return {"speedup": speedup}


# suite key -> {"title", "rows", "extra"}; flushed to BENCH_<suite>.json
_RECORDED: Dict[str, dict] = {}


def _knobs() -> dict:
    return {
        "scale": BENCH_SCALE,
        "subscriptions_per_publisher": list(BENCH_SUBS),
        "scinet_scale": SCINET_SCALE,
        "seed": BENCH_SEED,
    }


def record_bench(suite: str, rows: List[dict], title: str = "", **extra) -> None:
    """Register a figure's rows for the machine-readable trajectory.

    ``suite`` becomes the file name (``BENCH_<suite>.json``); repeated
    calls for one suite extend its row list (sweep tests record one row
    batch per cell).  ``extra`` key/values land next to the rows —
    suites use it for derived aggregates (e.g. speedup ratios).
    """
    suite = re.sub(r"[^A-Za-z0-9._-]+", "-", suite.strip()) or "untitled"
    entry = _RECORDED.setdefault(
        suite, {"title": title, "rows": [], "extra": {}}
    )
    if title and not entry["title"]:
        entry["title"] = title
    entry["rows"].extend(rows)
    entry["extra"].update(extra)


def print_figure(title: str, rows: List[dict], columns=None) -> None:
    from repro.experiments.report import format_rows

    # The title's leading "<figure-key>:" names the suite file.
    record_bench(title.split(":", 1)[0], rows, title=title)
    print(f"\n=== {title} ===")
    print(format_rows(rows, columns=columns))


@pytest.fixture(scope="session", autouse=True)
def bench_trajectory():
    """Flush every recorded suite to ``BENCH_<suite>.json`` on exit."""
    yield
    os.makedirs(BENCH_OUT, exist_ok=True)
    for suite, entry in sorted(_RECORDED.items()):
        payload = {
            "suite": suite,
            "title": entry["title"],
            "knobs": _knobs(),
            "rows": entry["rows"],
        }
        payload.update(entry["extra"])
        path = os.path.join(BENCH_OUT, f"BENCH_{suite}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[bench-trajectory] wrote {path} ({len(entry['rows'])} rows)")
