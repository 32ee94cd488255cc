#!/usr/bin/env python3
"""Compare two ``run.py`` result files: ``compare.py OLD NEW``.

One row per workload × end-to-end metric with both reported values
(fastest repetition for the timings, median otherwise), the ratio (and
the base it is a ratio of) and a verdict from the bound that
BENCHMARK.json fixes for the metric:

``better`` / ``worse``   the value moved by more than the bound;
``same``                 it did not, and the repetitions are steady enough
                         to say so;
``unresolved``           the two sets of repetitions overlap and one of
                         them spreads (quartile distance over median)
                         wider than the bound, so the data cannot tell
                         the difference the bound asks about.

When both files were run with the same seed and size, the exact part of
the result is compared too: every ``_n`` count and the result rows must
be bit-equal between two runs of the same code, and a difference between
two commits is a changed answer, listed as such.

Exit status: 0 no ``worse`` row, 1 at least one, 2 the files cannot be
compared (different numpy presence, size or schema).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _spread(values: List[float]) -> float:
    """Run-to-run spread: quartile distance over the median."""
    if len(values) < 4:
        return (max(values) - min(values)) / abs(statistics.median(values))
    low, middle, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def verdict(old: Dict[str, Any], new: Dict[str, Any], better: str,
            bound: float) -> str:
    """better / same / worse / unresolved for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["value"] - old["value"]) / abs(old["value"])
    overlap = old["min"] <= new["max"] and new["min"] <= old["max"]
    if overlap and max(_spread(old["values"]), _spread(new["values"])) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def exact_differences(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """Counts and rows that differ between two same-seed results."""
    differences = []
    for name, value in old["per_layer"].items():
        if name.endswith("_n") and new["per_layer"].get(name) != value:
            differences.append(f"{name}: {value} -> {new['per_layer'].get(name)}")
    if old["work"] != new["work"]:
        differences.append(f"work: {old['work']} -> {new['work']}")
    if old["row"] != new["row"]:
        differences.append("result row differs")
    return differences


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("schema", "size"):
        if old[key] != new[key]:
            print(f"cannot compare: {key} differs ({old[key]} vs {new[key]})",
                  file=sys.stderr)
            return 2
    if old["stamp"]["numpy"] != new["stamp"]["numpy"]:
        print("cannot compare: numpy is importable in one result and not the "
              "other (it selects the columnar backend)", file=sys.stderr)
        return 2
    for key in ("nproc", "usable_cpus", "python", "machine"):
        if old["stamp"][key] != new["stamp"][key]:
            print(f"warning: {key} differs ({old['stamp'][key]} vs "
                  f"{new['stamp'][key]}); timings may not be comparable")

    worse = 0
    print(f"{'workload':<14}{'metric':<22}{'old':>11}{'new':>11}  "
          f"{'new/old':<22}{'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        before = old["workloads"].get(workload)
        after = new["workloads"].get(workload)
        if not before or not after or "error" in before or "error" in after:
            print(f"{workload:<14}missing or failed in one of the results")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in before["end_to_end"] or name not in after["end_to_end"]:
                continue
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            ratio = f"{b['value'] / a['value']:.3f}x of {a['value']:.4g} {a['unit']}"
            print(f"{workload:<14}{name:<22}{a['value']:>11.4g}{b['value']:>11.4g}  "
                  f"{ratio:<22}{metric['bound']:>6.0%}  {word}")
        if before["checks"]["failed"] or after["checks"]["failed"]:
            print(f"{workload:<14}checks failed: old {before['checks']['failed']}, "
                  f"new {after['checks']['failed']}")
            worse += after["checks"]["failed"] > 0

    print()
    if old["seed"] != new["seed"]:
        print(f"seeds differ ({old['seed']} vs {new['seed']}): counts and rows "
              "are not compared")
    else:
        for workload in (w["name"] for w in spec["workloads"]):
            before = old["workloads"].get(workload, {})
            after = new["workloads"].get(workload, {})
            if "per_layer" not in before or "per_layer" not in after:
                continue
            differences = exact_differences(before, after)
            print(f"{workload}: counts and rows "
                  + ("identical" if not differences else "CHANGED"))
            for difference in differences:
                print(f"   {difference}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
