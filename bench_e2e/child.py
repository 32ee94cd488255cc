"""One repetition of one workload, in a process of its own.

Run by ``run.py`` as ``python -m bench_e2e.child`` with a scrubbed
environment; prints one JSON object on its last stdout line.  A fresh
process per repetition is what makes ``setup_s`` (import + input
construction) and ``peak_rss_mb`` (``ru_maxrss``) mean something.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.monotonic() at spawn")
    args = parser.parse_args(argv)

    recorder = sampler = tap = None
    if args.trace:
        from bench_e2e import trace
        recorder, sampler, tap = (
            trace.SpanRecorder(), trace.Sampler(), trace.FilterTap())
        trace.install(recorder, tap)
    from bench_e2e import workloads

    workload = workloads.build(args.workload, args.size)
    workload.prepare(args.seed)
    # CLOCK_MONOTONIC is system-wide, so the parent's reading compares:
    # interpreter start and imports are part of what a user waits for.
    setup_s = time.monotonic() - args.spawned_at

    if sampler is not None:
        sampler.start()
    cpu_start = time.process_time()
    run_start = time.perf_counter()
    workload.run()
    run_end = time.perf_counter()
    cpu_s = time.process_time() - cpu_start
    if sampler is not None:
        sampler.stop()
    wall_s = run_end - run_start
    # Read before the checks run: they allocate, the timed call is what
    # the metric is about.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcome = workload.outcome()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "answers": outcome.answers,
        "work": outcome.work,
        "row": outcome.row,
        "checks": outcome.checks,
    }
    if recorder is not None:
        spans = recorder.summary(run_start, run_end)
        shares = sampler.shares()
        result["spans"] = spans
        result["shares"] = shares
        result["per_layer"] = trace.per_layer_metrics(
            spans, recorder.unresolved, shares, tap, outcome, wall_s, cpu_s)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
