#!/usr/bin/env bash
# Run the benchmark harness and collect the machine-readable trajectory.
#
# Every figure suite prints its aligned table and records the same rows
# to BENCH_<suite>.json (see benchmarks/conftest.py); this script pins
# the output directory and forwards any extra pytest arguments, e.g.
#
#   scripts/bench.sh                                  # full harness
#   scripts/bench.sh benchmarks/test_bench_faults.py  # one suite
#   REPRO_BENCH_OUT=out/bench scripts/bench.sh -k comptime
#
# Scenario knobs (REPRO_BENCH_SCALE, REPRO_BENCH_SUBS, REPRO_BENCH_SEED,
# ...) are documented in benchmarks/conftest.py.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_BENCH_OUT="${REPRO_BENCH_OUT:-bench-results}"

targets=("$@")
if [ ${#targets[@]} -eq 0 ]; then
    targets=(benchmarks)
fi

python -m pytest "${targets[@]}" -q -s
echo "== bench trajectory =="
ls -l "$REPRO_BENCH_OUT"/BENCH_*.json 2>/dev/null \
    || echo "no BENCH_*.json written (no recording suite ran)"
