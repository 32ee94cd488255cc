#!/usr/bin/env bash
# One-shot correctness gate: tier-1 tests + hash-seed independence of
# the answers + reprolint + ruff + mypy.
#
# ruff and mypy are optional dependencies (pyproject [project.optional-
# dependencies].lint); when they are not installed — e.g. in the minimal
# reproduction container — they are skipped with a notice so the
# deterministic checks still gate the build.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 pytest =="
# With pytest-cov available the same run also enforces the coverage
# floor ([tool.coverage.report] fail_under) and leaves coverage.xml for
# the CI artifact; without it the suite still gates correctness.
if python -c "import pytest_cov" >/dev/null 2>&1; then
    python -m pytest -x -q --cov=repro --cov-report=term \
        --cov-report=xml:coverage.xml
else
    python -m pytest -x -q
    echo "pytest-cov not installed; coverage floor skipped (pip install -e .[test])"
fi

echo "== answers under PYTHONHASHSEED 0 / 7 / 2011 =="
# The four bench_e2e workloads at smoke size, a fresh interpreter per
# hash seed; rows and answers must be identical (about 2 s).
python scripts/hashseed_rows.py

echo "== reprolint (one check list) =="
# Every check in repro.tools.lint.CHECKS; tests/lint_corpus.py records
# which seeded defects each one is the in-container gate for.  Exit 1 =
# findings, exit 2 = parse failures; both are hard errors under `set -e`.
python -m repro.tools lint src --usage tests --usage benchmarks

echo "== ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests
else
    echo "ruff not installed; skipping (pip install -e .[lint])"
fi

echo "== mypy (strict on core/ and sim/) =="
if command -v mypy >/dev/null 2>&1; then
    mypy
else
    echo "mypy not installed; skipping (pip install -e .[lint])"
fi

echo "== all checks passed =="
