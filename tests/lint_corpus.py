#!/usr/bin/env python3
"""Which gate catches which seeded defect.

    python tests/lint_corpus.py              # each seed's named tier-1 nodes
    python tests/lint_corpus.py --full       # the whole tier-1 suite per seed
    python tests/lint_corpus.py --seed ID    # only that seed (may repeat)

Exports the working tree once (``git archive`` of what ``git stash
create`` records, so a new file counts once it is staged), checks that every gate passes on it unseeded, then,
for each seed of ``tests/lint_corpus/seeds.py``, applies the seed, runs
the gates and restores the files.  The gates:

* ``reprolint`` — ``python -m repro.tools lint src --usage tests
  --usage benchmarks``, as ``scripts/check.sh`` runs it;
* ``hashseed`` — ``scripts/hashseed_rows.py``;
* ``tier-1`` — the seed's named nodes, or the whole suite under
  ``--full`` (``-x``: the first failure is reported), less reprolint's
  own tests, which run reprolint;
* ``ruff`` and ``mypy`` — where installed, else ``n/a``.

Prints one markdown row per seed.  Exit 0: every seed is caught by some
gate; 1: a seed is caught by none; 2: a seed no longer applies or the
unseeded tree fails a gate.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "lint_corpus" / "seeds.py"
GATES = ("reprolint", "hashseed", "tier-1", "ruff", "mypy")

#: Tier-1 files that run reprolint itself (on fixtures, on ``src``, on
#: the seeds), so the tier-1 gate leaves them out.
REPROLINT_TESTS = ("test_lint_corpus.py", "test_reprolint.py", "test_reprolint_v2.py",
                   "test_reprolint_v2_edges.py")

#: (caught, detail); ``caught`` is ``None`` when the gate did not run.
Verdict = Tuple[Optional[bool], str]


def load_seeds():
    """The corpus (loaded by path: ``lint_corpus`` names this script)."""
    spec = importlib.util.spec_from_file_location("lint_corpus_seeds", CORPUS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module.SEEDS


def apply_seed(seed, text: str) -> str:
    """``text`` with the seed's edits; ``ValueError`` if one is stale."""
    for old, new in seed.edits:
        if text.count(old) != 1:
            raise ValueError(f"{seed.id}: {seed.path} holds {text.count(old)} "
                             f"copies of {old[:50]!r}")
        text = text.replace(old, new)
    return text


def export(dest: Path) -> str:
    """Unpack the working tree into ``dest``; the commit archived."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    ref = stash or "HEAD"
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return ref


def _run(tree: Path, command: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(list(command), cwd=tree, env=env, capture_output=True,
                          text=True, timeout=timeout)


def gate_reprolint(tree: Path, _nodes: Sequence[str]) -> Verdict:
    done = _run(tree, [sys.executable, "-m", "repro.tools", "lint", "src",
                       "--usage", "tests", "--usage", "benchmarks"], 300)
    checks = sorted(set(re.findall(r"\[([a-z-]+)\]", done.stdout)))
    return done.returncode != 0, ", ".join(checks)


def gate_hashseed(tree: Path, _nodes: Sequence[str]) -> Verdict:
    done = _run(tree, [sys.executable, "scripts/hashseed_rows.py"], 900)
    lines = (done.stdout + done.stderr).strip().splitlines()
    return done.returncode != 0, lines[-1][:60] if done.returncode and lines else ""


def gate_tier1(tree: Path, nodes: Sequence[str]) -> Verdict:
    if not nodes:
        return None, ""
    # reprolint's own tests run reprolint, which has its own column.
    ignored = [f"--ignore=tests/{name}" for name in REPROLINT_TESTS]
    done = _run(tree, [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                       *ignored, *nodes], 3600)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return done.returncode != 0, failed[0] if failed else ""


def gate_tool(name: str, command: Sequence[str]) -> Callable[[Path, Sequence[str]], Verdict]:
    def gate(tree: Path, _nodes: Sequence[str]) -> Verdict:
        if shutil.which(name) is None:
            return None, ""
        done = _run(tree, command, 900)
        return done.returncode != 0, ""

    return gate


RUNNERS: Dict[str, Callable[[Path, Sequence[str]], Verdict]] = {
    "reprolint": gate_reprolint,
    "hashseed": gate_hashseed,
    "tier-1": gate_tier1,
    "ruff": gate_tool("ruff", ["ruff", "check", "src", "tests"]),
    "mypy": gate_tool("mypy", ["mypy"]),
}


def cell(verdict: Verdict) -> str:
    caught, detail = verdict
    if caught is None:
        return "n/a"
    if not caught:
        return "–"
    return f"caught ({detail})" if detail else "caught"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run the whole tier-1 suite for every seed")
    parser.add_argument("--seed", action="append", default=[], metavar="ID",
                        help="run only this seed (may repeat)")
    options = parser.parse_args(argv)

    seeds = [seed for seed in load_seeds() if not options.seed or seed.id in options.seed]
    if not seeds:
        parser.error(f"no seed named {options.seed}")

    def nodes_for(named: Sequence[str]) -> List[str]:
        return ["tests"] if options.full else sorted(set(named))

    with tempfile.TemporaryDirectory(prefix="lint-corpus-") as scratch:
        tree = Path(scratch)
        ref = export(tree)
        print(f"lint corpus: {len(seeds)} seed(s) on {ref[:12]}, "
              f"tier-1 {'full' if options.full else 'named nodes'}", file=sys.stderr)
        baseline_nodes = nodes_for([node for seed in seeds for node in seed.tests])
        broken = [gate for gate in GATES
                  if RUNNERS[gate](tree, baseline_nodes)[0]]
        if broken:
            print(f"lint corpus: the unseeded tree fails {broken}", file=sys.stderr)
            return 2

        print("| seed | group | expected | " + " | ".join(GATES) + " |")
        print("|---" * (3 + len(GATES)) + "|")
        uncaught, stale = [], []
        for seed in seeds:
            target = tree / seed.path
            original = target.read_text(encoding="utf-8")
            try:
                target.write_text(apply_seed(seed, original), encoding="utf-8")
            except ValueError as exc:
                stale.append(str(exc))
                continue
            try:
                verdicts = {gate: RUNNERS[gate](tree, nodes_for(seed.tests))
                            for gate in GATES}
            finally:
                target.write_text(original, encoding="utf-8")
            expected = seed.check or ", ".join(node.split("::")[-1] for node in seed.tests)
            print(f"| {seed.id} | {seed.group} | {expected} | "
                  + " | ".join(cell(verdicts[gate]) for gate in GATES) + " |", flush=True)
            if not any(caught for caught, _detail in verdicts.values()):
                uncaught.append(seed.id)
    for message in stale:
        print(f"lint corpus: stale seed: {message}", file=sys.stderr)
    if uncaught:
        print(f"lint corpus: caught by no gate: {', '.join(uncaught)}", file=sys.stderr)
    return 2 if stale else 1 if uncaught else 0


if __name__ == "__main__":
    raise SystemExit(main())
