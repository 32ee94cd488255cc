"""Every corpus seed that reprolint is expected to catch is still caught.

The seeds of ``tests/lint_corpus/seeds.py`` are replayed in-process: the
seeded file is linted as a one-module project next to its unseeded
text, and the seed's check must report a finding the original does not.
``tests/lint_corpus.py`` runs the other gates on an exported tree.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from lint_corpus import apply_seed, load_seeds
from repro.tools.lint import CHECKS, lint_source

REPO_ROOT = Path(__file__).resolve().parents[1]
SEEDS = load_seeds()
LINTED = [seed for seed in SEEDS if seed.check is not None]


def _findings(text, path):
    return Counter((finding.rule, finding.message) for finding in lint_source(text, path))


@pytest.mark.parametrize("seed", LINTED, ids=[seed.id for seed in LINTED])
def test_reprolint_catches_its_seeds(seed):
    original = (REPO_ROOT / seed.path).read_text(encoding="utf-8")
    new = _findings(apply_seed(seed, original), seed.path) - _findings(original, seed.path)
    assert seed.check in {rule for rule, _message in new}, sorted(new)


def test_every_check_and_pin_has_a_seed():
    assert {seed.check for seed in LINTED} >= set(CHECKS)
    ids = [seed.id for seed in SEEDS]
    assert len(ids) == len(set(ids))
    config = (REPO_ROOT / "tests" / "test_config.py").read_text(encoding="utf-8")
    pins = {line.split("(")[0][4:] for line in config.splitlines()
            if line.startswith("def test_")}
    seeded = {node.split("::")[-1] for seed in SEEDS for node in seed.tests}
    assert pins - seeded == {"test_runconfig_validates_and_feeds_builders"}
