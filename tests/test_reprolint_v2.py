"""Whole-program reprolint v2: layering, taint, contracts, driver.

Fixture trees under ``tests/data/lint/`` each seed one family of
violations; the tests here pin that every pass catches its seeded
defect (and stays silent on the sanitized twin), that the import graph
is order-independent, that the cache changes nothing, and that the
driver's exit-code and baseline semantics hold.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tools.autofix import FixError, fix_source, fix_source_checked
from repro.tools.baseline import apply_baseline, load_baseline
from repro.tools.engine import Finding, LintError
from repro.tools.layering import allowed_imports, graph_report
from repro.tools.lint import main, run_lint
from repro.tools.project import Project, module_name_for, resolve_passes, run_passes

DATA = Path(__file__).parent / "data" / "lint"


def pass_findings(tree, pass_name):
    project, failures = Project.load([DATA / tree])
    assert failures == []
    return run_passes(project, resolve_passes([pass_name]))


# ----------------------------------------------------------------------
# Golden fixtures: each pass catches its seeded violation
# ----------------------------------------------------------------------


def test_taint_reaches_every_sink_class():
    findings = pass_findings("taint", "determinism-taint")
    messages = [finding.message for finding in findings]
    assert any("allocation decision" in message for message in messages)
    assert any("print()" in message for message in messages)
    assert any("metrics row" in message for message in messages)
    # Cross-function propagation: as_row() leaks env taint born in env_row().
    assert any(
        "as_row() return" in message and "env" in message for message in messages
    )
    assert all("leaky.py" in finding.path for finding in findings)


def test_taint_sanitized_twin_is_clean():
    findings = pass_findings("taint", "determinism-taint")
    assert not any("sanitized.py" in finding.path for finding in findings)


def test_layering_flags_upward_import_and_cycle():
    findings = pass_findings("layering", "layering")
    messages = [finding.message for finding in findings]
    assert any("core may not import experiments" in message for message in messages)
    assert any("import-time cycle" in message for message in messages)


def test_contract_fixture_flags_all_families():
    findings = pass_findings("contracts", "api-contract")
    messages = [finding.message for finding in findings]
    assert any("builder is a lambda" in message for message in messages)
    assert any(
        "('self', 'units', 'brokers')" in message for message in messages
    )
    assert any("not bound at module level" in message for message in messages)
    assert any("dead export" in message for message in messages)
    # AllocatorSpec shapes: literal capability sets use the vocabulary.
    assert any("capability 'telepathic'" in message for message in messages)
    assert not any(
        "capability 'incremental'" in message for message in messages
    )
    # A builder name no module defines cannot be pickled by reference.
    assert any(
        "'ghost_maker' does not resolve" in message for message in messages
    )
    # Energy model: raw comparisons in float-returning *energy*/*watts*
    # functions are caught ...
    assert any(
        "'idle_energy_joules'" in message and "raw comparison" in message
        for message in messages
    )
    assert any("'peak_watts'" in message for message in messages)
    # ... while routed comparisons, non-energy names, and non-float
    # returns all stay clean.
    assert not any("'mean_watts'" in message for message in messages)
    assert not any("'mean_delay_ms'" in message for message in messages)
    assert not any("'energy_label'" in message for message in messages)


def test_real_tree_is_clean_modulo_baseline():
    run = run_lint(
        ["src"],
        usage_paths=["tests", "benchmarks"],
        baseline_path=Path("reprolint-baseline.json"),
    )
    assert run.parse_failures == []
    assert run.findings == []
    assert run.suppressed == 0  # the committed baseline has no entries


# ----------------------------------------------------------------------
# Graph model
# ----------------------------------------------------------------------


def test_module_name_for_anchors_at_repro():
    assert module_name_for("src/repro/core/croc.py") == "repro.core.croc"
    assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
    assert (
        module_name_for("tests/data/lint/layering/src/repro/core/upward.py")
        == "repro.core.upward"
    )


def test_layering_policy_table():
    assert allowed_imports("core") == frozenset({"obs"})
    assert allowed_imports("experiments") == frozenset(
        {"core", "sim", "pubsub", "workloads", "obs"}
    )
    assert allowed_imports("obs") == frozenset()
    assert allowed_imports("tools") == frozenset()


def test_type_checking_imports_do_not_form_cycles():
    project, _ = Project.load(["src/repro/core"])
    assert project.import_cycles() == []


def test_from_package_import_submodule_resolves_to_submodule():
    project, _ = Project.load(["src/repro/obs"])
    edges = project.module_edges(include_lazy=False)
    assert ("repro.obs.collect", "repro.obs.recorder") in edges
    assert ("repro.obs.collect", "repro.obs") not in edges


def test_graph_report_mentions_every_package_edge():
    project, _ = Project.load(["src"])
    report = graph_report(project)
    assert "import-time cycles: none" in report
    assert "experiments  → core" in report


@settings(max_examples=25)
@given(st.randoms(use_true_random=False))
def test_import_graph_is_visit_order_independent(rng):
    files = sorted(
        str(path) for path in (DATA / "layering").rglob("*.py")
    ) + sorted(str(path) for path in Path("src/repro/sim").rglob("*.py"))
    shuffled = list(files)
    rng.shuffle(shuffled)
    base, failures_a = Project.load(files)
    permuted, failures_b = Project.load(shuffled)
    assert failures_a == failures_b == []
    assert base.module_edges() == permuted.module_edges()
    assert base.import_cycles() == permuted.import_cycles()
    assert list(base.modules) == list(permuted.modules)
    assert run_passes(base, resolve_passes(["layering"])) == run_passes(
        permuted, resolve_passes(["layering"])
    )


# ----------------------------------------------------------------------
# Cache correctness: warm == cold, byte for byte
# ----------------------------------------------------------------------


def test_cache_warm_equals_cold(tmp_path):
    cache_file = tmp_path / "cache.json"
    cold = run_lint(
        ["src"], usage_paths=["tests", "benchmarks"], cache_path=cache_file
    )
    first_snapshot = cache_file.read_bytes()
    warm = run_lint(
        ["src"], usage_paths=["tests", "benchmarks"], cache_path=cache_file
    )
    assert warm.findings == cold.findings
    assert warm.parse_failures == cold.parse_failures
    assert warm.checked == cold.checked
    assert cache_file.read_bytes() == first_snapshot
    assert warm.cache_misses == 0
    assert warm.cache_hits > 0


def test_cache_invalidated_by_file_edit(tmp_path):
    source_dir = tmp_path / "src" / "repro" / "core"
    source_dir.mkdir(parents=True)
    target = source_dir / "thing.py"
    target.write_text(
        "from __future__ import annotations\n\nx = 1\n", encoding="utf-8"
    )
    cache_file = tmp_path / "cache.json"
    clean = run_lint([str(target)], cache_path=cache_file)
    assert clean.findings == []
    target.write_text("import random\nx = 1\n", encoding="utf-8")
    dirty = run_lint([str(target)], cache_path=cache_file)
    assert dirty.findings, "edited file must re-lint, not replay the cache"


# ----------------------------------------------------------------------
# Exit codes and parse-failure collection
# ----------------------------------------------------------------------


def test_parse_failure_collected_and_exit_two(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("from __future__ import annotations\n\nx = 1\n")
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    code = main([str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert len(payload["parse_failures"]) == 1
    assert "broken.py" in payload["parse_failures"][0]["path"]
    # The good file was still linted — collection, not abortion.
    assert payload["checked_files"] == 1


def test_exit_one_on_findings_and_zero_when_clean(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("from __future__ import annotations\n\nx = 1\n")
    assert main([str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\n\nx = 1\n")
    assert main([str(dirty)]) == 1
    capsys.readouterr()


def test_sarif_output_shape(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\n\nx = 1\n")
    main([str(dirty), "--format", "sarif"])
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    assert run["results"], "findings must appear as SARIF results"
    indexed = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {result["ruleId"] for result in run["results"]} <= indexed


# ----------------------------------------------------------------------
# Baseline semantics
# ----------------------------------------------------------------------


def _write_baseline(tmp_path, entries):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 1, "entries": entries}))
    return path


def test_baseline_requires_justification(tmp_path):
    path = _write_baseline(
        tmp_path,
        [{"rule": "api-contract", "path": "x.py", "contains": "z",
          "justification": ""}],
    )
    with pytest.raises(LintError, match="justification"):
        load_baseline(path)


def test_baseline_rejects_layering_entries(tmp_path):
    path = _write_baseline(
        tmp_path,
        [{"rule": "layering", "path": "x.py", "contains": "z",
          "justification": "because"}],
    )
    with pytest.raises(LintError, match="layering"):
        load_baseline(path)


def test_stale_baseline_entry_becomes_finding(tmp_path):
    path = _write_baseline(
        tmp_path,
        [{"rule": "api-contract", "path": "gone.py", "contains": "nothing",
          "justification": "was fixed long ago"}],
    )
    entries = load_baseline(path)
    remaining, suppressed = apply_baseline([], entries, str(path))
    assert suppressed == 0
    assert [finding.rule for finding in remaining] == ["stale-baseline"]


def test_baseline_suppresses_matching_finding(tmp_path):
    finding = Finding("pkg/mod.py", 3, 0, "api-contract", "builder is a lambda")
    path = _write_baseline(
        tmp_path,
        [{"rule": "api-contract", "path": "pkg/mod.py", "contains": "lambda",
          "justification": "audited: replay path"}],
    )
    remaining, suppressed = apply_baseline(
        [finding], load_baseline(path), str(path)
    )
    assert remaining == []
    assert suppressed == 1


def test_committed_baseline_is_valid_and_live():
    # Loads, and nothing in src/ needs an audited exception any more.
    assert load_baseline(Path("reprolint-baseline.json")) == []


# ----------------------------------------------------------------------
# Autofix: fix-then-relint idempotency
# ----------------------------------------------------------------------


def test_fix_adds_future_and_removes_unused_import():
    fixed, result = fix_source_checked(
        '"""Doc."""\n\nimport os\nimport sys\n\nprint(sys.argv)\n'
    )
    assert "from __future__ import annotations" in fixed
    assert "import os" not in fixed
    assert result.added_future and result.removed_imports == 1
    again, second = fix_source(fixed)
    assert again == fixed and not second.changed


def test_fix_trims_multi_name_import():
    fixed, _ = fix_source_checked(
        "from __future__ import annotations\n"
        "from typing import Dict, List, Optional\n\n"
        "x: Dict[str, List[int]] = {}\n"
    )
    assert "from typing import Dict, List\n" in fixed
    assert "Optional" not in fixed


def test_fix_suppressed_import_survives():
    source = (
        "from __future__ import annotations\n"
        "import os  # reprolint: disable=unused-import (side effect)\n\n"
        "x = 1\n"
    )
    fixed, result = fix_source_checked(source)
    assert fixed == source and not result.changed


def test_fix_error_is_a_lint_error():
    assert issubclass(FixError, LintError)


def test_fix_preserves_re_export_convention():
    source = (
        "from __future__ import annotations\n"
        "from pkg import thing as thing\n"
    )
    fixed, result = fix_source(source)
    assert fixed == source and not result.changed


def test_cli_fix_rewrites_in_place(tmp_path, capsys):
    target = tmp_path / "messy.py"
    target.write_text("import os\nimport sys\n\nprint(sys.argv)\n")
    code = main([str(target), "--fix"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rewrote 1 file(s)" in out
    text = target.read_text()
    assert "from __future__ import annotations" in text
    assert "import os" not in text
