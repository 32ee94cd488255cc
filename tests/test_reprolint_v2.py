"""Whole-program reprolint: layering, taint, contracts, driver.

Fixture trees under ``tests/data/lint/`` each seed one family of
violations; the tests here pin that every pass catches its seeded
defect (and stays silent on the sanitized twin), that the import graph
is order-independent, that the real tree is clean, and that the
driver's surface and exit codes hold.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tools
from repro.tools.layering import allowed_imports
from repro.tools.lint import LintRun, build_parser, main, run_lint
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
    messages = sorted(finding.message for finding in findings)
    assert messages == [
        "__all__ exports 'ghost_export' which is not bound at module level",
        "dead export: __all__ lists 'UnusedExport' but no other module "
        "(src, tests, or benchmarks) references it",
        "dead export: __all__ lists 'ghost_export' but no other module "
        "(src, tests, or benchmarks) references it",
    ]


def test_real_tree_is_clean():
    # Exactly what scripts/check.sh gates on.
    run = run_lint(["src"], usage_paths=["tests", "benchmarks"])
    assert run.parse_failures == []
    assert run.checked > 50
    assert run.findings == [], "\n".join(str(finding) for finding in run.findings)


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
# Exit codes and parse-failure collection
# ----------------------------------------------------------------------


def test_parse_failure_collected_and_exit_two(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("from __future__ import annotations\n\nx = 1\n")
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    code = main([str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("[parse-error]") == 1
    assert "broken.py" in out
    # The good file was still linted — collection, not abortion.
    assert "1 file(s) checked, 0 finding(s), 1 parse failure(s)" in out


def test_exit_one_on_findings_and_zero_when_clean(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("from __future__ import annotations\n\nx = 1\n")
    assert main([str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import os\n\nx = 1\n")
    assert main([str(dirty)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# The tooling surface, pinned the way test_config.py pins RunConfig
# ----------------------------------------------------------------------


def test_cli_exposes_exactly_five_options():
    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
    }
    assert options - {"-h", "--help"} == {
        "--select", "--passes", "--usage", "--list-rules", "--list-passes",
    }


def test_lint_run_has_exactly_five_fields():
    assert [f.name for f in dataclasses.fields(LintRun)] == [
        "findings", "parse_failures", "checked", "rule_names", "pass_names",
    ]


def test_deleted_tool_modules_stay_deleted():
    present = {path.stem for path in Path(repro.tools.__file__).parent.glob("*.py")}
    assert not present & {"cache", "baseline", "autofix", "output"}
