"""Edge paths of the whole-program reprolint machinery: CLI dispatch and
option plumbing, and the less-travelled analyzer branches."""

from __future__ import annotations

import pytest

from repro.tools.__main__ import main as tools_main
from repro.tools.engine import LintError
from repro.tools.lint import main, run_lint
from repro.tools.project import ParseFailure, Project, resolve_passes, run_passes


def _write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


# ----------------------------------------------------------------------
# python -m repro.tools dispatch
# ----------------------------------------------------------------------


def test_tools_main_usage_and_unknown_command(capsys):
    assert tools_main([]) == 0
    assert "usage:" in capsys.readouterr().out
    assert tools_main(["--help"]) == 0
    capsys.readouterr()
    assert tools_main(["frobnicate"]) == 2
    assert "unknown command" in capsys.readouterr().err


def test_tools_main_dispatches_lint(capsys):
    assert tools_main(["lint", "--list-rules"]) == 0
    assert "unmanaged-random" in capsys.readouterr().out


def test_list_passes(capsys):
    assert main(["--list-passes"]) == 0
    out = capsys.readouterr().out
    assert "layering" in out and "determinism-taint" in out


# ----------------------------------------------------------------------
# CLI option plumbing
# ----------------------------------------------------------------------


def test_passes_none_disables_project_passes(tmp_path, capsys):
    _write_tree(tmp_path, {
        "src/repro/core/up.py":
            "from __future__ import annotations\n"
            "from repro.experiments.runner import run_experiment\n"
            "entry = run_experiment\n",
    })
    assert main([str(tmp_path / "src"), "--passes", "none"]) == 0
    capsys.readouterr()
    assert main([str(tmp_path / "src"), "--passes", "layering"]) == 1
    capsys.readouterr()


def test_unknown_pass_and_rule_are_usage_errors(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("from __future__ import annotations\n")
    assert main([str(target), "--passes", "no-such-pass"]) == 2
    assert main([str(target), "--select", "no-such-rule"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# Layering: undeclared packages and the root facade
# ----------------------------------------------------------------------


def test_undeclared_package_is_flagged(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/widgets/thing.py":
            "from __future__ import annotations\n"
            "from repro.core.units import EPSILON\n",
    })
    project, _ = Project.load([tmp_path / "src"])
    findings = run_passes(project, resolve_passes(["layering"]))
    assert any("not declared in the layering DAG" in f.message for f in findings)


def test_subpackage_may_not_import_root_facade(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py":
            "from __future__ import annotations\nVERSION = '1'\n",
        "src/repro/core/uses_root.py":
            "from __future__ import annotations\n"
            "import repro\n"
            "v = repro.VERSION\n",
    })
    project, _ = Project.load([tmp_path / "src"])
    findings = run_passes(project, resolve_passes(["layering"]))
    assert any("public facade" in f.message for f in findings)


def test_root_may_not_import_tools(tmp_path):
    _write_tree(tmp_path, {
        "src/repro/__init__.py":
            "from __future__ import annotations\n"
            "from repro.tools.engine import Finding\n",
        "src/repro/tools/engine.py":
            "from __future__ import annotations\nFinding = object\n",
    })
    project, _ = Project.load([tmp_path / "src"])
    findings = run_passes(project, resolve_passes(["layering"]))
    assert any("tools" in f.message for f in findings)


# ----------------------------------------------------------------------
# Contracts: binding scans
# ----------------------------------------------------------------------


def _contract_findings(tmp_path, body):
    _write_tree(tmp_path, {"src/repro/core/mod.py": body})
    project, failures = Project.load([tmp_path / "src"])
    assert failures == []
    return run_passes(project, resolve_passes(["api-contract"]))


def test_all_consistency_sees_loop_and_try_bindings(tmp_path):
    findings = _contract_findings(
        tmp_path,
        "from __future__ import annotations\n"
        "for item in (1, 2):\n"
        "    looped = item\n"
        "try:\n"
        "    import json as maybe_json\n"
        "except ImportError:\n"
        "    maybe_json = None\n"
        "with open('/dev/null') as handle:\n"
        "    pass\n"
        "count = 0\n"
        "count += 1\n"
        "__all__ = ['looped', 'maybe_json', 'count', 'handle']\n",
    )
    # All four names are bound somewhere at module level: no
    # not-bound findings (dead-export findings are fine — the fixture
    # has no other modules).
    assert not any("not bound" in f.message for f in findings)


# ----------------------------------------------------------------------
# Engine / project odds and ends
# ----------------------------------------------------------------------


def test_lint_missing_path_raises():
    with pytest.raises(LintError, match="no such file"):
        run_lint(["/definitely/not/here"])


def test_parse_failure_str_and_project_resolution(tmp_path):
    failure = ParseFailure("a.py", "boom")
    assert str(failure) == "a.py: boom"
    _write_tree(tmp_path, {
        "src/repro/core/a.py":
            "from __future__ import annotations\n"
            "from repro.core.b import thing\n",
        "src/repro/core/b.py":
            "from __future__ import annotations\n"
            "from external.place import thing\n",
    })
    project, _ = Project.load([tmp_path / "src"])
    # Chain ends outside the tree: resolution gives up, not crashes.
    assert project.resolve_name("repro.core.a", "thing") is None
    assert project.resolve_target("repro.nowhere.at.all") is None
