"""Edge paths of the whole-program reprolint machinery: CLI dispatch and
option plumbing, and the less-travelled analyzer branches."""

from __future__ import annotations

import pytest

from repro.tools.__main__ import main as tools_main
from repro.tools.engine import LintError
from repro.tools.lint import CHECKS, run_lint
from repro.tools.project import ParseFailure, Project


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


def test_tools_main_dispatches_lint(tmp_path, capsys):
    _write_tree(tmp_path, {
        "src/repro/core/up.py":
            "from __future__ import annotations\n"
            "from repro.experiments.runner import run_experiment\n"
            "entry = run_experiment\n",
    })
    assert tools_main(["lint", str(tmp_path / "src")]) == 1
    assert "[layering]" in capsys.readouterr().out


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
    findings = list(CHECKS["layering"](project))
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
    findings = list(CHECKS["layering"](project))
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
    findings = list(CHECKS["layering"](project))
    assert any("tools" in f.message for f in findings)


# ----------------------------------------------------------------------
# Contracts: binding scans
# ----------------------------------------------------------------------


def _contract_findings(tmp_path, body):
    _write_tree(tmp_path, {"src/repro/core/mod.py": body})
    project, failures = Project.load([tmp_path / "src"])
    assert failures == []
    return list(CHECKS["api-contract"](project))


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
