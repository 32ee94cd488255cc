"""Edge paths of the reprolint v2 machinery: CLI dispatch, graph mode,
cache robustness, baseline validation errors, autofix rewriting shapes,
and the less-travelled analyzer branches."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.tools.__main__ import main as tools_main
from repro.tools.autofix import fix_paths, fix_source, fix_source_checked
from repro.tools.baseline import load_baseline
from repro.tools.cache import LintCache, tool_signature
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
# --graph and CLI option plumbing
# ----------------------------------------------------------------------


def test_graph_mode_reports_and_exits_clean(tmp_path, capsys):
    _write_tree(tmp_path, {
        "src/repro/core/a.py": "from __future__ import annotations\n",
    })
    assert main(["--graph", str(tmp_path / "src")]) == 0
    assert "import-time cycles: none" in capsys.readouterr().out


def test_graph_mode_parse_failure_exits_two(tmp_path, capsys):
    _write_tree(tmp_path, {"src/repro/core/bad.py": "def broken(:\n"})
    assert main(["--graph", str(tmp_path / "src")]) == 2
    assert "parse failure" in capsys.readouterr().err


def test_output_flag_writes_report_file(tmp_path, capsys):
    target = tmp_path / "clean.py"
    target.write_text("from __future__ import annotations\n\nx = 1\n")
    report = tmp_path / "report.sarif"
    assert main([str(target), "--format", "sarif",
                 "--output", str(report)]) == 0
    assert json.loads(report.read_text())["version"] == "2.1.0"
    capsys.readouterr()
    text_report = tmp_path / "report.txt"
    assert main([str(target), "--output", str(text_report)]) == 0
    assert "clean" in text_report.read_text()
    # Text mode still echoes the one-line summary to stdout.
    assert "clean" in capsys.readouterr().out


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


def test_baseline_flag_error_surfaces_as_exit_two(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("from __future__ import annotations\n")
    missing = tmp_path / "nope.json"
    assert main([str(target), "--baseline", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


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


def test_graph_report_lists_cycles(tmp_path, capsys):
    _write_tree(tmp_path, {
        "src/repro/core/ca.py":
            "from __future__ import annotations\n"
            "from repro.core.cb import b\na = b\n",
        "src/repro/core/cb.py":
            "from __future__ import annotations\n"
            "from repro.core.ca import a\nb = 1\n",
    })
    assert main(["--graph", str(tmp_path / "src"), "--passes", "none"]) == 0
    out = capsys.readouterr().out
    assert "import-time cycles:" in out
    assert "repro.core.ca" in out and "repro.core.cb" in out


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
# Contracts: builder shapes and binding scans
# ----------------------------------------------------------------------


def _contract_findings(tmp_path, body):
    _write_tree(tmp_path, {"src/repro/core/mod.py": body})
    project, failures = Project.load([tmp_path / "src"])
    assert failures == []
    return run_passes(project, resolve_passes(["api-contract"]))


def test_dotted_register_with_keyword_lambda(tmp_path):
    findings = _contract_findings(
        tmp_path,
        "from __future__ import annotations\n"
        "import repro.core.allocators\n"
        "repro.core.allocators.AllocatorSpec('x', builder=lambda **_: None)\n",
    )
    assert any("lambda" in f.message for f in findings)


def test_unresolvable_builder_call_is_flagged(tmp_path):
    findings = _contract_findings(
        tmp_path,
        "from __future__ import annotations\n"
        "from repro.core import allocators\n"
        "from somewhere import factory\n"
        "allocators.AllocatorSpec('x', factory())\n",
    )
    assert any("not" in f.message and "resolvable" in f.message
               for f in findings)


def test_opaque_builder_expression_is_flagged(tmp_path):
    findings = _contract_findings(
        tmp_path,
        "from __future__ import annotations\n"
        "from repro.core import allocators\n"
        "import somewhere\n"
        "allocators.AllocatorSpec('x', somewhere.builders['x'])\n",
    )
    assert any("not statically resolvable" in f.message for f in findings)


def test_lambda_valued_name_builder_is_flagged(tmp_path):
    findings = _contract_findings(
        tmp_path,
        "from __future__ import annotations\n"
        "from repro.core import allocators\n"
        "make = lambda **_: None\n"
        "allocators.AllocatorSpec('x', make)\n",
    )
    assert any("lambda-valued name" in f.message for f in findings)


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
# Cache robustness
# ----------------------------------------------------------------------


def test_corrupt_cache_file_is_discarded(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{ not json")
    target = tmp_path / "m.py"
    target.write_text("from __future__ import annotations\n\nx = 1\n")
    run = run_lint([str(target)], cache_path=cache_file)
    assert run.findings == [] and run.cache_misses >= 1
    # And the rewritten cache is valid from then on.
    again = run_lint([str(target)], cache_path=cache_file)
    assert again.cache_misses == 0


def test_stale_tool_signature_invalidates_cache(tmp_path):
    cache_file = tmp_path / "cache.json"
    target = tmp_path / "m.py"
    target.write_text("from __future__ import annotations\n\nx = 1\n")
    run_lint([str(target)], cache_path=cache_file)
    payload = json.loads(cache_file.read_text())
    payload["tool"] = "not-the-real-one"
    cache_file.write_text(json.dumps(payload))
    rerun = run_lint([str(target)], cache_path=cache_file)
    assert rerun.cache_misses >= 1
    assert json.loads(cache_file.read_text())["tool"] == tool_signature()


def test_cache_wrong_shape_is_discarded(tmp_path):
    cache_file = tmp_path / "cache.json"
    cache_file.write_text(json.dumps(["not", "a", "dict"]))
    cache = LintCache(cache_file)
    assert cache.get_file("x.py", "deadbeef", "sig") is None


# ----------------------------------------------------------------------
# Baseline loader errors
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload",
    [
        "{ not json",
        json.dumps({"version": 99, "entries": []}),
        json.dumps(["no-object"]),
        json.dumps({"version": 1, "entries": {"not": "a list"}}),
        json.dumps({"version": 1, "entries": ["not-an-object"]}),
    ],
)
def test_baseline_rejects_malformed_files(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(payload)
    with pytest.raises(LintError):
        load_baseline(path)


def test_baseline_missing_file_raises(tmp_path):
    with pytest.raises(LintError, match="cannot read"):
        load_baseline(tmp_path / "absent.json")


# ----------------------------------------------------------------------
# Autofix rewriting shapes
# ----------------------------------------------------------------------


def test_fix_wraps_long_from_import():
    long_names = [f"name_{i:02d}" for i in range(8)]
    source = (
        "from __future__ import annotations\n"
        f"from pkg.subpkg.deeply.nested import {', '.join(long_names)}, unused_tail\n"
        + "\n"
        + "\n".join(f"x{i} = {name}" for i, name in enumerate(long_names))
        + "\n"
    )
    fixed, result = fix_source_checked(source)
    assert result.removed_imports == 1
    assert "unused_tail" not in fixed
    assert "(\n" in fixed  # rebuilt as a wrapped multi-line import


def test_fix_trims_plain_import_list():
    fixed, result = fix_source_checked(
        "from __future__ import annotations\n"
        "import json, sys\n\n"
        "print(json.dumps([]))\n"
    )
    assert result.removed_imports == 1
    assert "import json\n" in fixed and "sys" not in fixed


def test_fix_inserts_future_after_comment_header():
    fixed, _ = fix_source("#!/usr/bin/env python\n# a header comment\n\nx = 1\n")
    lines = fixed.splitlines()
    assert lines[0].startswith("#!")
    assert "from __future__ import annotations" in lines


def test_fix_paths_leaves_unchanged_files_alone(tmp_path):
    target = tmp_path / "ok.py"
    content = "from __future__ import annotations\n\nx = 1\n"
    target.write_text(content)
    before = target.stat().st_mtime_ns
    results = fix_paths([target])
    assert not results[0].changed
    assert target.stat().st_mtime_ns == before


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
