"""reprolint: one focused test per per-file check, plus engine/CLI behaviour.

Each case gets three fixtures: a positive hit, a clean pass, and the
positive hit silenced by a suppression comment.  That the
real ``src`` tree lints clean is pinned in ``test_reprolint_v2.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.tools.engine import Module
from repro.tools.lint import CHECKS, lint_source, main

REPO_ROOT = Path(__file__).resolve().parents[1]

CORE = "src/repro/core/fixture.py"
SIM = "src/repro/sim/fixture.py"
WORKLOADS = "src/repro/workloads/fixture.py"
EXPERIMENTS = "src/repro/experiments/fixture.py"

#: case -> (bad source, virtual path, clean source, suppressed source).
#: A case is named by its check, except the two host-clock cases, which
#: keep the names of the two rules the ``clock`` check replaced.
RULE_CASES = {
    "unmanaged-random": (
        "import random\n",
        WORKLOADS,
        "from repro.sim.rng import SeededRng\n",
        "import random  # reprolint: disable=unmanaged-random\n",
    ),
    "wall-clock": (
        "import time\n\ndef stamp():\n    return time.time()\n",
        CORE,
        "def stamp(sim):\n    return sim.now\n",
        "import time\n\ndef stamp():\n    return time.time()  # reprolint: disable=clock\n",
    ),
    "float-equality": (
        "def idle(input_rate):\n    return input_rate == 0\n",
        CORE,
        "def idle(count):\n    return count == 0\n",
        "def idle(input_rate):\n"
        "    return input_rate == 0  # reprolint: disable=float-equality\n",
    ),
    "mutable-default": (
        "def gather(into=[]):\n    return into\n",
        CORE,
        "def gather(into=None):\n    return into or []\n",
        "def gather(into=[]):  # reprolint: disable=mutable-default\n    return into\n",
    ),
    "future-annotations": (
        "x = 1\n",
        CORE,
        "from __future__ import annotations\n\nx = 1\n",
        "x = 1  # reprolint: disable=future-annotations\n",
    ),
    "return-annotation": (
        "def topology():\n    return None\n",
        CORE,
        "def topology() -> None:\n    return None\n",
        "def topology():  # reprolint: disable=return-annotation\n    return None\n",
    ),
    "bare-except": (
        "try:\n    x = 1\nexcept:\n    pass\n",
        CORE,
        "try:\n    x = 1\nexcept ValueError:\n    pass\n",
        "try:\n    x = 1\nexcept:  # reprolint: disable=bare-except\n    pass\n",
    ),
    "allocator-signature": (
        "class GreedyAllocator:\n"
        "    def allocate(self, units, brokers):\n"
        "        return None\n",
        CORE,
        "class GreedyAllocator:\n"
        "    def allocate(self, units, pool, directory):\n"
        "        return None  # reprolint: disable=return-annotation\n",
        "class GreedyAllocator:\n"
        "    def allocate(self, units, brokers):  # reprolint: disable=allocator-signature\n"
        "        return None\n",
    ),
    "unpicklable-worker": (
        "def launch(pool, spec):\n"
        "    return pool.submit(lambda: spec)\n",
        EXPERIMENTS,
        "def run_spec(spec):\n"
        "    return spec\n"
        "\n"
        "def launch(pool, specs):\n"
        "    return [pool.submit(run_spec, spec) for spec in specs]\n",
        "def launch(pool, spec):\n"
        "    return pool.submit(lambda: spec)  # reprolint: disable=unpicklable-worker\n",
    ),
    "wall-clock-output": (
        "import time\n\ndef stamp():\n    return time.perf_counter()\n",
        EXPERIMENTS,
        "def stamp(sim):\n    return sim.now\n",
        "import time\n\ndef stamp():\n"
        "    return time.perf_counter()  # reprolint: disable=clock\n",
    ),
    "unused-import": (
        "import math\n\nx = 1\n",
        CORE,
        "import math\n\nx = math.pi\n",
        "import math  # reprolint: disable=unused-import\n\nx = 1\n",
    ),
}


#: The check each case exercises.
CASE_CHECK = {case: case for case in RULE_CASES}
CASE_CHECK.update({"wall-clock": "clock", "wall-clock-output": "clock"})


def findings_for(rule_name, source, path):
    return [finding for finding in lint_source(source, path=path)
            if finding.rule == rule_name]


@pytest.mark.parametrize("rule_name", sorted(RULE_CASES))
def test_rule_positive_hit(rule_name):
    bad, path, _clean, _suppressed = RULE_CASES[rule_name]
    assert findings_for(CASE_CHECK[rule_name], bad, path), (
        f"{rule_name} missed its fixture violation")


@pytest.mark.parametrize("rule_name", sorted(RULE_CASES))
def test_rule_clean_pass(rule_name):
    _bad, path, clean, _suppressed = RULE_CASES[rule_name]
    assert findings_for(CASE_CHECK[rule_name], clean, path) == []


@pytest.mark.parametrize("rule_name", sorted(RULE_CASES))
def test_rule_suppression_comment(rule_name):
    _bad, path, _clean, suppressed = RULE_CASES[rule_name]
    assert findings_for(CASE_CHECK[rule_name], suppressed, path) == []


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------


def test_unmanaged_random_allows_core_rng_itself():
    assert findings_for("unmanaged-random", "import random\n", "src/repro/core/rng.py") == []


def test_unmanaged_random_catches_from_imports():
    assert findings_for("unmanaged-random", "from random import shuffle\n", CORE)


def test_clock_flags_every_package_outside_the_allowlist():
    source = "import time\n\ndef stamp():\n    return time.time()\n"
    for path in (CORE, SIM, WORKLOADS, EXPERIMENTS, "src/repro/pubsub/metrics.py",
                 "src/repro/experiments/sweeps.py"):
        assert findings_for("clock", source, path), path


def test_clock_flags_a_read_whose_value_never_lands():
    """No value flows anywhere, so no flow analysis sees it; the read
    itself is the finding."""
    source = "import time\n\nflag = 0 if time.time() else 1\n"
    assert findings_for("clock", source, "src/repro/pubsub/metrics.py")


def test_wall_clock_catches_datetime_now():
    source = "import datetime\n\ndef stamp():\n    return datetime.datetime.now()\n"
    assert findings_for("clock", source, WORKLOADS)


def test_float_equality_flags_float_literals():
    assert findings_for("float-equality", "ok = value == 0.0\n", EXPERIMENTS)


def test_float_equality_ignores_orderings():
    source = "def fits(rate, max_rate):\n    return rate <= max_rate\n"
    assert findings_for("float-equality", source, CORE) == []


def test_return_annotation_only_in_core():
    source = "def topology():\n    return None\n"
    assert findings_for("return-annotation", source, EXPERIMENTS) == []
    assert findings_for("return-annotation", "def _private():\n    pass\n", CORE) == []


def test_allocator_signature_accepts_repo_allocators():
    source = (
        "class FbfAllocator:\n"
        "    def allocate(self, units, pool, directory):\n"
        "        return None\n"
    )
    findings = findings_for("allocator-signature", source, CORE)
    assert findings == []


def _core_allocate_sites():
    """(path, class name, ``pool`` arg node) per ``def allocate(`` in core."""
    for path in sorted((REPO_ROOT / "src" / "repro" / "core").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "allocate":
                    yield path, node.name, item.args.args[2]


CORE_ALLOCATE_SITES = list(_core_allocate_sites())


def test_core_allocate_sites_discovered():
    # An empty parametrisation below would pass vacuously.
    assert CORE_ALLOCATE_SITES


@pytest.mark.parametrize(
    "path, class_name, pool_arg",
    CORE_ALLOCATE_SITES,
    ids=[site[1] for site in CORE_ALLOCATE_SITES],
)
def test_allocator_signature_owns_every_core_allocate(path, class_name, pool_arg):
    """The per-file rule is the single owner of the allocate() contract:
    renaming a parameter of *any* allocator class in core/ — registered
    through a builder or not — must be reported."""
    assert pool_arg.arg == "pool"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = pool_arg.lineno - 1
    lines[row] = (
        lines[row][: pool_arg.col_offset]
        + "brokers"
        + lines[row][pool_arg.col_offset + len("pool"):]
    )
    findings = findings_for("allocator-signature", "".join(lines), str(path))
    assert [finding.message.split(".allocate")[0] for finding in findings] == [
        class_name
    ], findings


def test_wall_clock_output_allows_audited_modules():
    source = "import time\n\ndef stamp():\n    return time.perf_counter()\n"
    for path in (
        "src/repro/obs/recorder.py",
        "src/repro/obs/fixture.py",
        "src/repro/core/croc.py",
        "src/repro/experiments/runner.py",
    ):
        assert findings_for("clock", source, path) == [], path
        assert findings_for("clock", source.replace("perf_counter", "time"), path) == []


def test_wall_clock_output_flags_every_monotonic_timer():
    for call in ("time.monotonic()", "time.perf_counter_ns()", "time.process_time()"):
        source = f"import time\n\ndef stamp():\n    return {call}\n"
        assert findings_for("clock", source, CORE), call


def test_wall_clock_output_ignores_sim_clock_reads():
    source = "def stamp(sim):\n    return sim.now\n"
    for path in (CORE, SIM, EXPERIMENTS):
        assert findings_for("clock", source, path) == [], path


def test_unpicklable_worker_flags_nested_function():
    source = (
        "def launch(pool):\n"
        "    def work():\n"
        "        return 1\n"
        "    return pool.submit(work)\n"
    )
    findings = findings_for("unpicklable-worker", source, EXPERIMENTS)
    assert findings and "locally defined function 'work'" in findings[0].message


def test_unpicklable_worker_flags_lambda_valued_name():
    source = "work = lambda: 1\n\ndef launch(pool):\n    return pool.submit(work)\n"
    findings = findings_for("unpicklable-worker", source, EXPERIMENTS)
    assert findings and "lambda-valued name 'work'" in findings[0].message


def test_unpicklable_worker_flags_pool_constructor_kwargs():
    for source in (
        "def boot(snapshot):\n"
        "    return ProcessPoolExecutor(initializer=lambda: snapshot)\n",
        "def boot():\n"
        "    def init():\n"
        "        return None\n"
        "    return multiprocessing.Process(target=init)\n",
    ):
        assert findings_for("unpicklable-worker", source, EXPERIMENTS), source


def test_unpicklable_worker_ignores_non_pool_callables():
    for source in (
        # lambdas to plain containers / non-pool methods are fine
        "def gather(out):\n    out.append(lambda: 1)\n",
        # sorting keys, progress callbacks, etc. are not pool workers
        "def order(rows):\n    return sorted(rows, key=lambda row: row[0])\n",
        # module-level initializer is picklable by reference
        "def init():\n    return None\n"
        "\n"
        "def boot():\n"
        "    return ProcessPoolExecutor(initializer=init)\n",
    ):
        assert findings_for("unpicklable-worker", source, EXPERIMENTS) == [], source


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------


def test_disable_file_suppresses_everywhere():
    source = (
        "# reprolint: disable-file=bare-except\n"
        "try:\n    x = 1\nexcept:\n    pass\n"
        "try:\n    y = 2\nexcept:\n    pass\n"
    )
    assert findings_for("bare-except", source, CORE) == []


def test_disable_all_suppresses_every_rule():
    source = "import random  # reprolint: disable=all\n"
    assert lint_source(source, path=WORKLOADS) == []


def test_registry_matches_rule_cases():
    passes = {"api-contract", "determinism-taint", "layering"}
    assert set(CHECKS) == set(CASE_CHECK.values()) | passes


def test_module_package_parts_fallback():
    module = Module("x = 1\n", "fixture.py")
    assert module.package_parts == ("fixture.py",)
    assert not module.in_package("core")


def test_findings_sorted_and_located():
    source = "import random\n\n\ndef gather(into=[]):\n    return into\n"
    findings = lint_source(source, path=WORKLOADS)
    assert findings == sorted(findings, key=lambda finding: finding.sort_key)
    located = [(finding.rule, finding.line) for finding in findings
               if finding.rule in ("unmanaged-random", "mutable-default")]
    assert located == [("unmanaged-random", 1), ("mutable-default", 4)]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def write_fixture(tmp_path, name, source):
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


def test_cli_exits_nonzero_per_rule(tmp_path, capsys):
    for index, (rule_name, case) in enumerate(sorted(RULE_CASES.items())):
        bad, path, _clean, _suppressed = case
        target = write_fixture(tmp_path / str(index), path, bad)
        code = main([str(target)])
        out = capsys.readouterr().out
        assert code == 1, rule_name
        assert f"[{CASE_CHECK[rule_name]}]" in out


def test_cli_clean_file_exits_zero(tmp_path, capsys):
    target = write_fixture(
        tmp_path, "clean.py", "from __future__ import annotations\n\nx = 1\n"
    )
    assert main([str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "error" in capsys.readouterr().err

