"""The lint corpus: one seeded defect per check, structural pin and hazard.

Each :class:`Seed` is a set of exact text edits to one file of the
repository.  ``tests/lint_corpus.py`` applies a seed to an exported copy
of the tree and records which gates fail on it; ``check`` names the
reprolint check expected to flag it (``tests/test_lint_corpus.py``
replays those in-process), ``tests`` the tier-1 nodes expected to fail.

Groups:

* ``rule`` — one seed per per-file rule reprolint had before its checks
  were merged (``wall-clock`` and ``wall-clock-output`` are both
  ``clock`` seeds now);
* ``pass`` — one per whole-program pass;
* ``pin`` — one per structural pin in ``tests/test_config.py``;
* ``hazard`` — each determinism hazard twice, placed before any gate was
  run: once in ``MetricsSummary.as_row`` (every ``bench_e2e`` row carries
  it, so ``scripts/hashseed_rows.py`` can see it) and once in
  ``ParetoFront.rows`` (no workload builds one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Seed:
    id: str
    group: str
    path: str
    #: ``(old, new)`` pairs; each ``old`` occurs exactly once in ``path``.
    edits: Tuple[Tuple[str, str], ...]
    check: Optional[str] = None
    tests: Tuple[str, ...] = ()


CONFIG = "tests/test_config.py::"
HOP_PINS = "tests/test_hop_path_pins.py"
METRICS = "src/repro/pubsub/metrics.py"
SWEEPS = "src/repro/experiments/sweeps.py"

#: Where the hazard seeds land, and the import each one needs there.
_ROW_END = '''            "delivery_rate": round(self.delivery_rate, 4),
        }
'''
_PARETO_ROW = '''            row["rank"] = entry.rank
'''
_METRICS_IMPORTS = "from dataclasses import dataclass, field\n"
_SWEEPS_IMPORTS = "from dataclasses import dataclass\n"


def _on_path(name: str, module: Optional[str], key: str, check: Optional[str],
             tests: Tuple[str, ...] = ()) -> Seed:
    edits = [(_ROW_END, _ROW_END[:-10] + f"            {key}\n        }}\n")]
    if module is not None:
        edits.append((_METRICS_IMPORTS, f"import {module}\n" + _METRICS_IMPORTS))
    return Seed(f"hazard-{name}-on-path", "hazard", METRICS, tuple(edits), check,
                (HOP_PINS,) + tests)


def _off_path(name: str, module: Optional[str], line: str, check: Optional[str],
              tests: Tuple[str, ...] = ()) -> Seed:
    edits = [(_PARETO_ROW, _PARETO_ROW + f"            {line}\n")]
    if module is not None:
        edits.append((_SWEEPS_IMPORTS, f"import {module}\n" + _SWEEPS_IMPORTS))
    return Seed(f"hazard-{name}-off-path", "hazard", SWEEPS, tuple(edits), check, tests)


ENV_PIN = (CONFIG + "test_no_environment_reads_and_no_numpy_outside_tools",)

SEEDS: Tuple[Seed, ...] = (
    # -- one per per-file rule ------------------------------------------
    Seed("rule-unmanaged-random", "rule", "src/repro/core/fbf.py", (
        ("            order = self._rng.shuffled(units)\n",
         "            order = random.sample(list(units), len(units))\n"),
        ("from __future__ import annotations\n",
         "from __future__ import annotations\n\nimport random\n"),
    ), "unmanaged-random"),
    Seed("rule-wall-clock", "rule", "src/repro/workloads/stocks.py", (
        ("_BASE_DATE = datetime.date(1996, 1, 2)",
         "_BASE_DATE = datetime.date.today()"),
    ), "clock"),
    Seed("rule-wall-clock-output", "rule", "src/repro/core/cram.py", (
        ("        kernel = ClosenessKernel.for_pool(directory, "
         "[unit.profile for unit in units])\n",
         "        started = time.perf_counter()\n"
         "        kernel = ClosenessKernel.for_pool(directory, "
         "[unit.profile for unit in units])\n"
         "        stats.pack_s = time.perf_counter() - started\n"),
        ("class CramStats:\n", "class CramStats:\n    pack_s: float = 0.0\n"),
        ("from __future__ import annotations\n",
         "from __future__ import annotations\n\nimport time\n"),
    ), "clock"),
    Seed("rule-float-equality", "rule", "src/repro/core/energy.py", (
        ("        if approx_zero(self.duration_s):\n",
         "        if self.duration_s == 0.0:\n"),
    ), "float-equality"),
    Seed("rule-mutable-default", "rule", "src/repro/workloads/subscriptions.py", (
        ("    price_hints: Optional[Dict[str, float]] = None,\n",
         "    price_hints: Dict[str, float] = {},\n"),
    ), "mutable-default"),
    Seed("rule-future-annotations", "rule", "src/repro/sim/rng.py", (
        ("from __future__ import annotations\n\n", ""),
    ), "future-annotations"),
    Seed("rule-return-annotation", "rule", "src/repro/core/closeness.py", (
        ("def make_metric(name: str) -> ClosenessMetric:",
         "def make_metric(name: str):"),
    ), "return-annotation"),
    Seed("rule-bare-except", "rule", "src/repro/experiments/parallel.py", (
        ("        except OSError:  # pragma: no cover - exotic platforms",
         "        except:  # pragma: no cover - exotic platforms"),
    ), "bare-except"),
    Seed("rule-allocator-signature", "rule", "src/repro/core/fbf.py", (
        ('''        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        """Allocate ``units`` onto ``pool`` in random draw order."""
        with obs.span("fbf.first_fit", units=len(units)):
            order = self._rng.shuffled(units)
            return first_fit(order, pool, directory)''',
         '''        brokers: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        """Allocate ``units`` onto ``brokers`` in random draw order."""
        with obs.span("fbf.first_fit", units=len(units)):
            order = self._rng.shuffled(units)
            return first_fit(order, brokers, directory)'''),
    ), "allocator-signature"),
    Seed("rule-unpicklable-worker", "rule", "src/repro/experiments/parallel.py", (
        ("[pool.submit(run_spec, spec) for spec in specs]",
         "[pool.submit(lambda spec=spec: run_spec(spec)) for spec in specs]"),
    ), "unpicklable-worker"),
    Seed("rule-unused-import", "rule", "src/repro/pubsub/matching.py", (
        ("from collections import defaultdict\n",
         "import math\nfrom collections import defaultdict\n"),
    ), "unused-import"),
    # -- one per whole-program pass ---------------------------------------
    Seed("pass-layering", "pass", "src/repro/core/croc.py", (
        ("from typing import Callable, Dict, List, Optional\n",
         "from typing import TYPE_CHECKING, Callable, Dict, List, Optional\n"),
        ("from repro.obs import recorder as obs\n",
         "from repro.obs import recorder as obs\n\n"
         "if TYPE_CHECKING:\n    from repro.pubsub.network import PubSubNetwork\n"),
        ("    def _dead_targets(network, deployment: Deployment)",
         '    def _dead_targets(network: "PubSubNetwork", deployment: Deployment)'),
    ), "layering"),
    Seed("pass-determinism-taint", "pass", "src/repro/core/binpacking.py", (
        ("            return first_fit(decreasing_bandwidth(units), pool, directory)",
         "            return first_fit(decreasing_bandwidth(list(set(units))), pool,"
         " directory)"),
    ), "determinism-taint"),
    Seed("pass-api-contract", "pass", "src/repro/pubsub/broker.py", (
        ('__all__ = ["BROKER", "CLIENT", "Broker", "Destination"]',
         '__all__ = ["BROKER", "CLIENT", "Broker", "Destination", "Router"]'),
    ), "api-contract"),
    # -- one per structural pin in tests/test_config.py --------------------
    Seed("pin-runconfig-fields", "pin", "src/repro/core/config.py", (
        ("    online: Optional[OnlineSpec] = None\n",
         "    online: Optional[OnlineSpec] = None\n    shard_jobs: int = 1\n"),
    ), tests=(CONFIG + "test_runconfig_has_no_performance_field",)),
    Seed("pin-energy-spec-parser", "pin", "src/repro/core/energy.py", (
        ("    def __post_init__(self) -> None:\n        for spec_field in fields(self):",
         "    @classmethod\n"
         '    def from_spec(cls, text: str) -> "EnergySpec":\n'
         "        pairs = (item.split(\"=\") for item in text.split(\",\") if item)\n"
         "        return cls(**{key: float(value) for key, value in pairs})\n\n"
         "    def __post_init__(self) -> None:\n        for spec_field in fields(self):"),
    ), tests=(CONFIG + "test_energy_is_a_reading_not_a_run_option",)),
    Seed("pin-online-spec-fields", "pin", "src/repro/core/online.py", (
        ("    gap: float = 0.05\n", "    gap: float = 0.05\n    max_moves: int = 4\n"),
    ), tests=(CONFIG + "test_online_spec_is_what_the_workload_sets",)),
    Seed("pin-allocator-path-parameter", "pin", "src/repro/core/cram.py", (
        ("        max_iterations: Optional[int] = None,\n    ):",
         "        max_iterations: Optional[int] = None,\n"
         "        kernel: Optional[ClosenessKernel] = None,\n    ):"),
    ), tests=(CONFIG + "test_allocators_take_no_path_selecting_parameter",)),
    Seed("pin-one-process-pool", "pin", SWEEPS, (
        ("def figure_rows(",
         "def warm_pool(jobs: int):\n"
         "    from concurrent.futures import ProcessPoolExecutor\n\n"
         "    return ProcessPoolExecutor(max_workers=jobs)\n\n\n"
         "def figure_rows("),
    ), tests=(CONFIG + "test_one_process_pool_and_no_install_hooks_in_core",)),
    Seed("pin-import-loads-no-pool", "pin", METRICS, (
        (_METRICS_IMPORTS, "import logging\n" + _METRICS_IMPORTS),
        ("from repro.core.energy import WindowUsage\n",
         "from repro.core.energy import WindowUsage\n\n_LOG = logging.getLogger(__name__)\n"),
    ), tests=(CONFIG + "test_import_repro_loads_no_process_pool",)),
    Seed("pin-kernel-decision-point", "pin", "src/repro/core/kernel.py", (
        ("profiles: Iterable[SubscriptionProfile]\n    ) -> \"ClosenessKernel\":",
         "profiles: Iterable[SubscriptionProfile]\n"
         "    ) -> \"Optional[ClosenessKernel]\":"),
    ), tests=(CONFIG + "test_one_kernel_decision_point_and_no_fallback_returns",)),
    Seed("pin-cram-kernel-test", "pin", "src/repro/core/cram.py", (
        ("        kernel = ClosenessKernel.for_pool(directory, "
         "[unit.profile for unit in units])\n",
         "        kernel = ClosenessKernel.for_pool(directory, "
         "[unit.profile for unit in units])\n"
         "        if kernel is None:\n"
         "            raise ValueError(\"pool does not pack\")\n"),
    ), tests=(CONFIG + "test_cram_and_pairwise_never_test_for_a_missing_kernel",)),
    Seed("pin-bins-require-kernel", "pin", "src/repro/core/capacity.py", (
        ("    def __init__(self, spec: BrokerSpec, kernel: ClosenessKernel):",
         "    def __init__(self, spec: BrokerSpec, kernel: Optional[ClosenessKernel] = None):"),
    ), tests=(CONFIG + "test_bins_passes_merges_and_the_poset_require_a_kernel",)),
    Seed("pin-kernel-only-algebra", "pin", "src/repro/core/closeness.py", (
        ("def make_metric(name: str) -> ClosenessMetric:",
         "def xor_metric(first: int, second: int) -> int:\n"
         "    return bin(first ^ second).count(\"1\")\n\n\n"
         "def make_metric(name: str) -> ClosenessMetric:"),
    ), tests=(CONFIG + "test_the_kernel_is_the_only_profile_algebra",)),
    Seed("pin-no-scheduled-lambda", "pin", "src/repro/pubsub/network.py", (
        ("            sim.call_at(sim.now + self.link_latency, self._receive_of[broker_id],\n"
         "                        message, source)",
         "            receive = self._receive_of[broker_id]\n"
         "            sim.call_at(sim.now + self.link_latency,\n"
         "                        lambda: receive(message, source))"),
    ), tests=(CONFIG + "test_no_lambda_is_scheduled_in_sim_or_pubsub",)),
    Seed("pin-no-numpy", "pin", "src/repro/core/validation.py", (
        ("from __future__ import annotations\n",
         "from __future__ import annotations\n\nimport numpy  # noqa: F401\n"),
    ), tests=ENV_PIN),
    # -- each determinism hazard, on and off a bench_e2e path --------------
    _on_path("random", "random", '"jitter": random.random(),', "unmanaged-random"),
    _off_path("random", "random", 'row["tiebreak"] = random.random()', "unmanaged-random"),
    _on_path("env", "os", '"mode": os.environ.get("REPRO_MODE", "paper"),', None, ENV_PIN),
    _off_path("env", "os", 'row["mode"] = os.environ.get("REPRO_MODE", "paper")', None,
              ENV_PIN),
    _on_path("wall-clock", "time", '"stamped_at": time.time(),', "clock"),
    _off_path("wall-clock", "time", 'row["stamped"] = 0 if time.time() else 1', "clock"),
    _on_path("monotonic-clock", "time", '"elapsed_s": time.perf_counter(),', "clock"),
    _off_path("monotonic-clock", "time", 'row["elapsed_s"] = time.monotonic()', "clock"),
    _on_path("set-order", None, '"brokers": ",".join(set(self.active_broker_ids)),',
             "determinism-taint"),
    _off_path("set-order", None,
              'row["peers"] = ",".join({other.approach for other in self.entries})',
              "determinism-taint"),
)
