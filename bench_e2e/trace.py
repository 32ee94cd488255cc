"""Layer attribution for the traced repetition.

Two recorders, both living entirely in this file (the program under
``src/`` is not edited and the untraced repetitions never import this
module):

* **boundary spans** — the layers' public entry points are wrapped in
  the traced child; every call records name, start, end and parent
  span in memory (four parallel arrays, ~26 bytes a span), which gives
  exact call counts and inclusive busy time;
* a **statistical sampler** — ``ITIMER_PROF`` fires every 2 ms of CPU
  time and the handler charges the sample to the layer of the innermost
  ``repro.*`` frame, which gives self-time shares for code that has no
  single public boundary (the queue loop, broker handlers, metrics
  hooks, ``Publication.hopped``).

A boundary that no longer resolves (renamed, deleted) is reported once
on stderr and every metric that depends on it becomes ``None``; nothing
here raises because the program changed shape.
"""

from __future__ import annotations

import functools
import importlib
import signal
import sys
import time
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

#: Sampling period in CPU seconds.
SAMPLE_PERIOD_S = 0.002

#: Module prefix -> layer, first match wins.  Prefixes (not exact
#: names) so that splitting ``core/cram.py`` into ``core/cram_*.py``
#: or a ``core/cram/`` package stays attributed to the same layer.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads", "workloads"),
    ("repro.sim.engine", "sim.engine"),
    ("repro.pubsub.matching", "pubsub.matching"),
    ("repro.pubsub.predicate", "pubsub.matching"),
    ("repro.pubsub.broker", "pubsub.broker"),
    ("repro.pubsub.network", "pubsub.network"),
    ("repro.pubsub.message", "pubsub.message"),
    ("repro.pubsub.metrics", "pubsub.metrics"),
    ("repro.pubsub.cbc", "pubsub.cbc"),
    ("repro.core.bitvector", "pubsub.cbc"),
    ("repro.core.profiles", "pubsub.cbc"),
    ("repro.pubsub.faults", "pubsub.faults"),
    ("repro.core.croc", "core.croc"),
    ("repro.core.cram", "core.cram"),
    ("repro.core.gif", "core.cram"),
    ("repro.core.poset", "core.cram"),
    ("repro.core.closeness", "core.cram"),
    ("repro.core.kernel", "core.cram"),
    ("repro.core.columnar", "core.cram"),
    ("repro.core.binpacking", "core.cram"),
    ("repro.core.fbf", "core.cram"),
    ("repro.core.capacity", "core.cram"),
    ("repro.core.overlay_builder", "core.overlay_builder"),
    ("repro.core.grape", "core.grape"),
    ("repro.core.online", "core.online"),
    ("repro.experiments.continuous", "core.online"),
)

#: Layer charged when the innermost ``repro.*`` frame matches no prefix
#: above, or when no ``repro.*`` frame is on the stack at all.
OTHER_LAYER = "other"

#: Span name -> the entry points recorded under it (``module:qualname``).
#: A name resolves when at least one of its targets does, so a class
#: that is deleted (say, the second engine) does not unresolve the span.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "sim.run": ("repro.sim.engine:Simulator.run",
                "repro.sim.engine:CalendarSimulator.run"),
    "network.apply": ("repro.pubsub.network:PubSubNetwork.apply_deployment",),
    "matching.routes": ("repro.pubsub.matching:MatchingIndex.matching_routes",),
    "matching.add": ("repro.pubsub.matching:MatchingIndex.add",),
    "matching.remove": ("repro.pubsub.matching:MatchingIndex.remove_subscription",),
    "croc.reconfigure": ("repro.core.croc:Croc.reconfigure",),
    "croc.gather": ("repro.core.croc:Croc.gather",),
    "croc.plan": ("repro.core.croc:Croc.plan",),
    "allocate": ("repro.core.cram:CramAllocator.allocate",
                 "repro.core.cram:ShardedCramAllocator.allocate",
                 "repro.core.binpacking:BinPackingAllocator.allocate",
                 "repro.core.fbf:FbfAllocator.allocate",
                 "repro.core.online:OnlineAllocator.allocate"),
    "overlay.build": ("repro.core.overlay_builder:OverlayBuilder.build",),
    "grape.place": ("repro.core.grape:GrapeRelocator.place_publishers",),
    "online.step": ("repro.experiments.continuous:OnlineScheduler.step",),
    "workloads.subscriptions": (
        "repro.workloads.subscriptions:subscription_workload",),
    "workloads.offline_gather": ("repro.workloads.offline:offline_gather",),
}

#: The generator every subscription of every workload comes out of; it
#: is tapped (not timed) to count subscriptions and distinct filters.
FILTER_SOURCE = "repro.workloads.subscriptions:iter_subscriptions_for_symbol"


def layer_of(module_name: str) -> str:
    """The layer a ``repro.*`` module's self time is charged to."""
    for prefix, layer in LAYER_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + ".") \
                or module_name.startswith(prefix + "_"):
            return layer
    return OTHER_LAYER


class Sampler:
    """CPU-time sampler attributing each tick to a layer."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._layers: Dict[str, Optional[str]] = {}
        self._previous: Any = None

    def _on_tick(self, _signum: int, frame: Any) -> None:
        layers = self._layers
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            layer = layers.get(module)
            if layer is None and module not in layers:
                layer = layer_of(module) if module.startswith("repro.") else None
                layers[module] = layer
            if layer is not None:
                break
            frame = frame.f_back
        else:
            layer = OTHER_LAYER
        self.counts[layer] = self.counts.get(layer, 0) + 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self) -> Dict[str, float]:
        """layer -> fraction of all samples (empty when none fired)."""
        total = sum(self.counts.values())
        if not total:
            return {}
        return {layer: count / total for layer, count in self.counts.items()}


class SpanRecorder:
    """In-memory spans: name, start, end, parent, in start order."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.current = -1
        self.unresolved: Set[str] = set()

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span ``name``."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents = (
            self.name_id, self.start, self.end, self.parent)
        clock = time.perf_counter

        @functools.wraps(function)
        def boundary(*args: Any, **kwargs: Any) -> Any:
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(self.current)
            ends.append(0.0)
            self.current = index
            starts.append(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = clock()
                self.current = parents[index]

        return boundary

    def summary(self, run_start: float, run_end: float) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds.

        Spans that started after ``run_end`` (the checks) are ignored.
        A span nested under another of the same name (an allocator
        delegating to an inner allocator) adds to the call count but
        not to the inclusive time, so ``inclusive_s`` never counts a
        second twice.  The extra ``top_level`` row sums the parentless
        spans of the timed call, ``[run_start, run_end]``: the part of
        ``wall_s`` the boundaries cover.
        """
        count = len(self.name_id)
        child_total = [0.0] * count
        for index in range(count):
            parent = self.parent[index]
            if parent >= 0:
                child_total[parent] += self.end[index] - self.start[index]
        rows = {name: {"n": 0, "inclusive_s": 0.0, "self_s": 0.0}
                for name in self.names}
        top_level = 0.0
        for index in range(count):
            begin = self.start[index]
            if begin > run_end:
                break
            duration = self.end[index] - begin
            name_id = self.name_id[index]
            row = rows[self.names[name_id]]
            row["n"] += 1
            row["self_s"] += duration - child_total[index]
            parent = self.parent[index]
            if parent < 0 and begin >= run_start:
                top_level += duration
            while parent >= 0 and self.name_id[parent] != name_id:
                parent = self.parent[parent]
            if parent < 0:
                row["inclusive_s"] += duration
        rows["top_level"] = {"n": 0, "inclusive_s": top_level, "self_s": 0.0}
        return rows


class FilterTap:
    """Counts generated subscriptions and their distinct filters."""

    def __init__(self) -> None:
        self.subscriptions = 0
        self.filters: Set[Any] = set()

    def wrap(self, generator_function: Callable) -> Callable:
        @functools.wraps(generator_function)
        def tapped(*args: Any, **kwargs: Any) -> Iterable[Any]:
            for subscription in generator_function(*args, **kwargs):
                self.subscriptions += 1
                self.filters.add(subscription.predicates)
                yield subscription

        return tapped


def _resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``module:qualname`` -> (owner, attribute, function) or None."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attribute, getattr(owner, attribute)
    except (ImportError, AttributeError):
        return None


def _rebind(owner: Any, attribute: str, original: Any, replacement: Any) -> None:
    """Install ``replacement`` wherever the program looks ``original`` up.

    A method is looked up on its class.  A module-level function may
    have been imported by name into other ``repro`` modules, so every
    loaded ``repro.*`` module global that *is* the original is rebound.
    """
    setattr(owner, attribute, replacement)
    if isinstance(owner, type):
        return
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(recorder: SpanRecorder, tap: FilterTap) -> None:
    """Wrap every boundary; unresolved span names land in ``recorder``."""
    # Load the modules that import boundaries by name before rebinding.
    importlib.import_module("repro.experiments")

    for name, targets in BOUNDARIES.items():
        resolved = [found for found in map(_resolve, targets) if found]
        if not resolved:
            recorder.unresolved.add(name)
            print(f"bench_e2e.trace: boundary {name!r} no longer resolves "
                  f"({', '.join(targets)}); its metrics are null",
                  file=sys.stderr)
        for owner, attribute, function in resolved:
            _rebind(owner, attribute, function, recorder.wrap(name, function))
    found = _resolve(FILTER_SOURCE)
    if found is None:
        recorder.unresolved.add("filters")
        print(f"bench_e2e.trace: {FILTER_SOURCE} no longer resolves; "
              "filter metrics are null", file=sys.stderr)
    else:
        owner, attribute, function = found
        _rebind(owner, attribute, function, tap.wrap(function))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def per_layer_metrics(
    spans: Dict[str, Dict[str, float]],
    unresolved: Set[str],
    shares: Dict[str, float],
    tap: FilterTap,
    outcome: Any,
    wall_s: float,
    cpu_s: float,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of BENCHMARK.json but ``trace.overhead_pct``.

    (The overhead needs the untraced repetitions, which only the parent
    process has.)  A layer that did nothing on this workload reports 0;
    a metric whose boundary is unresolved reports ``None``.
    """

    def span(name: str, key: str, *more: str) -> Optional[float]:
        names = (name,) + more
        if any(each in unresolved for each in names):
            return None
        return sum(spans[each][key] for each in names if each in spans)

    def per_call_us(total: Optional[float], calls: Optional[float]) -> Optional[float]:
        if total is None or calls is None:
            return None
        return total / calls * 1e6 if calls else 0.0

    def share(layer: str) -> float:
        return shares.get(layer, 0.0)

    def stat(field: str) -> int:
        return getattr(outcome.cram_stats, field, 0)

    facts, work = outcome.facts, outcome.work

    run_s = span("sim.run", "inclusive_s")
    routes_s = span("matching.routes", "inclusive_s")
    routes_n = span("matching.routes", "n")
    filters_known = "filters" not in unresolved
    lookups = (stat("kernel_memo_hits") + stat("kernel_fused_evaluations")
               + stat("kernel_fallback_evaluations"))
    events_n = work["events"]
    return {
        "workloads.generate_s": span(
            "workloads.subscriptions", "inclusive_s", "workloads.offline_gather"),
        "workloads.subscriptions_n": tap.subscriptions if filters_known else None,
        "workloads.distinct_filter_ratio": (
            None if not filters_known
            else len(tap.filters) / tap.subscriptions if tap.subscriptions
            else 0.0),
        "sim.engine.run_s": run_s,
        "sim.engine.events_n": events_n,
        "sim.engine.us_per_event": per_call_us(run_s, events_n),
        "sim.engine.self_share": share("sim.engine"),
        "pubsub.matching.routes_s": routes_s,
        "pubsub.matching.routes_n": routes_n,
        "pubsub.matching.routes_us": per_call_us(routes_s, routes_n),
        "pubsub.matching.self_share": share("pubsub.matching"),
        "pubsub.matching.writes_s": span(
            "matching.add", "inclusive_s", "matching.remove"),
        "pubsub.matching.writes_n": span("matching.add", "n", "matching.remove"),
        "pubsub.broker.self_share": share("pubsub.broker"),
        "pubsub.network.apply_s": span("network.apply", "inclusive_s"),
        "pubsub.network.apply_n": span("network.apply", "n"),
        "pubsub.network.self_share": share("pubsub.network"),
        "pubsub.message.self_share": share("pubsub.message"),
        "pubsub.metrics.self_share": share("pubsub.metrics"),
        "pubsub.metrics.deliveries_n": work["deliveries"],
        "pubsub.metrics.mean_delay_ms": facts.get("mean_delay_ms", 0.0),
        "pubsub.cbc.self_share": share("pubsub.cbc"),
        "pubsub.faults.self_share": share("pubsub.faults"),
        "pubsub.faults.drops_n": facts.get("drops_n", 0),
        "core.croc.gather_s": span("croc.gather", "inclusive_s"),
        "core.croc.plan_s": span("croc.plan", "inclusive_s"),
        "core.croc.reconfigure_n": span("croc.reconfigure", "n"),
        "core.cram.allocate_s": span("allocate", "inclusive_s"),
        "core.cram.self_share": share("core.cram"),
        "core.cram.closeness_evals_n": stat("closeness_evaluations"),
        "core.cram.binpack_runs_n": stat("binpack_runs"),
        "core.cram.merges_n": stat("merges"),
        "core.cram.memo_hit_ratio": (
            stat("kernel_memo_hits") / lookups if lookups else 0.0),
        "core.overlay_builder.build_s": span("overlay.build", "inclusive_s"),
        "core.grape.place_s": span("grape.place", "inclusive_s"),
        "experiments.continuous.step_s": span("online.step", "inclusive_s"),
        "experiments.continuous.step_n": span("online.step", "n"),
        "experiments.continuous.cycles_n": facts.get("cycles_n", 0),
        "experiments.continuous.full_reconfig_n": facts.get("full_reconfig_n", 0),
        "core.online.moved_n": facts.get("moved_n", 0),
        "core.validation.violations_n": facts.get("violations_n", 0),
        "proc.cpu_s": cpu_s,
        "trace.span_coverage": spans["top_level"]["inclusive_s"] / wall_s,
    }
