"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of the program from outside: every wrapper
is installed by :meth:`Tracer.install` in the traced process only and
removed by :meth:`Tracer.uninstall`, so nothing under ``src/`` carries any
instrumentation.  A wrapped call records one span ``(id, parent, name,
start_ns, end_ns)`` in memory while the tracer is active; spans are written
out once, when the run ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so nested layers (``core.enforce`` calling
``igp.spf`` calling nothing traced) add up to the traced wall time without
double counting.

Functions that other modules import by value (``route_class_sessions``,
``decompose_components``, ``fill_component``, ``synthesize_lie_shapes``,
``aggregate_qoe``) are patched in every module that looks them up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, [(module, attribute path), ...]): each attribute path is a
#: module-level function or a ``Class.method`` looked up in that module.
SPANS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...]], ...] = (
    ("igp.converge", (("repro.igp.network", "IgpNetwork.converge"),)),
    ("igp.graph_build", (("repro.igp.lsdb", "LinkStateDatabase.graph"),)),
    ("igp.spf", (("repro.igp.spf_cache", "SpfCache.spf"),)),
    ("igp.rib", (("repro.igp.rib_cache", "RibCache.resolve"),)),
    ("core.enforce", (("repro.core.controller", "FibbingController.enforce"),)),
    ("core.baseline_fibs", (("repro.core.controller", "FibbingController.baseline_fibs"),)),
    ("core.active_lies", (("repro.core.lies", "LieRegistry.active_lies"),)),
    ("core.synthesize", (("repro.core.reconciler", "synthesize_lie_shapes"),)),
    ("core.react", (("repro.core.loadbalancer", "OnDemandLoadBalancer.react"),)),
    ("core.optimize", (("repro.core.optimizer", "MinMaxLoadOptimizer.optimize"),)),
    ("dp.route", (("repro.dataplane.engine", "route_class_sessions"),)),
    (
        "dp.fairness",
        (
            ("repro.dataplane.path_cache", "decompose_components"),
            ("repro.dataplane.path_cache", "fill_component"),
            ("repro.dataplane.fairness", "decompose_components"),
            ("repro.dataplane.fairness", "fill_component"),
        ),
    ),
    (
        "dp.update",
        (
            ("repro.dataplane.engine", "AggregateDemandEngine.add_classes"),
            ("repro.dataplane.engine", "AggregateDemandEngine.remove_class"),
            ("repro.dataplane.engine", "AggregateDemandEngine.notify_routing_change"),
        ),
    ),
    ("mon.check", (("repro.monitoring.alarms", "UtilizationAlarm.check"),)),
    ("mon.ingest", (("repro.monitoring.collector", "LoadCollector.ingest"),)),
    ("video.start_sessions", (("repro.video.server", "StreamingService.start_sessions"),)),
    ("video.qoe", (("repro.experiments.fig2", "aggregate_qoe"),)),
)

#: Classes whose instances the tracer collects per episode, to read their
#: counters when the episode ends.
CAPTURED: Tuple[Tuple[str, str], ...] = (
    ("repro.util.timeline", "Timeline"),
    ("repro.igp.network", "IgpNetwork"),
    ("repro.core.controller", "FibbingController"),
    ("repro.dataplane.engine", "AggregateDemandEngine"),
    ("repro.monitoring.alarms", "UtilizationAlarm"),
)

NAMES: Tuple[str, ...] = tuple(name for name, _ in SPANS)

#: Marks an attribute the patched class inherited rather than defined.
_INHERITED = object()


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Records spans and per-layer self time while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple[int, int, int, int, int]] = []
        self.instances: Dict[str, List[object]] = {name: [] for _, name in CAPTURED}
        self._self_ns = [0] * len(NAMES)
        self._calls = [0] * len(NAMES)
        # Open spans: [span id, name index, start_ns, child_ns].
        self._stack: List[List[int]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._ids = itertools.count()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for index, (_, targets) in enumerate(SPANS):
            for module_name, path in targets:
                owner, attribute = _resolve(module_name, path)
                self._restore.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
                setattr(owner, attribute, self._wrap(getattr(owner, attribute), index))
        for module_name, class_name in CAPTURED:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._restore.append((cls, "__init__", vars(cls).get("__init__", _INHERITED)))
            cls.__init__ = self._capture(cls.__init__, class_name)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._restore.clear()

    def _wrap(self, function: Callable, index: int) -> Callable:
        stack = self._stack
        spans = self.spans
        ids = self._ids
        self_ns = self._self_ns
        calls = self._calls

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            frame = [next(ids), index, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[2]
                self_ns[index] += duration - frame[3]
                calls[index] += 1
                parent = -1
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][0]
                spans.append((frame[0], parent, index, frame[2], end))

        return traced

    def _capture(self, init: Callable, class_name: str) -> Callable:
        instances = self.instances[class_name]

        @functools.wraps(init)
        def capturing(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            instances.append(instance)

        return capturing

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def recording(self) -> Iterator[None]:
        """Trace the calls made inside the block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Leave the calls made inside the block (checks) out of the trace."""
        was_active = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was_active

    def in_span(self) -> bool:
        """Whether a traced call is open."""
        return bool(self._stack)

    def self_seconds(self) -> Dict[str, float]:
        """Cumulative self time per span name."""
        return {name: ns / 1e9 for name, ns in zip(NAMES, self._self_ns)}

    def calls(self) -> Dict[str, int]:
        """Cumulative call count per span name."""
        return dict(zip(NAMES, self._calls))

    def take_instances(self) -> Dict[str, List[object]]:
        """The instances created since the last call, emptied for the next episode."""
        taken = {name: list(items) for name, items in self.instances.items()}
        for items in self.instances.values():
            items.clear()
        return taken

    def write(self, path: Path, header: Optional[dict] = None) -> None:
        """Write the recorded spans as gzipped JSON lines (names first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps({"names": list(NAMES), **(header or {})}) + "\n")
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


#: Per-layer counts read off the captured instances; ``LEVELS`` are states
#: at the end of an episode, every other count accumulates.
LEVELS = ("core.lies_active", "core.registry_lies")


def layer_counts(instances: Dict[str, List[object]]) -> Dict[str, float]:
    """Counter totals of the captured timelines, networks, controllers,
    data-plane engines and alarms."""
    counts: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        counts[name] = counts.get(name, 0) + value

    def add_routes(stats: Dict[str, int]) -> None:
        add("igp.spf_incremental", stats["spf_incremental_updates"])
        add("igp.spf_full", stats["spf_full_recomputes"])
        add("igp.spf_fallbacks", stats["spf_fallbacks"])
        add("igp.rib_incremental", stats["rib_incremental_updates"])
        add("igp.rib_full", stats["rib_full_recomputes"])
        add("igp.rib_fallbacks", stats["rib_fallbacks"])
        add("igp.rib_reused", stats["rib_prefixes_reused"])
        add("igp.rib_repaired", stats["rib_prefixes_repaired"])

    for timeline in instances["Timeline"]:
        add("timeline.events", timeline.fired)
    for network in instances["IgpNetwork"]:
        add_routes(network.spf_stats)
        add("igp.flood_msgs", network.flooding_stats["messages_sent"])
    for controller in instances["FibbingController"]:
        # The controller's own baseline and lied route caches.
        add_routes(controller.stats.snapshot())
        reconciler = controller.reconciler.counters
        add("core.plans_recomputed", reconciler.plans_recomputed)
        add("core.plan_cache_hits", reconciler.plan_cache_hits)
        add("core.fallbacks", reconciler.fallbacks)
        add("core.lies_active", controller.active_lie_count())
        add("core.registry_lies", len(controller.registry.history()))
    for engine in instances["AggregateDemandEngine"]:
        dp = engine.counters
        add("dp.class_splits", dp.class_splits)
        add("dp.classes_rewalked", dp.classes_rewalked)
        add("dp.classes_reused", dp.classes_reused)
        add("dp.alloc_warm_starts", dp.alloc_warm_starts)
        add("dp.alloc_full", dp.alloc_full)
        add("dp.fallbacks", dp.fallbacks)
    for alarm in instances["UtilizationAlarm"]:
        add("mon.alarms", len(alarm.events))
    return counts
