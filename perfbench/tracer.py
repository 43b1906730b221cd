"""Outside-in layer tracer: wraps the program's public entry points.

Nothing inside ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each entry point named in :data:`SPAN_POINTS` and
:data:`COUNT_POINTS` with a wrapper, at the attribute its callers look up
(``derive_device_data`` is patched in ``repro.configgen.generator``,
where the generator resolves it, not in ``repro.configgen.derive``), and
:meth:`Tracer.uninstall` puts the originals back.  Untraced runs never
call ``install``, so they execute the program untouched.

A span wrapper records name, start, end, parent span and the id of the
timed operation it ran under.  A span entered while the innermost open
span belongs to the same layer is folded into it (``filter`` calling
``all``, ``check_all`` calling ``check_device``), so a layer's call count
is the number of times another layer called into it.  Self time is a
span's duration minus the time covered by its child spans.  Hot
predicates (``Query.matches``, ``ReadSet.matches``) get count-only
wrappers.  Wrappers only record while :attr:`Tracer.active` is set,
which the benchmark sets around the timed parts of each operation.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Span layers and the entry points that open them: (layer, module, owner
#: attribute or None for a module-level function, attribute names).
SPAN_POINTS = (
    ("design.build", "repro.core.robotron", "Robotron", ("build_cluster",)),
    (
        "design.build",
        "repro.design.backbone",
        "BackboneDesignTool",
        (
            "add_router", "delete_router", "add_circuit", "delete_circuit",
            "migrate_circuit", "join_mesh", "leave_mesh",
        ),
    ),
    ("design.build", "repro.simulation.executor", "WorkloadExecutor", ("execute",)),
    (
        "design.ipam",
        "repro.design.ipam",
        "IpAllocator",
        ("allocate_subnet", "assign_p2p", "assign_host"),
    ),
    ("design.validate", "repro.design.validation", None, ("validate",)),
    (
        "store.read",
        "repro.fbnet.store",
        "ObjectStore",
        ("get", "all", "filter", "count", "first", "exists"),
    ),
    (
        "store.write",
        "repro.fbnet.store",
        "ObjectStore",
        ("create", "update", "delete", "save"),
    ),
    ("changelog.match", "repro.fbnet.changelog", "ReadSet", ("first_match",)),
    ("configgen.derive", "repro.configgen.generator", None, ("derive_device_data",)),
    ("configgen.render", "repro.configgen.engine", "Template", ("render",)),
    (
        "deploy.push",
        "repro.deploy.deployer",
        "Deployer",
        ("initial_provision", "deploy"),
    ),
    ("deploy.diff", "repro.deploy.deployer", None, ("count_changed_lines",)),
    (
        "devices.config_apply",
        "repro.devices.emulator",
        "EmulatedDevice",
        ("erase", "copy_config", "commit"),
    ),
    (
        "confmon.sweep",
        "repro.monitoring.confmon",
        "ConfigMonitor",
        ("priority_sweep", "check_device", "check_all"),
    ),
    ("durability.wal", "repro.fbnet.durability", "DurabilityEngine", ("log_commit",)),
    ("replication.apply", "repro.fbnet.store", "ObjectStore", ("apply_record",)),
    ("rpc.handle", "repro.fbnet.rpc", "ServiceReplica", ("handle",)),
    ("rpc.marshal", "repro.fbnet.rpc", None, ("encode_message", "decode_message")),
    ("rpc.cache_advance", "repro.fbnet.rpc", "ReadCache", ("advance",)),
    ("flight.record", "repro.obs.flight", None, ("record",)),
)

#: Count-only predicates: (counter, module, owner, attribute names).
COUNT_POINTS = (
    ("query.matches", "repro.fbnet.query", ("Expr", "And", "Or", "Not"), ("matches",)),
    ("readset.matches", "repro.fbnet.changelog", ("ReadSet",), ("matches",)),
    (
        "confmon.collect",
        "repro.monitoring.confmon",
        ("ConfigMonitor",),
        ("_collect_and_compare",),
    ),
)

#: Every span layer, in report order.  ``parallel.run_tasks`` is
#: installed separately (see :meth:`Tracer._install_run_tasks`).
LAYERS = (*dict.fromkeys(point[0] for point in SPAN_POINTS), "parallel.run_tasks")

#: ``run_tasks`` sections whose tasks run another layer's code.  A task of
#: any other section is the layer of the same name.
SECTION_LAYERS = {"store.scan": "store.read", "rpc.cache.fill": "rpc.handle"}

#: Spans kept for the Chrome trace; later spans still count toward the
#: per-layer metrics but are not written out.
MAX_SPANS = 200_000


class Tracer:
    """Span and counter recorder for one traced pass."""

    def __init__(self):
        #: Record only while set (the timed parts of each operation).
        self.active = False
        #: Id of the timed operation in progress; shared by its spans.
        self.op_id = 0
        #: ``(name, layer, start, end, parent index, op id)`` in start
        #: order, capped at :data:`MAX_SPANS`.
        self.spans: list[tuple[str, str, float, float, int, int] | None] = []
        self.dropped_spans = 0
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: Spans opened per layer (a layer with none never fired).
        self.calls: Counter[str] = Counter()
        #: Exact counts: count-only predicates and result-derived work.
        self.counts: Counter[str] = Counter()
        #: Seconds covered by top-level spans (the rest is unattributed).
        self.covered_seconds = 0.0
        # Open spans: [layer, child seconds, span index or -1].
        self._stack: list[list[Any]] = []
        self._in_query_match = False
        self._patches: list[tuple[Any, str, Any]] = []
        #: Per timed operation: its kind, timed seconds and exact counts.
        self.op_kinds: dict[int, str] = {}
        self.op_seconds: dict[int, float] = {}
        self.op_counts: dict[int, Counter[str]] = defaultdict(Counter)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, owner_name, attrs in SPAN_POINTS:
            owner = _owner(module_name, owner_name)
            for attr in attrs:
                original = _own_attr(owner, attr)
                hook = _RESULT_HOOKS.get((layer, attr))
                self._patch(
                    owner, attr, self._span(layer, f"{layer}:{attr}", original, hook)
                )
        # DesignChange runs the rule functions of DEFAULT_RULES directly
        # (Robotron copies that list per change), so the list entries are
        # the entry points validation time is spent in.
        from repro.design import validation

        rules = validation.DEFAULT_RULES
        originals = list(rules)
        rules[:] = [
            self._span("design.validate", f"design.validate:{rule.__name__}", rule)
            for rule in originals
        ]
        self._patches.append((rules, slice(None), originals))
        self._install_run_tasks()
        self._install_regenerate_dirty()
        for counter, module_name, owner_names, attrs in COUNT_POINTS:
            for owner_name in owner_names:
                owner = _owner(module_name, owner_name)
                for attr in attrs:
                    self._patch(
                        owner, attr, self._count(counter, _own_attr(owner, attr))
                    )

    def _install_run_tasks(self) -> None:
        """Wrap ``parallel.run_tasks`` so its self time is the pool's own.

        Each task callable gets a span of the layer its section names (a
        render task is ``configgen.render`` work, a sweep task
        ``confmon.sweep`` work), so the time spent running tasks is not
        counted as pool overhead.
        """
        from repro import parallel

        tracer = self
        pool_span = self._span(
            "parallel.run_tasks", "parallel.run_tasks", parallel.run_tasks
        )

        @functools.wraps(parallel.run_tasks)
        def run_tasks(tasks, *args, section, **kwargs):
            if tracer.active:
                layer = SECTION_LAYERS.get(section, section)
                if layer not in LAYERS:
                    layer = "parallel.run_tasks"
                tasks = [
                    (key, tracer._span(layer, f"{section}:task", task))
                    for key, task in tasks
                ]
            return pool_span(tasks, *args, section=section, **kwargs)

        self._patch(parallel, "run_tasks", run_tasks)

    def _install_regenerate_dirty(self) -> None:
        """Count the configs each incremental pass regenerated, and how many
        of them came out with different text (the useful regenerations)."""
        from repro.configgen.generator import ConfigGenerator

        tracer = self
        original = _own_attr(ConfigGenerator, "regenerate_dirty")

        @functools.wraps(original)
        def regenerate_dirty(generator, *args, **kwargs):
            if not tracer.active:
                return original(generator, *args, **kwargs)
            before = {name: config.text for name, config in generator.golden.items()}
            report = original(generator, *args, **kwargs)
            changed = sum(
                before.get(name) != config.text
                for name, config in report.regenerated.items()
            )
            for counts in (tracer.counts, tracer.op_counts[tracer.op_id]):
                counts["configgen.records_scanned"] += report.records_scanned
                counts["configgen.regenerated"] += len(report.regenerated)
                counts["configgen.regen_changed"] += changed
            return report

        self._patch(ConfigGenerator, "regenerate_dirty", regenerate_dirty)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers --------------------------------------------------------

    def _span(
        self,
        layer: str,
        name: str,
        fn: Callable,
        on_result: Callable[[Tracer, Any], None] | None = None,
    ) -> Callable:
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else -1
            frame = [layer, 0.0, tracer._reserve()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, name, parent, start, end)
            if on_result is not None:
                on_result(tracer, result)
            return result

        return wrapper

    def _close(
        self, frame: list, name: str, parent: int, start: float, end: float
    ) -> None:
        layer = frame[0]
        duration = end - start
        self.self_seconds[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.covered_seconds += duration
        if frame[2] >= 0:
            self.spans[frame[2]] = (name, layer, start, end, parent, self.op_id)
        else:
            self.dropped_spans += 1

    def _reserve(self) -> int:
        """A slot for a span being opened (in start order), or -1 past the cap."""
        if len(self.spans) >= MAX_SPANS:
            return -1
        self.spans.append(None)
        return len(self.spans) - 1

    def _count(self, counter: str, fn: Callable) -> Callable:
        tracer = self
        stack = self._stack
        if counter == "query.matches":
            # Only evaluations a store read makes, and only the outermost
            # one of a compound query (And/Or/Not call their children).
            @functools.wraps(fn)
            def query_matches(query, obj):
                if (
                    not tracer.active
                    or tracer._in_query_match
                    or not stack
                    or stack[-1][0] != "store.read"
                ):
                    return fn(query, obj)
                tracer._in_query_match = True
                try:
                    return fn(query, obj)
                finally:
                    tracer._in_query_match = False
                    tracer.counts["store.rows_examined"] += 1

            return query_matches

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                tracer.counts[counter] += 1
                if result:
                    tracer.counts[counter + ".hits"] += 1
            return result

        return counted

    # -- export ----------------------------------------------------------

    def by_op_kind(self) -> dict[str, dict[str, Any]]:
        """Per operation kind: count, timed seconds, layer self seconds
        (from the recorded spans) and exact counts."""
        child: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        kinds: dict[str, dict[str, Any]] = {}
        for op_id, kind in self.op_kinds.items():
            entry = kinds.setdefault(
                kind,
                {
                    "ops": 0,
                    "seconds": 0.0,
                    "self": defaultdict(float),
                    "counts": Counter(),
                },
            )
            entry["ops"] += 1
            entry["seconds"] += self.op_seconds[op_id]
            entry["counts"].update(self.op_counts.get(op_id, {}))
        for index, span in enumerate(self.spans):
            if span is None or span[5] not in self.op_kinds:
                continue
            entry = kinds[self.op_kinds[span[5]]]
            entry["self"][span[1]] += span[3] - span[2] - child[index]
        return kinds

    def write_chrome_trace(self, path: Path) -> None:
        """The recorded spans as Chrome-trace JSON (loads in Perfetto)."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"op": op_id, "span": index, "parent": parent},
            }
            for index, (name, layer, start, end, parent, op_id) in enumerate(
                self.spans
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {
                        "dropped_spans": self.dropped_spans,
                        "ops": {
                            op_id: {"kind": kind, "seconds": self.op_seconds[op_id]}
                            for op_id, kind in self.op_kinds.items()
                        },
                    },
                },
                out,
            )


def _owner(module_name: str, owner_name: str | None) -> Any:
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def _own_attr(owner: Any, attr: str) -> Any:
    """``owner.attr``, insisting it is defined on ``owner`` itself.

    Patching an inherited method would wrap it for every subclass too;
    failing loudly keeps the patch table honest when the program moves a
    method.
    """
    if isinstance(owner, type) and attr not in vars(owner):
        raise AttributeError(f"{owner.__name__}.{attr} is inherited, not defined")
    return getattr(owner, attr)


# -- result hooks: exact work counts read off return values ----------------


def _rows_returned(tracer: Tracer, result: Any) -> None:
    if isinstance(result, bool):
        rows = int(result)
    elif isinstance(result, int):
        rows = result  # count(): the rows that matched
    elif isinstance(result, list):
        rows = len(result)
    else:
        rows = 0 if result is None else 1
    tracer.counts["store.rows_returned"] += rows


def _deploy_report(tracer: Tracer, report: Any) -> None:
    tracer.counts["deploy.devices_pushed"] += len(report.succeeded)
    tracer.counts["deploy.devices_skipped"] += len(report.skipped)
    tracer.counts["deploy.changed_lines"] += report.total_changed_lines()


def _flight_event(tracer: Tracer, event: Any) -> None:
    if event is not None:
        tracer.counts["flight.events"] += 1


_RESULT_HOOKS: dict[tuple[str, str], Callable[[Tracer, Any], None]] = {
    **{
        ("store.read", attr): _rows_returned
        for attr in ("get", "all", "filter", "count", "first", "exists")
    },
    ("deploy.push", "initial_provision"): _deploy_report,
    ("deploy.push", "deploy"): _deploy_report,
    ("flight.record", "record"): _flight_event,
}
