"""Outside-in span ledger: wrap each layer's public methods, time them.

:class:`Ledger` replaces a fixed list of public methods -- one or more
per package module (``workloads``, ``scenarios``, ``gateway``,
``cluster``, ``service``, ``sim``, ``core``) -- with thin wrappers that
record one span per call: its name, start, end, parent span and, when
the call carries a job spec, the job id.  Nothing inside the package
changes; :meth:`Ledger.uninstall` puts every original attribute back,
so a timed run after a traced run sees the untouched methods.

Spans are kept in memory as flat integer columns and written out when
the run ends (:meth:`Ledger.write`).  A span's *self time* is its
duration minus the time its direct children cover; with the root call
wrapped, self times sum to the root's wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: (module, class or None for a module function, attribute, span name).
#: Ordered outside-in; the root of a run is ``scenarios.run``.
LAYER_METHODS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.workloads.suite", None, "generate_workload", "workloads.generate"),
    ("repro.gateway.load", "LoadGenerator", "specs", "workloads.generate"),
    ("repro.scenarios.builder", "ScenarioBuilder", "setup", "scenarios.setup"),
    ("repro.scenarios.builder", "ScenarioBuilder", "run", "scenarios.run"),
    ("repro.gateway.gateway", "Gateway", "run", "gateway.run"),
    ("repro.gateway.ingest", "IngestBuffer", "offer", "gateway.ingest"),
    ("repro.gateway.ingest", "IngestBuffer", "drain", "gateway.ingest"),
    ("repro.gateway.kpi", "KpiAggregator", "snapshot", "gateway.kpi"),
    ("repro.gateway.autoscale", "Autoscaler", "decide", "gateway.autoscale"),
    ("repro.cluster.service", "ClusterService", "start", "cluster.start"),
    ("repro.cluster.service", "ClusterService", "submit", "cluster.submit"),
    ("repro.cluster.service", "ClusterService", "advance_to", "cluster.advance_to"),
    ("repro.cluster.service", "ClusterService", "finish", "cluster.finish"),
    ("repro.cluster.elastic", "ElasticScalingMixin", "start", "cluster.start"),
    ("repro.cluster.elastic", "ElasticScalingMixin", "live_metrics", "cluster.live_metrics"),
    ("repro.cluster.elastic", "ElasticScalingMixin", "active_stats", "cluster.stats"),
    ("repro.cluster.elastic", "ElasticScalingMixin", "scale_to", "cluster.scale_to"),
    ("repro.cluster.coordinator", "Coordinator", "before_route", "cluster.coordinator"),
    ("repro.cluster.coordinator", "Coordinator", "note_route", "cluster.coordinator"),
    ("repro.cluster.shard", "InProcessShard", "submit", "cluster.shard_submit"),
    ("repro.cluster.shard", "ProcessShard", "submit", "cluster.shard_submit"),
    ("repro.cluster.shard", "ProcessShard", "start", "cluster.shard_spawn"),
    ("repro.cluster.shard", "ProcessShard", "stats", "cluster.shard_wait"),
    ("repro.cluster.shard", "ProcessShard", "finish", "cluster.shard_wait"),
    ("repro.service.service", "SchedulingService", "submit", "service.submit"),
    ("repro.service.service", "SchedulingService", "advance_to", "service.advance_to"),
    ("repro.service.service", "SchedulingService", "finish", "service.finish"),
    ("repro.service.service", "SchedulingService", "extract_running", "cluster.steal_move"),
    ("repro.service.service", "SchedulingService", "inject_running", "cluster.steal_move"),
    ("repro.sim.engine", "Simulator", "submit", "sim.submit"),
    ("repro.sim.engine", "Simulator", "advance_to", "sim.advance_to"),
    ("repro.sim.engine", "Simulator", "finish", "sim.finish"),
    ("repro.sim.engine", "Simulator", "profit_so_far", "sim.profit_so_far"),
    ("repro.core.sns", "SNSScheduler", "on_arrival", "core.on_arrival"),
    ("repro.core.sns", "SNSScheduler", "on_completion", "core.on_completion"),
    ("repro.core.sns", "SNSScheduler", "on_expiry", "core.on_expiry"),
    ("repro.core.sns", "SNSScheduler", "allocate", "core.allocate"),
)


def _router_targets() -> list[tuple[str, Optional[str], str, str]]:
    """Every concrete ``route`` override, so any configured router is timed."""
    from repro.cluster.router import Router

    found, stack = [], [Router]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if "route" in vars(cls):
            found.append((cls.__module__, cls.__qualname__, "route", "cluster.route"))
    return found


class Ledger:
    """In-memory span recorder over the package's public methods."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.job_id = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        # forked shard workers inherit the wrappers; there they pass
        # straight through, recording nothing
        self._armed = [True]
        os.register_at_fork(after_in_child=self._armed.clear)
        #: specs seen by parent-side process-shard submits (pipe bytes
        #: are computed from these after the run, outside any span)
        self.piped: list[tuple] = []

    # -- installing -----------------------------------------------------
    def install(self) -> "Ledger":
        """Wrap every target; idempotent per ledger."""
        if self._saved:
            return self
        for module, owner, attr, span in (*LAYER_METHODS, *_router_targets()):
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            original = vars(target)[attr]
            self._saved.append((target, attr, original))
            piped = (owner, attr) == ("ProcessShard", "submit")
            setattr(target, attr, self._wrap(original, span, piped))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, span: str, piped: bool) -> Callable:
        sid = self._name_ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        stack = self._stack
        clock = time.perf_counter_ns
        name_id, start_ns, end_ns = self.name_id, self.start_ns, self.end_ns
        parent, job_ids = self.parent, self.job_id
        armed = self._armed
        commands = self.piped if piped else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not armed:
                return fn(*args, **kwargs)
            index = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            job_ids.append(_job_id(args))
            end_ns.append(0)
            stack.append(index)
            start_ns.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[index] = clock()
                stack.pop()
                if commands is not None:
                    commands.append(("submit", *args[1:], *kwargs.values()))

        return wrapper

    # -- reading --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.name_id)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``span name -> (self seconds, calls)``."""
        child_ns = array("q", bytes(8 * len(self)))
        for index, up in enumerate(self.parent):
            if up >= 0:
                child_ns[up] += self.end_ns[index] - self.start_ns[index]
        totals: dict[str, list] = defaultdict(lambda: [0, 0])
        for index, sid in enumerate(self.name_id):
            entry = totals[self.names[sid]]
            entry[0] += self.end_ns[index] - self.start_ns[index] - child_ns[index]
            entry[1] += 1
        return {name: (ns / 1e9, calls) for name, (ns, calls) in totals.items()}

    def root_seconds(self) -> float:
        """Wall seconds covered by top-level spans."""
        return sum(
            self.end_ns[i] - self.start_ns[i]
            for i, up in enumerate(self.parent)
            if up < 0
        ) / 1e9

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (span index = line number)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, sid in enumerate(self.name_id):
                span = {
                    "name": self.names[sid],
                    "start_ns": self.start_ns[i],
                    "end_ns": self.end_ns[i],
                    "parent": self.parent[i],
                    "job_id": self.job_id[i] if self.job_id[i] >= 0 else None,
                }
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _job_id(args: tuple) -> int:
    """The job id carried by a method's first argument, else -1."""
    job_id = getattr(args[1], "job_id", None) if len(args) > 1 else None
    return job_id if isinstance(job_id, int) else -1
