"""One benchmark episode: build a workload from its spec, drive it, audit it.

An episode is ``ScenarioBuilder.setup()`` (timed as set-up), one
``run()`` (timed end to end, with every unit operation timed on the
way) and ``collect()``, followed by an audit of the collected result
against the jobs that were offered.  The driving goes through the
layers' public calls only; unit operations are timed by replacing the
runnable's own ``submit`` (service, cluster) or the gateway clock's
``sleep_until`` (one call per tick) on the instance.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.cluster.service import ClusterResult
from repro.resilience.audit import audit_run
from repro.scenarios import ScenarioBuilder, ScenarioResult, ScenarioSpec, load_spec
from repro.service.telemetry import MetricsRegistry
from repro.sim.engine import Simulator

SPEC_DIR = Path(__file__).resolve().parent / "workloads"

#: workload name -> jobs per episode at benchmark size.  The two stream
#: workloads share one job stream, so their ``jobs_per_s`` compare
#: process k=2 against the single in-process service directly.
SIZES = {"stream-service": 8000, "cluster-process": 8000, "gateway-flash": 6000}

#: jobs in the untimed warm-up episode that loads modules and fills
#: allocator pools before anything is timed
WARMUP_JOBS = 200


def load_workload(name: str, seed: int, n_jobs: Optional[int] = None) -> ScenarioSpec:
    """The workload's spec file with its seed and size applied."""
    spec = load_spec(SPEC_DIR / f"{name}.toml")
    return spec.with_overrides(
        {"seed": seed, "workload.n_jobs": n_jobs or SIZES[name]}
    )


@dataclass
class Episode:
    """Timings and audited outcome of one set-up + run."""

    spec: ScenarioSpec
    setup_s: float
    run_s: float
    #: host nanoseconds per unit operation, in call order
    op_ns: list[int]
    #: host clock (ns) at the start of ``run()``, at each unit operation
    #: and at the end of ``run()``
    marks: list[int]
    result: ScenarioResult
    #: every job offered to the system (generated stream, drops included)
    offered: list
    #: children's CPU seconds (user + system) spent during the episode
    child_cpu_s: float
    violations: list[str] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return self.result.fingerprint()

    def segments_s(self, count: int) -> list[float]:
        """``run()`` cut into ``count`` spans of equally many unit
        operations (the last runs on to the end of ``run()``); seconds each."""
        ops = len(self.marks) - 2
        cuts = [0] + [1 + round(i * ops / count) for i in range(1, count)] + [ops + 1]
        return [(self.marks[b] - self.marks[a]) / 1e9 for a, b in zip(cuts, cuts[1:])]

    def cluster_result(self) -> ClusterResult:
        """The run as a cluster result (a service is a one-shard cluster)."""
        raw = self.result.raw
        if self.result.mode == "gateway":
            return raw.cluster
        if self.result.mode == "service":
            return ClusterResult(shard_results=[raw], cluster_metrics=MetricsRegistry())
        return raw


def run_episode(spec: ScenarioSpec, *, cross_check: bool = False) -> Episode:
    """Set up, drive, collect and audit one run of ``spec``.

    ``cross_check`` (service mode) also replays the offered jobs through
    a bare ``Simulator.run`` and requires the same profit bit for bit.
    """
    cpu_before = _children_cpu()
    builder = ScenarioBuilder(spec)
    try:
        started = time.perf_counter()
        builder.setup()
        if spec.mode in ("service", "cluster"):
            builder.runnable.start()  # shard workers spawn here
        setup_s = time.perf_counter() - started
        op_ns, stamps = _time_ops(builder)
        started = time.perf_counter_ns()
        builder.run()
        ended = time.perf_counter_ns()
        result = builder.collect()
    finally:
        builder.teardown()
    if spec.mode == "gateway":
        op_ns[:] = [b - a for a, b in zip(stamps, stamps[1:])]
    episode = Episode(
        spec=spec,
        setup_s=setup_s,
        run_s=(ended - started) / 1e9,
        op_ns=op_ns,
        marks=[started, *stamps, ended],
        result=result,
        offered=list(builder.specs),
        child_cpu_s=_children_cpu() - cpu_before,
    )
    episode.violations = audit(episode)
    if cross_check and spec.mode == "service":
        batch = Simulator(
            m=spec.workload.m,
            scheduler=builder.make_scheduler(),
            speed=spec.engine.speed,
        ).run(episode.offered)
        if repr(batch.total_profit) != repr(result.total_profit):
            episode.violations.append(
                f"service profit {result.total_profit!r} != "
                f"Simulator.run profit {batch.total_profit!r}"
            )
    return episode


def _time_ops(builder: ScenarioBuilder) -> tuple[list[int], list[int]]:
    """Time each unit operation of the coming ``run()``.

    Returns two lists the run fills: durations and start stamps.  Gateway
    runs stamp each tick's ``sleep_until`` (the durations, tick to tick,
    are taken afterwards); stream runs stamp and time each ``submit``.
    """
    clock = time.perf_counter_ns
    samples: list[int] = []
    stamps: list[int] = []
    if builder.spec.mode == "gateway":
        pacer = builder.runnable.clock
        sleep_until = pacer.sleep_until

        def paced(deadline: float) -> None:
            stamps.append(clock())
            sleep_until(deadline)

        pacer.sleep_until = paced
        return samples, stamps
    runnable = builder.runnable
    submit = runnable.submit

    def timed_submit(spec: Any, t: Optional[int] = None) -> Any:
        started = clock()
        stamps.append(started)
        try:
            return submit(spec, t=t)
        finally:
            samples.append(clock() - started)

    runnable.submit = timed_submit
    return samples, stamps


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def audit(episode: Episode) -> list[str]:
    """Every way the episode's output disagrees with what was offered.

    * every offered job has exactly one terminal outcome
      (:func:`repro.resilience.audit.audit_run`, applied to a service
      run as a one-shard cluster);
    * each record earns its job's profit iff it finished on time;
    * total profit equals the sum of record profits, bit for bit.
    """
    cluster = episode.cluster_result()
    report = audit_run(
        episode.result.raw if episode.result.mode == "gateway" else cluster,
        episode.offered,
    )
    problems = [
        f"{v.invariant} job={v.job_id}: {v.detail}" for v in report.violations
    ]
    by_id = {spec.job_id: spec for spec in episode.offered}
    for shard in cluster.shard_results:
        for job_id, rec in shard.result.records.items():
            expected = by_id[job_id].profit if rec.on_time else 0.0
            if rec.profit != expected:
                problems.append(
                    f"record {job_id} earned {rec.profit!r}, expected {expected!r}"
                )
    recomputed = sum(
        sum(rec.profit for rec in shard.result.records.values())
        for shard in cluster.shard_results
    )
    if repr(recomputed) != repr(episode.result.total_profit):
        problems.append(
            f"total profit {episode.result.total_profit!r} != "
            f"record sum {recomputed!r}"
        )
    return problems


# ----------------------------------------------------------------------
# Outcome figures (deterministic per seed)
# ----------------------------------------------------------------------
def outcome(episode: Episode) -> dict[str, Any]:
    """Profit, shedding, waiting and engine-usefulness figures."""
    cluster = episode.cluster_result()
    offered = {spec.job_id: spec for spec in episode.offered}
    raw = episode.result.raw
    dropped = len(raw.dropped) if episode.result.mode == "gateway" else 0
    service_shed = sum(len(s.shed) for s in cluster.shard_results)
    cluster_shed = len(cluster.extra.get("cluster_shed", []))
    records = [
        rec for shard in cluster.shard_results
        for rec in shard.result.records.values()
    ]
    counters = [shard.result.counters for shard in cluster.shard_results]
    allocated = sum(c.allocated_steps for c in counters)
    on_time = sum(1 for rec in records if rec.on_time)
    queue_depth = cluster.metrics.histograms().get("queue_depth", {})
    return {
        "offered": len(offered),
        "offered_profit": sum(spec.profit for spec in episode.offered),
        "profit": episode.result.total_profit,
        "shed": service_shed + cluster_shed + dropped,
        "service_shed": service_shed,
        # a record's arrival is re-stamped when the job is released late
        # (or stolen), so the gap to the offered arrival is its wait
        "admit_waits": [rec.arrival - offered[rec.job_id].arrival for rec in records],
        "responses": [
            rec.completion_time - offered[rec.job_id].arrival
            for rec in records if rec.on_time
        ],
        "decisions": sum(c.decisions for c in counters),
        "busy_frac": sum(c.busy_steps for c in counters) / allocated if allocated else 0.0,
        "on_time_frac": on_time / len(records) if records else 0.0,
        "queue_depth_max": queue_depth.get("max") or 0,
        "steals": cluster.cluster_metrics.values().get("steals_total", 0.0),
    }

