"""Layer-ledger benchmark: one seeded workload through the scenario stack.

Run from the repository root::

    python3 perfbench/run.py --workload stream-service --seed 1 --seconds 40 --trace 0

The workload's scenario spec (``perfbench/workloads/<name>.toml``) gets
its size and seed through ``ScenarioSpec.with_overrides``; the program
sees only the generated jobs.  With ``--trace 0`` the run repeats the
``--seed`` job stream in set-up + run episodes for ``--seconds`` (at
least ``MIN_REPEATS`` times), audits every episode, requires every
repeat to reproduce the first one's fingerprint, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the
``--seed`` stream untraced, traced (:mod:`ledger` wraps each layer's
public methods) and untraced again, requires one fingerprint from all
three, writes the spans to ``perfbench/out/`` and prints the per-layer
metrics with the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the run record: host, source revision, seed, run length, episode
count, and the count and percentiles of the timed unit operations
(``submit`` calls, or gateway ticks).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: an untraced run repeats its stream for --seconds, but at least this
#: often (a repeat also checks same-seed determinism)
MIN_REPEATS = 3

#: parts of ``run()``, by unit operation, whose fastest repeats are
#: summed to the run time.  A cluster run is one part: the parent's
#: submits are pipelined into the shard workers, so where a part ends in
#: the parent says little about the shards' progress.
SEGMENTS = {"service": 20, "cluster": 1, "gateway": 20}

#: what one timed unit operation is, per scenario mode
OP_UNIT = {"service": "submit", "cluster": "submit", "gateway": "tick"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def growth(values: list[float]) -> float:
    """Median of the last quarter of ``values`` over the median of the first.

    Medians, not means: a few operations that block on a full shard
    pipe would otherwise decide the ratio.
    """
    quarter = len(values) // 4
    if quarter == 0:
        return 1.0
    head = statistics.median(values[:quarter])
    return statistics.median(values[-quarter:]) / head if head > 0 else 1.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float) -> dict:
    """Repeat the seed's stream for ``seconds``; the end-to-end metrics.

    Every run serves the same job stream for a seed, however fast the
    host is; only the number of repeats varies.  The run time behind
    ``jobs_per_s`` is the sum, over the ``SEGMENTS`` parts of ``run()``,
    of each part's fastest repeat: every repeat does the same work in
    each part, so a stall on the host decides no part unless it hits
    that part in every repeat.  Set-up time is the median over the
    repeats.  Each repeat must reproduce the first one's fingerprint;
    the outcome figures are the first repeat's (a function of the seed).
    """
    from episode import WARMUP_JOBS, load_workload, outcome, run_episode

    run_episode(load_workload(name, seed, WARMUP_JOBS))
    spec = load_workload(name, seed)
    first: dict = {}
    timed: list[list[float]] = []
    setups: list[float] = []
    ops_us: list[list[float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    episode_s = 0.0
    while len(timed) < MIN_REPEATS or time.perf_counter() + episode_s < deadline:
        # episodes start from the same heap: none keeps its result alive
        gc.collect()
        started = time.perf_counter()
        try:
            episode = run_episode(spec, cross_check=not first)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            break
        ops = len(episode.op_ns)
        attempted += ops
        problems = list(episode.violations)
        if not first:
            first = dict(outcome(episode), fingerprint=episode.fingerprint)
        elif episode.fingerprint != first["fingerprint"]:
            problems.append(f"two runs of stream {seed} gave different fingerprints")
        if problems:
            # a run whose output fails the audit invalidates its operations
            failed += ops
            for problem in problems[:20]:
                print(f"audit: {problem}", file=sys.stderr)
        timed.append(episode.segments_s(SEGMENTS[spec.mode]))
        setups.append(episode.setup_s)
        ops_us.append([ns / 1e3 for ns in episode.op_ns])
        del episode
        episode_s = time.perf_counter() - started
    if len(timed) < MIN_REPEATS:
        raise SystemExit("an episode failed before the run had its minimum repeats")
    run_s = sum(min(part) for part in zip(*timed))
    metrics = {
        "jobs_per_s": _metric(first["offered"] / run_s, "1/s"),
        "profit_frac": _metric(first["profit"] / first["offered_profit"], "ratio"),
        "served_frac": _metric(1.0 - first["shed"] / first["offered"], "ratio"),
        "response_p99": _metric(percentile(first["responses"], 99), "steps"),
        "ok_frac": _metric(1.0 - failed / attempted, "ratio"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(_peak_rss_mb(resource.RUSAGE_SELF), "MB"),
    }
    _print_record(spec, seed, seconds, len(timed), ops_us, first["fingerprint"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def trace(name: str, seed: int, seconds: float) -> dict:
    """Untraced, traced, untraced episode of one stream; per-layer metrics.

    The traced episode sits between two untraced ones, so the tracing
    overhead (traced over mean untraced wall time) is not skewed by the
    host speeding up or slowing down during the run.  Shard CPU time
    comes from the untraced episodes, which the wrappers do not touch.
    """
    from episode import WARMUP_JOBS, load_workload, outcome, run_episode
    from ledger import Ledger

    spec = load_workload(name, seed)
    run_episode(load_workload(name, seed, WARMUP_JOBS))
    ledger = Ledger()
    plain_s, plain_run_s, plain_ops, shard_cpu = [], [], [], []
    fingerprints, problems, attempted = set(), [], 0
    for traced_turn in (False, True, False):
        # episodes start from the same heap: none keeps its result alive
        gc.collect()
        if traced_turn:
            with ledger:
                episode = run_episode(spec)
            figures = outcome(episode)
            traced_s = episode.setup_s + episode.run_s
        else:
            episode = run_episode(spec)
            plain_s.append(episode.setup_s + episode.run_s)
            plain_run_s.append(episode.run_s)
            shard_cpu.append(episode.child_cpu_s)
            plain_ops.append([ns / 1e3 for ns in episode.op_ns])
        fingerprints.add(episode.fingerprint)
        problems += episode.violations
        attempted += len(episode.op_ns)
        del episode
    if len(fingerprints) > 1:
        problems.append(f"traced and untraced fingerprints differ: {sorted(fingerprints)}")
    for problem in problems[:20]:
        print(f"audit: {problem}", file=sys.stderr)
    failed = attempted if problems else 0

    selfs = ledger.self_times()

    def self_s(span: str) -> float:
        return selfs.get(span, (0.0, 0))[0]

    def calls(span: str) -> int:
        return selfs.get(span, (0.0, 0))[1]

    shards = spec.cluster.shards if spec.mode == "cluster" else 0
    shard_cpu_s = statistics.fmean(shard_cpu)
    pipe_bytes = _pipe_bytes(ledger.piped)
    layer = {
        "workloads.generate.self_s": (self_s("workloads.generate"), "s"),
        "scenarios.setup.self_s": (self_s("scenarios.setup"), "s"),
        "scenarios.run.self_s": (self_s("scenarios.run"), "s"),
        "gateway.run.self_s": (self_s("gateway.run"), "s"),
        "gateway.ingest.self_s": (self_s("gateway.ingest"), "s"),
        "gateway.ingest.calls": (calls("gateway.ingest"), "count"),
        "gateway.kpi.self_s": (self_s("gateway.kpi"), "s"),
        "gateway.autoscale.self_s": (self_s("gateway.autoscale"), "s"),
        "cluster.submit.self_s": (self_s("cluster.submit"), "s"),
        "cluster.advance_to.self_s": (self_s("cluster.advance_to"), "s"),
        "cluster.live_metrics.self_s": (self_s("cluster.live_metrics"), "s"),
        "cluster.scale_to.calls": (calls("cluster.scale_to"), "count"),
        "cluster.route.self_s": (self_s("cluster.route"), "s"),
        "cluster.coordinator.self_s": (self_s("cluster.coordinator"), "s"),
        "cluster.steals": (figures["steals"], "count"),
        "cluster.steal_move.self_s": (self_s("cluster.steal_move"), "s"),
        "cluster.shard_spawn.self_s": (self_s("cluster.shard_spawn"), "s"),
        "cluster.shard_submit.self_s": (self_s("cluster.shard_submit"), "s"),
        "cluster.shard_wait_s": (self_s("cluster.shard_wait"), "s"),
        "cluster.shard_cpu_s": (shard_cpu_s, "s"),
        "cluster.shard_busy_frac": (
            shard_cpu_s / (shards * statistics.fmean(plain_run_s)) if shards else 0.0,
            "ratio",
        ),
        "cluster.shard_peak_rss_mb": (_peak_rss_mb(resource.RUSAGE_CHILDREN), "MB"),
        "cluster.pipe_bytes": (pipe_bytes, "bytes"),
        "service.submit.self_s": (self_s("service.submit"), "s"),
        "service.advance_to.self_s": (self_s("service.advance_to"), "s"),
        "service.finish.self_s": (self_s("service.finish"), "s"),
        "service.shed": (figures["service_shed"], "count"),
        "service.queue_depth_max": (figures["queue_depth_max"], "count"),
        "service.admit_wait_p99": (percentile(figures["admit_waits"], 99), "steps"),
        "sim.submit.self_s": (self_s("sim.submit"), "s"),
        "sim.advance_to.self_s": (self_s("sim.advance_to"), "s"),
        "sim.finish.self_s": (self_s("sim.finish"), "s"),
        "sim.profit_so_far.self_s": (self_s("sim.profit_so_far"), "s"),
        "sim.profit_so_far.calls": (calls("sim.profit_so_far"), "count"),
        "sim.us_per_decision": (
            self_s("sim.advance_to") * 1e6 / figures["decisions"]
            if figures["decisions"] else 0.0,
            "us",
        ),
        "sim.busy_frac": (figures["busy_frac"], "ratio"),
        "core.on_arrival.self_s": (self_s("core.on_arrival"), "s"),
        "core.on_completion.self_s": (self_s("core.on_completion"), "s"),
        "core.allocate.self_s": (self_s("core.allocate"), "s"),
        "core.on_time_frac": (figures["on_time_frac"], "ratio"),
        # per-operation host time, from the untraced episodes; too
        # unsteady run to run to gate end to end (see the run record)
        **{
            f"ops.us_p{q}": (percentile([t for o in plain_ops for t in o], q), "us")
            for q in (50, 90, 99)
        },
        "ops.growth": (statistics.fmean(growth(o) for o in plain_ops), "ratio"),
        "trace.overhead": (traced_s / statistics.fmean(plain_s), "ratio"),
        "trace.spans": (len(ledger), "count"),
    }
    ledger.write(OUT_DIR / f"spans-{name}.jsonl")
    top = sorted(selfs.items(), key=lambda kv: -kv[1][0])
    print(json.dumps({
        "self_s": {span: round(s, 6) for span, (s, _) in top},
        "calls": {span: n for span, (_, n) in top},
        "self_sum_s": sum(s for s, _ in selfs.values()),
        "root_s": ledger.root_seconds(),
    }))
    _print_record(spec, seed, seconds, 3, plain_ops, fingerprints.pop())
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: _metric(value, unit) for key, (value, unit) in layer.items()},
    }


def _pipe_bytes(commands: list[tuple]) -> int:
    """Pickled size of each parent-side submit command, as the pipe sends it."""
    from multiprocessing.reduction import ForkingPickler

    return sum(len(ForkingPickler.dumps(command)) for command in commands)


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def host_record() -> dict[str, Any]:
    """Host and source identity, so results from different hosts or
    revisions are never mixed."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
    }


def _print_record(
    spec: Any, seed: int, seconds: float, episodes: int, ops_us: list[list[float]],
    fingerprint: str,
) -> None:
    """The run record: host, revision, seed, run length and the timed
    operations' sample count and percentiles (host microseconds)."""
    pooled = [t for ops in ops_us for t in ops]
    print(json.dumps({
        "host": host_record(),
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "n_jobs": spec.workload.n_jobs,
        "episodes": episodes,
        "ops": {
            "unit": OP_UNIT[spec.mode],
            "count": len(pooled),
            **{f"us_p{q}": percentile(pooled, q) for q in (50, 90, 99)},
            "growth": statistics.fmean(growth(ops) for ops in ops_us),
        },
        "fingerprint": fingerprint,
    }))


def main(argv: Optional[list[str]] = None) -> int:
    from episode import SIZES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = trace if args.trace else measure
    result = run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


def _import_path() -> None:
    """Make the package under ``src/`` importable; fail without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    _import_path()
    sys.exit(main())
