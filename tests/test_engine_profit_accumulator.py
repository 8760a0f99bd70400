"""The engine's running profit sum is ``sum()`` over finished records.

``Simulator.profit_so_far`` reads a running sum kept as terminal records
are written, instead of re-summing every record.  These tests pin it to
``sum(r.profit for r in finished.values())`` bit for bit (``float.hex``)
after every kind of step that writes, moves or rebuilds records, on both
service-grade backends, and check that a service run never re-reads the
finished records before it finishes.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

from repro.core import SNSScheduler
from repro.dag import chain
from repro.service import SchedulingService
from repro.sim import JobSpec, make_engine
from repro.workloads import WorkloadConfig, generate_workload


def engine(backend, m=4, **kwargs):
    return make_engine(
        backend, m=m, scheduler=SNSScheduler(epsilon=1.0), **kwargs
    )


def assert_exact(sim):
    """profit_so_far() equals sum() over the records, type and bits."""
    got = sim.profit_so_far()
    want = sum(r.profit for r in sim._state.finished.values())
    assert type(got) is type(want)
    assert float(got).hex() == float(want).hex()


def finish_exact(sim):
    """Finish the session; the last running sum equals total_profit."""
    state = sim._state
    assert_exact(sim)
    result = sim.finish()
    final = state.total_profit()
    assert type(final) is type(result.total_profit)
    assert float(final).hex() == float(result.total_profit).hex()
    return result


def ordered(specs):
    return sorted(specs, key=lambda s: (s.arrival, s.job_id))


def workload(n=60, m=4, seed=5):
    return ordered(
        generate_workload(WorkloadConfig(n_jobs=n, m=m, load=3.0, seed=seed))
    )


def tenth_profits(n=40):
    """Jobs worth 0.1 each that all finish: there sum() != fsum()."""
    return [
        JobSpec(i, chain(2), arrival=2 * i, deadline=2 * i + 40, profit=0.1)
        for i in range(n)
    ]


def test_empty_session_is_int_zero_like_sum(service_backend):
    sim = engine(service_backend)
    sim.start()
    assert_exact(sim)
    assert sim.profit_so_far() == 0 and type(sim.profit_so_far()) is int
    finish_exact(sim)


def test_submit_and_advance(service_backend):
    sim = engine(service_backend)
    sim.start()
    for spec in workload():
        sim.advance_to(spec.arrival)
        assert_exact(sim)
        sim.submit(spec)
        assert_exact(sim)
    result = finish_exact(sim)
    assert result.total_profit > 0


def test_tenth_profits_differ_from_fsum(service_backend):
    sim = engine(service_backend)
    sim.start()
    for spec in tenth_profits():
        sim.submit(spec, t=spec.arrival)
        assert_exact(sim)
    result = finish_exact(sim)
    profits = [r.profit for r in result.records.values()]
    assert all(p == 0.1 for p in profits)
    assert sum(profits) != math.fsum(profits)


def test_extract_and_inject(service_backend):
    specs = workload(n=40, seed=7)
    source, target = engine(service_backend), engine(service_backend)
    source.start()
    target.start()
    moved = 0
    for spec in specs:
        source.submit(spec, t=spec.arrival)
        live = [j for j, job in source._state.active.items() if job.is_live()]
        if live and spec.job_id % 3 == 0:
            payload = source.extract_active(live[0])
            assert_exact(source)
            target.inject_active(payload, t=source.now)
            assert_exact(target)
            moved += 1
    assert moved > 0
    finish_exact(source)
    finish_exact(target)


def test_expiry_as_first_record(service_backend):
    # a 0.0 record still turns sum()'s int 0 into a float
    sim = engine(service_backend)
    sim.start()
    sim.submit(JobSpec(0, chain(20), arrival=0, deadline=5, profit=0.7), t=0)
    sim.advance_to(10)
    assert sim._state.finished[0].expired
    assert_exact(sim)
    finish_exact(sim)


def test_inject_expired_in_transit(service_backend):
    source, target = engine(service_backend), engine(service_backend)
    source.start()
    target.start()
    source.submit(JobSpec(100, chain(50), arrival=0, deadline=30, profit=0.7), t=0)
    source.advance_to(5)
    payload = source.extract_active(100)
    assert payload is not None
    assert_exact(source)
    target.advance_to(40)
    target.inject_active(payload)
    record = target._state.finished[100]
    assert record.expired and record.profit == 0.0
    assert_exact(target)
    for spec in tenth_profits(6):
        target.submit(
            replace(spec, arrival=spec.arrival + 40, deadline=spec.deadline + 40)
        )
        assert_exact(target)
    finish_exact(target)
    finish_exact(source)


def test_restore_mid_run(service_backend):
    specs = workload(n=50, seed=11)
    sim = engine(service_backend)
    sim.start()
    rest = list(specs)
    while rest and rest[0].arrival < 60:
        spec = rest.pop(0)
        sim.submit(spec, t=spec.arrival)
    sim.advance_to(60)
    assert sim.finished_count > 0
    blob = json.loads(
        json.dumps(
            {"engine": sim.snapshot_state(), "sched": sim.scheduler.snapshot_state()}
        )
    )
    restored = engine(service_backend)
    views = restored.restore_state(blob["engine"])
    restored.scheduler.restore_state(blob["sched"], views)
    assert float(restored.profit_so_far()).hex() == float(sim.profit_so_far()).hex()
    assert_exact(restored)
    for spec in rest:
        restored.submit(spec, t=spec.arrival)
        assert_exact(restored)
    finish_exact(restored)


def test_horizon_abandons_running_jobs(service_backend):
    sim = engine(service_backend, horizon=30)
    sim.start()
    sim.submit(JobSpec(50, chain(80), arrival=20, deadline=200, profit=0.3), t=20)
    sim.advance_to(40)
    result = finish_exact(sim)
    assert result.records[50].abandoned


def test_finish_abandons_never_released_jobs(service_backend):
    sim = engine(service_backend, horizon=30)
    sim.start()
    sim.submit(JobSpec(51, chain(1), arrival=90, deadline=200, profit=0.3))
    result = finish_exact(sim)
    assert result.records[51].abandoned


class CountingDict(dict):
    """A dict that counts whole-collection reads."""

    reads = 0

    def values(self):
        CountingDict.reads += 1
        return super().values()

    def items(self):
        CountingDict.reads += 1
        return super().items()

    def __iter__(self):
        CountingDict.reads += 1
        return super().__iter__()


def test_service_run_never_rereads_finished(service_backend, monkeypatch):
    monkeypatch.setattr(CountingDict, "reads", 0)
    service = SchedulingService(
        m=4, scheduler=SNSScheduler(epsilon=1.0), engine=service_backend
    )
    service.start()
    service.sim._state.finished = CountingDict()
    reads_at_finish = []
    sim_finish = service.sim.finish

    def finish():
        reads_at_finish.append(CountingDict.reads)
        return sim_finish()

    monkeypatch.setattr(service.sim, "finish", finish)
    result = service.run_stream(workload(n=80, seed=3))
    assert reads_at_finish == [0]
    assert service.metrics.gauge("profit_total").value == result.total_profit
    assert result.result.counters.completions > 0
