"""Unit tests for the ingest queue and shed policies."""

import pytest

from repro.core import Constants, SNSScheduler
from repro.errors import WorkloadError
from repro.service import (
    IngestQueue,
    QueuedJob,
    RejectLowestDensity,
    RejectNewest,
    SHED_POLICIES,
    make_shed_policy,
    sns_density,
)
from repro.sim.jobs import JobSpec
from repro.workloads import WorkloadConfig, generate_workload
from repro.workloads.dag_families import make_family

import numpy as np


def make_entry(job_id, density, enqueued_at=0):
    structure = make_family("chain")(np.random.default_rng(job_id))
    spec = JobSpec(job_id, structure, arrival=0, deadline=1000, profit=1.0)
    return QueuedJob(spec=spec, enqueued_at=enqueued_at, density=density)


class TestDensity:
    def test_matches_scheduler_state(self):
        """sns_density must equal the density S computes at arrival."""
        from repro.sim.jobs import ActiveJob

        specs = generate_workload(
            WorkloadConfig(n_jobs=10, m=4, load=1.0, seed=3)
        )
        sched = SNSScheduler(epsilon=1.0)
        sched.on_start(4, 1.0)
        for spec in specs:
            state = sched.compute_state(ActiveJob(spec).view)
            assert sns_density(spec, 4, sched.constants) == pytest.approx(
                state.density
            )

    def test_profit_fn_job_falls_back_to_work_density(self):
        from repro.profit.functions import FlatThenLinear

        structure = make_family("chain")(np.random.default_rng(0))
        spec = JobSpec(
            0,
            structure,
            arrival=0,
            profit_fn=FlatThenLinear(2.0, 10.0, 20.0),
        )
        d = sns_density(spec, 4, Constants.from_epsilon(1.0))
        assert d == pytest.approx(spec.profit / spec.work)


class TestPolicies:
    def test_registry(self):
        assert set(SHED_POLICIES) == {"reject-newest", "reject-lowest-density"}
        assert isinstance(make_shed_policy("reject-newest"), RejectNewest)
        with pytest.raises(ValueError):
            make_shed_policy("nope")

    def test_reject_newest_keeps_queue(self):
        q = IngestQueue(2, RejectNewest())
        a, b, c = make_entry(1, 1.0), make_entry(2, 2.0), make_entry(3, 9.0)
        assert q.offer(a) is None
        assert q.offer(b) is None
        assert q.offer(c) is c  # full: incoming is the victim
        assert [e.job_id for e in q.entries()] == [1, 2]
        assert q.shed == 1 and q.accepted == 2

    def test_reject_lowest_density_displaces(self):
        q = IngestQueue(2, RejectLowestDensity())
        low, mid = make_entry(1, 0.1), make_entry(2, 0.5)
        high = make_entry(3, 2.0)
        q.offer(low)
        q.offer(mid)
        victim = q.offer(high)
        assert victim is low  # queued lowest-density job displaced
        assert [e.job_id for e in q.entries()] == [2, 3]

    def test_reject_lowest_density_sheds_incoming_when_lowest(self):
        q = IngestQueue(1, RejectLowestDensity())
        q.offer(make_entry(1, 5.0))
        weak = make_entry(2, 0.01)
        assert q.offer(weak) is weak


class TestQueue:
    def test_capacity_validation(self):
        with pytest.raises(WorkloadError):
            IngestQueue(0)

    def test_fifo_release_order(self):
        q = IngestQueue(10)
        for i in range(5):
            q.offer(make_entry(i, float(i)))
        assert [q.pop().job_id for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_holds_newest(self):
        q = IngestQueue(4)
        first, second = make_entry(1, 1.0), make_entry(2, 1.0)
        assert not q.holds_newest(first)
        q.offer(first)
        assert q.holds_newest(first)
        q.offer(second)
        assert q.holds_newest(second) and not q.holds_newest(first)
        q.pop()
        q.pop()
        assert not q.holds_newest(second)

    def test_peek_and_depth(self):
        q = IngestQueue(4)
        assert q.peek() is None
        entry = make_entry(7, 1.0)
        q.offer(entry)
        assert q.peek() is entry
        assert q.depth == 1 and len(q) == 1
