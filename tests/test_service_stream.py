"""Stream/batch equivalence: driving the engine incrementally (directly
or through the service in pass-through configuration) must be
bit-identical to ``Simulator.run`` on the same workload -- records,
counters, end time and profit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FIFOScheduler, GlobalEDF, GreedyDensity
from repro.core import SNSScheduler
from repro.errors import SimulationError
from repro.service import Admission, SchedulingService
from repro.sim import Simulator
from repro.workloads import WorkloadConfig, generate_workload

FACTORIES = {
    "edf": GlobalEDF,
    "fifo": FIFOScheduler,
    "greedy": GreedyDensity,
    "sns": lambda: SNSScheduler(epsilon=1.0),
}


def batch_result(name, specs, m=8):
    return Simulator(m=m, scheduler=FACTORIES[name]()).run(specs)


class TestEngineStreaming:
    def test_stream_equals_batch(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=40, m=8, load=2.0, seed=3)
        )
        batch = batch_result("sns", specs)
        sim = Simulator(m=8, scheduler=SNSScheduler(epsilon=1.0))
        sim.start()
        for spec in sorted(specs, key=lambda s: (s.arrival, s.job_id)):
            sim.advance_to(spec.arrival)
            sim.submit(spec)
        stream = sim.finish()
        assert stream.records == batch.records
        assert stream.counters == batch.counters
        assert stream.end_time == batch.end_time

    def test_submit_with_time_implies_advance(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=20, m=4, load=1.5, seed=4)
        )
        batch = batch_result("edf", specs, m=4)
        sim = Simulator(m=4, scheduler=GlobalEDF())
        sim.start()
        for spec in sorted(specs, key=lambda s: (s.arrival, s.job_id)):
            sim.submit(spec, t=spec.arrival)
        assert sim.finish().records == batch.records

    def test_late_submission_rejected(self):
        sim = Simulator(m=2, scheduler=FIFOScheduler())
        specs = generate_workload(WorkloadConfig(n_jobs=5, m=2, seed=0))
        late = min(specs, key=lambda s: (s.arrival, s.job_id))
        sim.start()
        sim.advance_to(late.arrival + 1)
        with pytest.raises(SimulationError):
            sim.submit(late)
        sim.finish()

    def test_session_protocol_errors(self):
        sim = Simulator(m=2, scheduler=FIFOScheduler())
        with pytest.raises(SimulationError):
            sim.advance_to(5)
        sim.start()
        with pytest.raises(SimulationError):
            sim.start()
        sim.finish()
        with pytest.raises(SimulationError):
            sim.advance_to(5)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.sampled_from(sorted(FACTORIES)),
        st.sampled_from([0.5, 2.0, 5.0]),
        st.sampled_from([1.0, 1.5]),
    )
    def test_stream_equals_batch_property(self, seed, name, load, speed):
        specs = generate_workload(
            WorkloadConfig(n_jobs=18, m=4, load=load, seed=seed)
        )
        batch = Simulator(
            m=4, scheduler=FACTORIES[name](), speed=speed
        ).run(specs)
        sim = Simulator(m=4, scheduler=FACTORIES[name](), speed=speed)
        sim.start()
        for spec in sorted(specs, key=lambda s: (s.arrival, s.job_id)):
            sim.advance_to(spec.arrival)
            sim.submit(spec)
        stream = sim.finish()
        assert stream.records == batch.records
        assert stream.counters == batch.counters

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.lists(
            st.integers(min_value=1, max_value=400), min_size=1, max_size=6
        ),
    )
    def test_intermediate_advances_preserve_outcomes(self, seed, stops):
        """Extra advance_to calls at arbitrary times must not change any
        completion record or the final profit."""
        specs = generate_workload(
            WorkloadConfig(n_jobs=15, m=4, load=2.0, seed=seed)
        )
        batch = batch_result("sns", specs, m=4)
        sim = Simulator(m=4, scheduler=SNSScheduler(epsilon=1.0))
        sim.start()
        events = sorted(
            [(s.arrival, "submit", s) for s in specs]
            + [(t, "advance", None) for t in sorted(stops)]
        , key=lambda e: (e[0], e[1] == "submit", getattr(e[2], "job_id", -1)))
        for t, kind, spec in events:
            if t >= sim.now:
                sim.advance_to(t)
            if kind == "submit":
                sim.submit(spec)
        stream = sim.finish()
        assert stream.records == batch.records
        assert stream.total_profit == batch.total_profit


class TestServicePassThrough:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_run_stream_equals_batch(self, name):
        specs = generate_workload(
            WorkloadConfig(n_jobs=35, m=8, load=2.5, seed=11)
        )
        batch = batch_result(name, specs)
        service = SchedulingService(8, FACTORIES[name]())
        result = service.run_stream(specs)
        assert result.result.records == batch.records
        assert result.result.counters == batch.counters
        assert result.total_profit == batch.total_profit
        assert result.num_shed == 0

    def test_admission_outcomes(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=30, m=2, load=6.0, seed=5)
        )
        service = SchedulingService(
            2, SNSScheduler(epsilon=1.0), capacity=2, max_in_flight=2
        )
        service.start()
        outcomes = set()
        for spec in sorted(specs, key=lambda s: (s.arrival, s.job_id)):
            outcome = service.submit(spec, t=spec.arrival)
            queued = any(e.job_id == spec.job_id for e in service.queue.entries())
            assert (outcome is Admission.QUEUED) == queued
            outcomes.add(outcome)
        service.finish()
        assert Admission.ADMITTED in outcomes
        assert Admission.QUEUED in outcomes or Admission.SHED in outcomes

    def test_backpressure_sheds_and_drains(self):
        specs = generate_workload(
            WorkloadConfig(n_jobs=120, m=4, load=5.0, seed=6)
        )
        service = SchedulingService(
            4, SNSScheduler(epsilon=1.0), capacity=5, max_in_flight=4
        )
        result = service.run_stream(specs)
        assert result.num_shed > 0
        released = len(result.result.records)
        assert released + result.num_shed == len(specs)
        # every shed record names a job that never produced a completion
        for rec in result.shed:
            assert rec.job_id not in result.result.records
