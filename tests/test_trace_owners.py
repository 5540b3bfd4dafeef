"""Tests for trace-driven owners: StationSpec demand kind "trace".

The ROADMAP item: `workload/owner_traces.py` generates calibrated
owner-activity traces; a station declared with ``demand_kind="trace"``
replays a recorded :class:`OwnerActivityTrace` in the event-driven backend,
so measured clusters can be simulated instead of fitted distributions.  The
anchor test is the reduction the ISSUE pins: a trace *generated from* a
fitted distribution must reproduce the fitted run's mean job time within the
batch-means confidence interval.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import OwnerBehavior, SimulationConfig, run_simulation
from repro.core import OwnerSpec, ScenarioSpec, StationSpec
from repro.desim import SequenceVariate, StreamRegistry
from repro.engine import ResultCache, SweepRunner, config_fingerprint
from repro.workload import OwnerActivityTrace, generate_trace


@pytest.fixture
def busy_owner() -> OwnerSpec:
    """A heavily loaded owner so interference is visible above noise."""
    return OwnerSpec(demand=10.0, utilization=0.2)


def _traces(owner: OwnerSpec, count: int, horizon: float, seed: int = 7):
    """Independent traces generated from the fitted owner behaviour."""
    behavior = OwnerBehavior.from_spec(owner)
    streams = StreamRegistry(seed)
    return [
        generate_trace(behavior, horizon, streams.stream(f"trace-{index}"))
        for index in range(count)
    ]


class TestSequenceVariate:
    def test_cycles_values(self, rng):
        variate = SequenceVariate(values=(1.0, 2.0, 3.0))
        assert [variate.sample(rng) for _ in range(5)] == [1.0, 2.0, 3.0, 1.0, 2.0]

    def test_prefix_consumed_once(self, rng):
        variate = SequenceVariate(values=(5.0,), prefix=(9.0,))
        assert [variate.sample(rng) for _ in range(3)] == [9.0, 5.0, 5.0]

    def test_mean_and_variance_describe_the_cycle(self):
        variate = SequenceVariate(values=(2.0, 4.0), prefix=(100.0,))
        assert variate.mean == pytest.approx(3.0)
        assert variate.variance == pytest.approx(1.0)

    def test_rejects_empty_or_negative(self):
        with pytest.raises(ValueError):
            SequenceVariate(values=())
        with pytest.raises(ValueError):
            SequenceVariate(values=(1.0, -0.5))


class TestOwnerBehaviorFromTrace:
    def test_replays_think_and_demand_sequences(self, rng):
        trace = OwnerActivityTrace(
            horizon=100.0, busy_intervals=((10.0, 14.0), (30.0, 33.0))
        )
        behavior = OwnerBehavior.from_trace(trace)
        # think: 10 (origin->burst0), 16 (gap), then wrap 67+10, cycling to 16.
        thinks = [behavior.think_time.sample(rng) for _ in range(4)]
        assert thinks == [10.0, 16.0, (100.0 - 33.0) + 10.0, 16.0]
        demands = [behavior.demand.sample(rng) for _ in range(3)]
        assert demands == [4.0, 3.0, 4.0]

    def test_implied_utilization_matches_trace(self):
        trace = OwnerActivityTrace(
            horizon=200.0, busy_intervals=((5.0, 25.0), (100.0, 120.0))
        )
        behavior = OwnerBehavior.from_trace(trace)
        assert behavior.utilization == pytest.approx(trace.utilization)

    def test_empty_trace_is_idle(self):
        behavior = OwnerBehavior.from_trace(
            OwnerActivityTrace(horizon=50.0, busy_intervals=())
        )
        assert behavior.is_idle


class TestStationSpecTrace:
    def test_trace_kind_requires_trace(self, paper_owner):
        with pytest.raises(ValueError, match="needs a recorded trace"):
            StationSpec(owner=paper_owner, demand_kind="trace")

    def test_trace_without_trace_kind_rejected(self, paper_owner):
        trace = OwnerActivityTrace(horizon=10.0, busy_intervals=())
        with pytest.raises(ValueError, match="only applies to demand_kind='trace'"):
            StationSpec(owner=paper_owner, trace=trace)

    def test_trace_kind_rejects_demand_kwargs(self, paper_owner):
        trace = OwnerActivityTrace(horizon=10.0, busy_intervals=((1.0, 2.0),))
        with pytest.raises(ValueError, match="demand_kwargs do not apply"):
            StationSpec(
                owner=paper_owner,
                demand_kind="trace",
                demand_kwargs={"squared_cv": 4.0},
                trace=trace,
            )

    def test_from_trace_derives_fitted_owner(self):
        trace = OwnerActivityTrace(
            horizon=100.0, busy_intervals=((0.0, 4.0), (50.0, 56.0))
        )
        spec = StationSpec.from_trace(trace)
        assert spec.demand_kind == "trace"
        assert spec.trace is trace
        assert spec.owner.demand == pytest.approx(5.0)  # mean burst
        assert spec.utilization == pytest.approx(0.1)

    def test_from_trace_rejects_saturated_trace(self):
        trace = OwnerActivityTrace(horizon=10.0, busy_intervals=((0.0, 10.0),))
        with pytest.raises(ValueError, match="utilization >= 1"):
            StationSpec.from_trace(trace)

    def test_direct_construction_rejects_saturated_trace(self, paper_owner):
        """The guard must hold for directly built specs too — an always-busy
        owner would preempt the task forever and hang the simulation."""
        trace = OwnerActivityTrace(horizon=10.0, busy_intervals=((0.0, 10.0),))
        with pytest.raises(ValueError, match="utilization >= 1"):
            StationSpec(owner=paper_owner, demand_kind="trace", trace=trace)

    def test_from_traces_scenario(self, busy_owner):
        traces = _traces(busy_owner, count=3, horizon=5_000.0)
        scenario = ScenarioSpec.from_traces(traces)
        assert scenario.workstations == 3
        assert all(s.demand_kind == "trace" for s in scenario.stations)

    def test_specs_stay_hashable(self):
        trace = OwnerActivityTrace(horizon=10.0, busy_intervals=((1.0, 2.0),))
        a = StationSpec.from_trace(trace)
        b = StationSpec.from_trace(trace)
        assert a == b and hash(a) == hash(b)


class TestBackendSupport:
    @pytest.mark.parametrize("mode", ["monte-carlo", "discrete-time"])
    def test_discrete_backends_reject_traces(self, mode, busy_owner):
        traces = _traces(busy_owner, count=2, horizon=2_000.0)
        config = SimulationConfig.from_scenario(
            ScenarioSpec.from_traces(traces), task_demand=20,
            num_jobs=20, num_batches=4,
        )
        with pytest.raises(ValueError, match="cannot replay recorded owner traces"):
            run_simulation(config, mode)

    def test_event_driven_measures_trace_utilization(self, busy_owner):
        traces = _traces(busy_owner, count=2, horizon=20_000.0)
        config = SimulationConfig.from_scenario(
            ScenarioSpec.from_traces(traces), task_demand=50.0,
            num_jobs=150, num_batches=5, seed=3,
        )
        result = run_simulation(config, "event-driven")
        nominal = float(np.mean([t.utilization for t in traces]))
        assert result.measured_owner_utilization == pytest.approx(nominal, abs=0.03)

    def test_run_vectorized_routes_traces_to_the_kernel(self, busy_owner):
        # The direct sampler cannot express trace replay, but the array
        # kernel can: an event-driven trace point runs on the event-kernel
        # backend (bitwise-equal to the oracle run).
        traces = _traces(busy_owner, count=2, horizon=2_000.0)
        config = SimulationConfig.from_scenario(
            ScenarioSpec.from_traces(traces), task_demand=20.0,
            num_jobs=20, num_batches=4,
        )
        with pytest.raises(ValueError, match="cannot replay recorded owner traces"):
            SweepRunner(jobs=1).run([config], mode="monte-carlo-max")
        outcome = SweepRunner(jobs=1).run([config], mode="event-driven")
        assert outcome[0].mode == "event-kernel"
        oracle = run_simulation(config, "event-driven")
        np.testing.assert_array_equal(outcome[0].job_times, oracle.job_times)


class TestTraceReduction:
    def test_trace_from_fitted_distribution_matches_fitted_run(self, busy_owner):
        """The ISSUE's reduction: replaying traces *generated from* a fitted
        owner distribution must agree with simulating the distribution
        itself, within the batch-means CI of the two runs."""
        workstations = 4
        traces = _traces(busy_owner, count=workstations, horizon=50_000.0)
        trace_config = SimulationConfig.from_scenario(
            ScenarioSpec.from_traces(traces),
            task_demand=50.0, num_jobs=400, num_batches=10, seed=3,
        )
        fitted_config = SimulationConfig.from_scenario(
            ScenarioSpec.homogeneous(workstations, busy_owner),
            task_demand=50.0, num_jobs=400, num_batches=10, seed=3,
        )
        replayed = run_simulation(trace_config, "event-driven")
        fitted = run_simulation(fitted_config, "event-driven")
        tolerance = (
            replayed.job_time_interval.half_width
            + fitted.job_time_interval.half_width
        )
        assert abs(replayed.mean_job_time - fitted.mean_job_time) <= tolerance


class TestTraceCaching:
    def test_fingerprint_covers_the_trace_itself(self, busy_owner):
        """Two different traces with identical fitted summaries must not
        collide on one digest."""
        a = OwnerActivityTrace(horizon=100.0, busy_intervals=((0.0, 10.0),))
        b = OwnerActivityTrace(horizon=100.0, busy_intervals=((50.0, 60.0),))
        configs = [
            SimulationConfig.from_scenario(
                ScenarioSpec(stations=(StationSpec.from_trace(trace),)),
                task_demand=20.0, num_jobs=20, num_batches=4,
            )
            for trace in (a, b)
        ]
        prints = {config_fingerprint(cfg, "event-driven") for cfg in configs}
        assert len(prints) == 2

    def test_trace_run_round_trips_through_cache(self, tmp_path, busy_owner):
        traces = _traces(busy_owner, count=2, horizon=5_000.0)
        config = SimulationConfig.from_scenario(
            ScenarioSpec.from_traces(traces), task_demand=30.0,
            num_jobs=60, num_batches=4, seed=5,
        )
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        first = runner.run([config], mode="event-driven")
        second = runner.run([config], mode="event-driven")
        assert first.simulated == 1 and second.cache_hits == 1
        np.testing.assert_array_equal(first[0].job_times, second[0].job_times)
