"""Property-based tests for the simulation kernel, message buffers and stats.

Invariants covered:

* DES kernel: events fire in non-decreasing time order; the preemptive CPU
  always conserves work (a task's busy time equals its demand regardless of
  the preemption pattern);
* message buffers: any pack sequence unpacks to the same values in the same
  order, and the simulated byte size is non-negative and additive;
* batch means: the estimate is invariant to batching (same mean as the raw
  data over the used prefix) and the CI half-width is non-negative;
* Store: FIFO order is preserved for any put/get interleaving.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim import Environment, Interrupt, PreemptiveResource, Store
from repro.pvm import MessageBuffer
from repro.stats import batch_means_interval, batch_observations, t_confidence_interval


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=25))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        env = Environment()
        fired: list[float] = []

        def waiter(env, delay):
            yield env.timeout(delay)
            fired.append(env.now)

        for delay in delays:
            env.process(waiter(env, delay))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)
        assert env.now == pytest.approx(max(delays))

    @given(
        task_demand=st.floats(min_value=1.0, max_value=50.0),
        owner_arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=30.0),   # inter-arrival gap
                st.floats(min_value=0.5, max_value=10.0),   # owner demand
            ),
            min_size=0,
            max_size=6,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_preempted_task_conserves_work(self, task_demand, owner_arrivals):
        """Whatever the owner does, the task receives exactly its demand of CPU."""
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        busy_time = []

        def task(env):
            remaining = task_demand
            received = 0.0
            while remaining > 1e-12:
                with cpu.request(priority=10) as req:
                    yield req
                    start = env.now
                    try:
                        yield env.timeout(remaining)
                        received += remaining
                        remaining = 0.0
                    except Interrupt:
                        received += env.now - start
                        remaining -= env.now - start
            busy_time.append(received)

        def owner(env):
            for gap, demand in owner_arrivals:
                yield env.timeout(gap)
                with cpu.request(priority=0) as req:
                    yield req
                    yield env.timeout(demand)

        env.process(task(env))
        env.process(owner(env))
        env.run()
        assert busy_time and busy_time[0] == pytest.approx(task_demand, rel=1e-9)

    @given(items=st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_store_preserves_fifo(self, items):
        env = Environment()
        store = Store(env)
        received: list[int] = []

        def producer(env):
            for item in items:
                yield store.put(item)
                yield env.timeout(0.1)

        def consumer(env):
            for _ in items:
                value = yield store.get()
                received.append(value)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == items


# Strategy describing one packable item: (kind, value).
_pack_item = st.one_of(
    st.tuples(st.just("int"), st.integers(min_value=-(2**31), max_value=2**31)),
    st.tuples(st.just("double"), st.floats(allow_nan=False, allow_infinity=False, width=32)),
    st.tuples(st.just("string"), st.text(max_size=20)),
    st.tuples(
        st.just("int_array"),
        st.lists(st.integers(min_value=-1000, max_value=1000), max_size=10),
    ),
    st.tuples(
        st.just("double_array"),
        st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=10),
    ),
)


class TestMessageBufferProperties:
    @given(items=st.lists(_pack_item, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_roundtrip(self, items):
        buf = MessageBuffer()
        for kind, value in items:
            getattr(buf, f"pack_{kind}")(value)
        assert len(buf) == len(items)
        assert buf.nbytes >= 0
        clone = buf.copy()
        for kind, value in items:
            unpacked = getattr(clone, f"unpack_{kind}")()
            if kind == "int":
                assert unpacked == int(value)
            elif kind == "double":
                assert unpacked == pytest.approx(float(value), rel=1e-6, abs=1e-6)
            elif kind == "string":
                assert unpacked == value
            else:
                np.testing.assert_allclose(
                    np.asarray(unpacked, dtype=float),
                    np.asarray(value, dtype=float),
                    rtol=1e-6,
                )
        assert clone.remaining == 0

    @given(
        left=st.lists(_pack_item, max_size=8),
        right=st.lists(_pack_item, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_nbytes_additive(self, left, right):
        def build(items):
            buf = MessageBuffer()
            for kind, value in items:
                getattr(buf, f"pack_{kind}")(value)
            return buf

        combined = build(left + right)
        assert combined.nbytes == build(left).nbytes + build(right).nbytes


class TestStatsProperties:
    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=40,
            max_size=400,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_means_consistent_with_raw_mean(self, data):
        num_batches = 20
        result = batch_means_interval(data, num_batches=num_batches)
        usable = (len(data) // num_batches) * num_batches
        assert result.mean == pytest.approx(float(np.mean(data[:usable])), rel=1e-9, abs=1e-6)
        assert result.half_width >= 0.0
        assert result.total_observations == len(data)

    @given(
        data=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=100,
        ),
        confidence=st.floats(min_value=0.5, max_value=0.99),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_contains_sample_mean(self, data, confidence):
        ci = t_confidence_interval(data, confidence)
        assert ci.lower <= float(np.mean(data)) <= ci.upper
        assert ci.half_width >= 0.0

    @given(
        data=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=20,
            max_size=200,
        ),
        num_batches=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_observation_count(self, data, num_batches):
        means = batch_observations(data, num_batches)
        assert means.shape == (num_batches,)
        # Every batch mean lies within the range of the raw data.
        assert means.min() >= min(data) - 1e-9
        assert means.max() <= max(data) + 1e-9
