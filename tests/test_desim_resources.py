"""Tests for desim resources: FIFO, priority, preemptive, and Store."""

from __future__ import annotations

import pytest

from repro.desim import (
    Environment,
    Interrupt,
    Preempted,
    PreemptiveResource,
    PriorityResource,
    Resource,
    Store,
)


class TestResource:
    def test_capacity_respected(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        active = []
        peak = []

        def user(env, resource, hold):
            with resource.request() as req:
                yield req
                active.append(1)
                peak.append(len(active))
                yield env.timeout(hold)
                active.pop()

        for _ in range(5):
            env.process(user(env, resource, 3))
        env.run()
        assert max(peak) == 2

    def test_fifo_order(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def user(env, resource, name):
            with resource.request() as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        for name in "abcd":
            env.process(user(env, resource, name))
        env.run()
        assert order == list("abcd")

    def test_release_frees_slot(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        times = []

        def user(env, resource):
            with resource.request() as req:
                yield req
                times.append(env.now)
                yield env.timeout(2)

        env.process(user(env, resource))
        env.process(user(env, resource))
        env.run()
        assert times == [0.0, 2.0]

    def test_count_property(self):
        env = Environment()
        resource = Resource(env, capacity=3)
        assert resource.count == 0

        def holder(env, resource):
            with resource.request() as req:
                yield req
                yield env.timeout(5)

        env.process(holder(env, resource))
        env.run(until=1)
        assert resource.count == 1

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_cancel_queued_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        got = []

        def holder(env):
            with resource.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = resource.request()
            yield env.timeout(1)
            req.cancel()
            got.append(req.triggered)

        env.process(holder(env))
        env.process(impatient(env))
        env.run()
        assert got == [False]


class TestPriorityResource:
    def test_priority_order_over_fifo(self):
        env = Environment()
        resource = PriorityResource(env, capacity=1)
        order = []

        def holder(env):
            with resource.request(priority=5) as req:
                yield req
                yield env.timeout(5)

        def user(env, name, priority, arrival):
            yield env.timeout(arrival)
            with resource.request(priority=priority) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        env.process(holder(env))
        env.process(user(env, "low", 10, 1))
        env.process(user(env, "high", 0, 2))
        env.run()
        assert order == ["high", "low"]

    def test_equal_priority_fifo(self):
        env = Environment()
        resource = PriorityResource(env, capacity=1)
        order = []

        def user(env, name, arrival):
            yield env.timeout(arrival)
            with resource.request(priority=1) as req:
                yield req
                order.append(name)
                yield env.timeout(1)

        env.process(user(env, "first", 0.0))
        env.process(user(env, "second", 0.5))
        env.run()
        assert order == ["first", "second"]


class TestPreemptiveResource:
    def test_high_priority_preempts_low(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        events = []

        def low(env):
            remaining = 10.0
            while remaining > 0:
                with cpu.request(priority=10) as req:
                    yield req
                    start = env.now
                    try:
                        yield env.timeout(remaining)
                        remaining = 0
                    except Interrupt as interrupt:
                        remaining -= env.now - start
                        assert isinstance(interrupt.cause, Preempted)
                        events.append(("preempted", env.now))
            events.append(("low-done", env.now))

        def high(env):
            yield env.timeout(3)
            with cpu.request(priority=0) as req:
                yield req
                yield env.timeout(4)
            events.append(("high-done", env.now))

        env.process(low(env))
        env.process(high(env))
        env.run()
        assert ("preempted", 3.0) in events
        assert ("high-done", 7.0) in events
        assert events[-1] == ("low-done", 14.0)

    def test_equal_priority_does_not_preempt(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        preemptions = []

        def first(env):
            with cpu.request(priority=1) as req:
                yield req
                try:
                    yield env.timeout(5)
                except Interrupt:
                    preemptions.append(env.now)

        def second(env):
            yield env.timeout(1)
            with cpu.request(priority=1) as req:
                yield req
                yield env.timeout(1)

        env.process(first(env))
        env.process(second(env))
        env.run()
        assert preemptions == []

    def test_no_preempt_flag_respected(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        preemptions = []

        def low(env):
            with cpu.request(priority=10) as req:
                yield req
                try:
                    yield env.timeout(5)
                except Interrupt:
                    preemptions.append(env.now)

        def polite_high(env):
            yield env.timeout(1)
            with cpu.request(priority=0, preempt=False) as req:
                yield req
                yield env.timeout(1)

        env.process(low(env))
        env.process(polite_high(env))
        env.run()
        assert preemptions == []

    def test_preempted_cause_fields(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        causes = []

        def low(env):
            with cpu.request(priority=10) as req:
                yield req
                try:
                    yield env.timeout(100)
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)

        def high(env):
            yield env.timeout(7)
            with cpu.request(priority=0) as req:
                yield req
                yield env.timeout(1)

        env.process(low(env))
        env.process(high(env))
        env.run()
        assert len(causes) == 1
        cause = causes[0]
        assert isinstance(cause, Preempted)
        assert cause.resource is cpu
        assert cause.usage_since == 0.0

    def test_owner_like_workload_timing(self):
        # A task of demand 10 preempted once by an owner process of demand 5
        # arriving at t=4 must finish at exactly 15 (task + owner demand).
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        done = []

        def task(env):
            remaining = 10.0
            while remaining > 0:
                with cpu.request(priority=1) as req:
                    yield req
                    start = env.now
                    try:
                        yield env.timeout(remaining)
                        remaining = 0
                    except Interrupt:
                        remaining -= env.now - start
            done.append(env.now)

        def owner(env):
            yield env.timeout(4)
            with cpu.request(priority=0) as req:
                yield req
                yield env.timeout(5)

        env.process(task(env))
        env.process(owner(env))
        env.run()
        assert done == [15.0]


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        received = []

        def producer(env):
            yield store.put("item-1")
            yield store.put("item-2")

        def consumer(env):
            a = yield store.get()
            b = yield store.get()
            received.extend([a, b])

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert received == ["item-1", "item-2"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        times = []

        def consumer(env):
            item = yield store.get()
            times.append((env.now, item))

        def producer(env):
            yield env.timeout(5)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert times == [(5.0, "late")]

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        out = []

        def producer(env):
            for i in range(5):
                yield store.put(i)

        def consumer(env):
            for _ in range(5):
                item = yield store.get()
                out.append(item)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert out == [0, 1, 2, 3, 4]

    def test_bounded_capacity_blocks_put(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(4)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-a", 0.0) in log
        assert ("put-b", 4.0) in log

    def test_len(self):
        env = Environment()
        store = Store(env)

        def producer(env):
            yield store.put(1)
            yield store.put(2)

        env.process(producer(env))
        env.run()
        assert len(store) == 2

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_multiple_consumers(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, name):
            item = yield store.get()
            got.append((name, item))

        def producer(env):
            yield env.timeout(1)
            yield store.put("x")
            yield env.timeout(1)
            yield store.put("y")

        env.process(consumer(env, "c1"))
        env.process(consumer(env, "c2"))
        env.process(producer(env))
        env.run()
        assert got == [("c1", "x"), ("c2", "y")]
