"""Tests for the discrete-event simulation kernel (events + core)."""

from __future__ import annotations

import pytest

from repro.desim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    Timeout,
)


class TestEnvironmentBasics:
    def test_clock_starts_at_zero(self):
        env = Environment()
        assert env.now == 0.0

    def test_custom_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0

    def test_run_empty_schedule_returns_none(self):
        env = Environment()
        assert env.run() is None

    def test_step_on_empty_schedule_raises(self):
        env = Environment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_peek_empty_is_infinite(self):
        env = Environment()
        assert env.peek() == float("inf")

    def test_run_until_time(self):
        env = Environment()

        def ticker(env, log):
            while True:
                yield env.timeout(1)
                log.append(env.now)

        log: list[float] = []
        env.process(ticker(env, log))
        env.run(until=5)
        assert env.now == 5.0
        assert log == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError):
            env.run(until=5)


class TestTimeouts:
    def test_timeout_ordering(self):
        env = Environment()
        log = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(worker(env, "slow", 3))
        env.process(worker(env, "fast", 1))
        env.process(worker(env, "medium", 2))
        env.run()
        assert log == [(1.0, "fast"), (2.0, "medium"), (3.0, "slow")]

    def test_timeout_value(self):
        env = Environment()
        results = []

        def proc(env):
            value = yield env.timeout(2, value="payload")
            results.append(value)

        env.process(proc(env))
        env.run()
        assert results == ["payload"]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_cannot_be_triggered_manually(self):
        env = Environment()
        timeout = env.timeout(1)
        with pytest.raises(RuntimeError):
            timeout.succeed()
        with pytest.raises(RuntimeError):
            timeout.fail(RuntimeError("no"))

    def test_simultaneous_timeouts_fifo(self):
        env = Environment()
        log = []

        def worker(env, name):
            yield env.timeout(1)
            log.append(name)

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert log == ["a", "b", "c"]


class TestEvents:
    def test_succeed_and_value(self):
        env = Environment()
        event = env.event()
        received = []

        def waiter(env, event):
            value = yield event
            received.append(value)

        env.process(waiter(env, event))
        event.succeed(42)
        env.run()
        assert received == [42]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(RuntimeError):
            event.succeed(2)

    def test_value_before_trigger_raises(self):
        env = Environment()
        event = env.event()
        with pytest.raises(RuntimeError):
            _ = event.value
        with pytest.raises(RuntimeError):
            _ = event.ok

    def test_fail_propagates_into_process(self):
        env = Environment()
        caught = []

        def waiter(env, event):
            try:
                yield event
            except ValueError as exc:
                caught.append(str(exc))

        event = env.event()
        env.process(waiter(env, event))
        event.fail(ValueError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_unhandled_failure_surfaces_in_run(self):
        env = Environment()
        event = env.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_fail_requires_exception(self):
        env = Environment()
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not-an-exception")  # type: ignore[arg-type]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def compute(env):
            yield env.timeout(1)
            return 99

        proc = env.process(compute(env))
        env.run()
        assert proc.value == 99
        assert not proc.is_alive

    def test_waiting_for_a_process(self):
        env = Environment()
        log = []

        def child(env):
            yield env.timeout(5)
            return "child-result"

        def parent(env):
            result = yield env.process(child(env))
            log.append((env.now, result))

        env.process(parent(env))
        env.run()
        assert log == [(5.0, "child-result")]

    def test_run_until_process(self):
        env = Environment()

        def child(env):
            yield env.timeout(3)
            return "done"

        proc = env.process(child(env))

        def background(env):
            while True:
                yield env.timeout(1)

        env.process(background(env))
        value = env.run(until=proc)
        assert value == "done"
        assert env.now == 3.0

    def test_process_failure_propagates_to_waiter(self):
        env = Environment()
        caught = []

        def failing(env):
            yield env.timeout(1)
            raise KeyError("inner")

        def parent(env):
            try:
                yield env.process(failing(env))
            except KeyError as exc:
                caught.append(exc.args[0])

        env.process(parent(env))
        env.run()
        assert caught == ["inner"]

    def test_unhandled_process_failure_raises_from_run(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("kaboom")

        env.process(failing(env))
        with pytest.raises(RuntimeError, match="kaboom"):
            env.run()

    def test_yielding_non_event_fails_process(self):
        env = Environment()

        def bad(env):
            yield 42  # not an event

        proc = env.process(bad(env))
        with pytest.raises(RuntimeError, match="non-event"):
            env.run()
        assert proc.triggered

    def test_non_generator_rejected(self):
        env = Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestInterrupts:
    def test_interrupt_cause_delivered(self):
        env = Environment()
        causes = []

        def victim(env):
            try:
                yield env.timeout(10)
            except Interrupt as interrupt:
                causes.append(interrupt.cause)

        def attacker(env, victim_proc):
            yield env.timeout(2)
            victim_proc.interrupt("why not")

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        env.run()
        assert causes == ["why not"]

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def victim(env):
            remaining = 10.0
            while remaining > 0:
                start = env.now
                try:
                    yield env.timeout(remaining)
                    remaining = 0
                except Interrupt:
                    remaining -= env.now - start
            log.append(env.now)

        def attacker(env, victim_proc):
            yield env.timeout(4)
            victim_proc.interrupt()

        victim_proc = env.process(victim(env))
        env.process(attacker(env, victim_proc))
        env.run()
        assert log == [10.0]

    def test_interrupting_finished_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        proc = env.process(quick(env))
        env.run()
        with pytest.raises(RuntimeError):
            proc.interrupt()

    def test_self_interrupt_rejected(self):
        env = Environment()
        errors = []

        def selfish(env):
            yield env.timeout(0)
            try:
                env.active_process.interrupt()
            except RuntimeError as exc:
                errors.append(str(exc))

        env.process(selfish(env))
        env.run()
        assert len(errors) == 1


class TestConditions:
    def test_all_of_waits_for_everything(self):
        env = Environment()
        finish_times = []

        def waiter(env):
            t1 = env.timeout(2)
            t2 = env.timeout(5)
            yield env.all_of([t1, t2])
            finish_times.append(env.now)

        env.process(waiter(env))
        env.run()
        assert finish_times == [5.0]

    def test_any_of_fires_on_first(self):
        env = Environment()
        finish_times = []

        def waiter(env):
            t1 = env.timeout(2)
            t2 = env.timeout(5)
            yield env.any_of([t1, t2])
            finish_times.append(env.now)

        env.process(waiter(env))
        env.run()
        assert finish_times == [2.0]

    def test_operator_composition(self):
        env = Environment()
        results = []

        def waiter(env):
            a = env.timeout(1, value="a")
            b = env.timeout(3, value="b")
            condition = yield (a & b)
            results.append(len(condition))

        env.process(waiter(env))
        env.run()
        assert results == [2]

    def test_or_operator(self):
        env = Environment()
        times = []

        def waiter(env):
            a = env.timeout(1)
            b = env.timeout(9)
            yield (a | b)
            times.append(env.now)

        env.process(waiter(env))
        env.run()
        assert times == [1.0]

    def test_empty_all_of_triggers_immediately(self):
        env = Environment()
        condition = env.all_of([])
        assert condition.triggered

    def test_all_of_with_process_events(self):
        env = Environment()

        def child(env, delay, value):
            yield env.timeout(delay)
            return value

        def parent(env, out):
            procs = [env.process(child(env, d, d * 10)) for d in (1, 2, 3)]
            yield env.all_of(procs)
            out.extend(p.value for p in procs)

        out: list[int] = []
        env.process(parent(env, out))
        env.run()
        assert out == [10, 20, 30]

    def test_mixed_environment_rejected(self):
        env1, env2 = Environment(), Environment()
        with pytest.raises(ValueError):
            AllOf(env1, [env1.timeout(1), env2.timeout(1)])
