"""Edge-case and failure-injection tests across modules.

These cover the awkward corners the main suites do not: failing condition
events, processes that die while holding resources, packaging metadata,
degenerate figure inputs, and the public package surface.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.desim import Environment, Interrupt, PreemptiveResource, Resource, Store
from repro.desim.events import ConditionValue
from repro.experiments import FigureResult, format_figure
from repro.pvm import MessageBuffer, PvmError, VirtualMachine
from repro.core import OwnerSpec


class TestPackageSurface:
    def test_version_and_exports(self):
        assert repro.__version__ == "1.1.0"
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_docstring_example(self):
        from repro import JobSpec, OwnerSpec, SystemSpec, compute_metrics, evaluate

        job = JobSpec(total_demand=1000)
        system = SystemSpec(workstations=20, owner=OwnerSpec(demand=10, utilization=0.1))
        metrics = compute_metrics(evaluate(job, system))
        assert metrics.task_ratio == pytest.approx(5.0)


class TestKernelFailureInjection:
    def test_process_dying_inside_with_releases_resource(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        acquired = []

        def dies_holding(env):
            with resource.request() as req:
                yield req
                yield env.timeout(1)
                raise RuntimeError("task crashed")

        def waiter(env):
            with resource.request() as req:
                yield req
                acquired.append(env.now)

        def supervisor(env):
            crashing = env.process(dies_holding(env))
            env.process(waiter(env))
            try:
                yield crashing
            except RuntimeError:
                pass

        env.process(supervisor(env))
        env.run()
        # The crash must not leak the resource slot: the waiter still runs.
        assert acquired == [1.0]
        assert resource.count == 0

    def test_anyof_failure_propagates(self):
        env = Environment()
        caught = []

        def failing(env):
            yield env.timeout(1)
            raise ValueError("inner failure")

        def waiter(env):
            slow = env.timeout(100)
            bad = env.process(failing(env))
            try:
                yield (slow | bad)
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter(env))
        env.run()
        assert caught == ["inner failure"]

    def test_condition_value_mapping(self):
        env = Environment()
        values = []

        def waiter(env):
            a = env.timeout(1, value="a")
            b = env.timeout(2, value="b")
            condition = yield env.all_of([a, b])
            assert isinstance(condition, ConditionValue)
            values.append(condition.todict())
            assert a in condition
            assert condition[a] == "a"

        env.process(waiter(env))
        env.run()
        assert list(values[0].values()) == ["a", "b"]

    def test_condition_value_unknown_key(self):
        env = Environment()
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        cv = ConditionValue([t1])
        with pytest.raises(KeyError):
            _ = cv[t2]

    def test_interrupt_while_waiting_on_store(self):
        env = Environment()
        store = Store(env)
        outcomes = []

        def consumer(env):
            try:
                yield store.get()
            except Interrupt:
                outcomes.append("interrupted")

        def interrupter(env, victim):
            yield env.timeout(3)
            victim.interrupt()

        victim = env.process(consumer(env))
        env.process(interrupter(env, victim))
        env.run()
        assert outcomes == ["interrupted"]

    def test_preemptive_resource_with_capacity_two(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=2)
        preemptions = []

        def low(env, name):
            with cpu.request(priority=5) as req:
                yield req
                try:
                    yield env.timeout(10)
                except Interrupt:
                    preemptions.append(name)

        def high(env):
            yield env.timeout(1)
            with cpu.request(priority=0) as req:
                yield req
                yield env.timeout(1)

        env.process(low(env, "a"))
        env.process(low(env, "b"))
        env.process(high(env))
        env.run()
        # Only one of the two low-priority users had to be evicted.
        assert len(preemptions) == 1


class TestPvmEdgeCases:
    def test_exit_value_before_completion_raises(self):
        vm = VirtualMachine(num_hosts=1, owner=OwnerSpec(demand=10, utilization=0.0))

        def slow(ctx):
            yield ctx.vm.env.timeout(100)

        tid = vm.spawn(slow)
        info = vm.task_info(tid)
        with pytest.raises(PvmError):
            _ = info.exit_value
        vm.env.run()
        assert info.finished
        assert info.exit_value is None

    def test_worker_failure_propagates_to_run_program(self):
        vm = VirtualMachine(num_hosts=1, owner=OwnerSpec(demand=10, utilization=0.0))

        def bad_worker(ctx):
            yield ctx.vm.env.timeout(1)
            raise RuntimeError("worker exploded")

        def master(ctx):
            tid = yield from ctx.spawn(bad_worker)
            yield ctx.vm.task_info(tid).process
            return "unreachable"

        with pytest.raises(RuntimeError, match="worker exploded"):
            vm.run_program(master)

    def test_message_buffer_repr_roundtrip_after_copy_of_empty(self):
        buf = MessageBuffer()
        clone = buf.copy()
        assert len(clone) == 0
        assert clone.nbytes == 0

    def test_live_tasks_tracking(self):
        vm = VirtualMachine(num_hosts=2, owner=OwnerSpec(demand=10, utilization=0.0))

        def worker(ctx, delay):
            yield ctx.vm.env.timeout(delay)

        vm.spawn(worker, 5.0)
        vm.spawn(worker, 10.0)
        assert len(vm.live_tasks()) == 2
        vm.env.run(until=6.0)
        assert len(vm.live_tasks()) == 1
        vm.env.run()
        assert len(vm.live_tasks()) == 0
        assert len(vm.tasks) == 2


class TestReportingEdgeCases:
    def test_single_point_figure(self):
        result = FigureResult(
            figure_id="edge",
            title="single point",
            x_label="x",
            y_label="y",
            series={"only": (np.array([1.0]), np.array([2.0]))},
        )
        text = format_figure(result)
        assert "single point" in text
        assert "only" in text

    def test_empty_series_dict(self):
        result = FigureResult(
            figure_id="empty",
            title="empty",
            x_label="x",
            y_label="y",
            series={},
        )
        text = format_figure(result)
        assert "empty" in text
        assert result.series_names() == []


class TestCliModuleEntry:
    def test_main_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "fig1" in proc.stdout
