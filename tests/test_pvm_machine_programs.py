"""Tests for the PVM virtual machine and the parallel programs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import OwnerSpec
from repro.pvm import (
    ANY_SOURCE,
    MessageBuffer,
    PvmError,
    VirtualMachine,
    run_local_computation,
    run_self_scheduling,
)
from repro.pvm.programs import RESULT_TAG


def make_vm(hosts=4, utilization=0.0, seed=0, **kwargs) -> VirtualMachine:
    owner = OwnerSpec(demand=10.0, utilization=utilization)
    return VirtualMachine(num_hosts=hosts, owner=owner, seed=seed, **kwargs)


class TestVirtualMachine:
    def test_host_lookup(self):
        vm = make_vm(hosts=3)
        assert vm.num_hosts == 3
        assert vm.host(0).index == 0
        with pytest.raises(PvmError):
            vm.host(3)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_vm(hosts=0)
        with pytest.raises(ValueError):
            make_vm(hosts=1, spawn_overhead=-1.0)

    def test_spawn_assigns_increasing_tids_and_round_robin_hosts(self):
        vm = make_vm(hosts=2)

        def noop(ctx):
            yield ctx.vm.env.timeout(0)
            return ctx.host

        tid_a = vm.spawn(noop)
        tid_b = vm.spawn(noop)
        tid_c = vm.spawn(noop)
        assert tid_a < tid_b < tid_c
        hosts = [vm.task_info(t).host for t in (tid_a, tid_b, tid_c)]
        assert hosts == [0, 1, 0]
        vm.env.run()
        assert all(vm.task_info(t).finished for t in (tid_a, tid_b, tid_c))

    def test_unknown_tid(self):
        vm = make_vm()
        with pytest.raises(PvmError):
            vm.task_info(999)
        with pytest.raises(PvmError):
            vm.mailbox(999)

    def test_spawn_to_invalid_host(self):
        vm = make_vm(hosts=2)

        def noop(ctx):
            yield ctx.vm.env.timeout(0)

        with pytest.raises(PvmError):
            vm.spawn(noop, host=7)

    def test_run_program_returns_value(self):
        vm = make_vm()

        def main(ctx):
            yield ctx.vm.env.timeout(5)
            return "finished"

        assert vm.run_program(main) == "finished"
        assert vm.env.now == pytest.approx(5.0)

    def test_run_program_reusable(self):
        vm = make_vm()

        def main(ctx, value):
            yield ctx.vm.env.timeout(1)
            return value

        assert vm.run_program(main, 1) == 1
        assert vm.run_program(main, 2) == 2
        assert vm.env.now == pytest.approx(2.0)

    def test_measured_owner_utilizations_length(self):
        vm = make_vm(hosts=5)
        assert len(vm.measured_owner_utilizations()) == 5


class TestContextMessaging:
    def test_send_recv_between_tasks(self):
        vm = make_vm(hosts=2)

        def child(ctx):
            message = yield from ctx.recv()
            value = message.buffer.unpack_int()
            reply = MessageBuffer().pack_int(value * 2)
            yield from ctx.send(ctx.parent(), reply, tag=9)
            return value

        def main(ctx):
            tid = yield from ctx.spawn(child, host=1)
            out = MessageBuffer().pack_int(21)
            yield from ctx.send(tid, out, tag=1)
            reply = yield from ctx.recv(source=tid, tag=9)
            return reply.buffer.unpack_int()

        assert vm.run_program(main) == 42

    def test_selective_receive_by_tag(self):
        vm = make_vm(hosts=1)

        def child(ctx, tag):
            buf = MessageBuffer().pack_int(tag)
            yield from ctx.send(ctx.parent(), buf, tag=tag)

        def main(ctx):
            yield from ctx.spawn(child, 1)
            yield from ctx.spawn(child, 2)
            # Wait for the tag-2 message first even if tag-1 arrives earlier.
            second = yield from ctx.recv(tag=2)
            first = yield from ctx.recv(tag=1)
            return (first.buffer.unpack_int(), second.buffer.unpack_int())

        assert vm.run_program(main) == (1, 2)

    def test_probe(self):
        vm = make_vm(hosts=1)

        def child(ctx):
            buf = MessageBuffer().pack_int(0)
            yield from ctx.send(ctx.parent(), buf, tag=3)

        def main(ctx):
            before = ctx.probe(tag=3)
            yield from ctx.spawn(child)
            yield from ctx.delay(1.0)
            after = ctx.probe(tag=3)
            yield from ctx.recv(tag=3)
            return (before, after)

        assert vm.run_program(main) == (False, True)

    def test_broadcast(self):
        vm = make_vm(hosts=3)

        def child(ctx):
            message = yield from ctx.recv()
            return message.buffer.unpack_int()

        def main(ctx):
            tids = []
            for i in range(3):
                tid = yield from ctx.spawn(child, host=i)
                tids.append(tid)
            payload = MessageBuffer().pack_int(77)
            yield from ctx.broadcast(tids, payload, tag=0)
            for tid in tids:
                yield ctx.vm.task_info(tid).process
            return [ctx.vm.task_info(t).exit_value for t in tids]

        assert vm.run_program(main) == [77, 77, 77]

    def test_send_requires_buffer(self):
        vm = make_vm(hosts=1)

        def main(ctx):
            tid = yield from ctx.spawn(lambda c: iter(()))
            yield from ctx.send(tid, {"not": "a buffer"}, tag=0)  # type: ignore[arg-type]

        with pytest.raises(TypeError):
            vm.run_program(main)

    def test_spawn_overhead_charged(self):
        vm = make_vm(hosts=1, spawn_overhead=2.5)

        def child(ctx):
            yield ctx.vm.env.timeout(0)

        def main(ctx):
            yield from ctx.spawn(child)
            return ctx.now

        assert vm.run_program(main) == pytest.approx(2.5)

    def test_config_and_identity(self):
        vm = make_vm(hosts=3)

        def main(ctx):
            yield ctx.vm.env.timeout(0)
            hosts, _tasks = ctx.config()
            return (ctx.mytid(), ctx.parent(), hosts, ctx.host)

        tid, parent, hosts, host = vm.run_program(main, host=2)
        assert parent is None
        assert hosts == 3
        assert host == 2
        assert tid >= 1

    def test_compute_runs_on_named_host(self):
        vm = make_vm(hosts=2)

        def main(ctx):
            execution = yield from ctx.compute(25.0)
            return (execution.workstation, execution.elapsed)

        workstation, elapsed = vm.run_program(main, host=1)
        assert workstation == 1
        assert elapsed == pytest.approx(25.0)

    def test_delay_negative_rejected(self):
        vm = make_vm(hosts=1)

        def main(ctx):
            yield from ctx.delay(-1.0)

        with pytest.raises(ValueError):
            vm.run_program(main)


class TestLocalComputation:
    def test_dedicated_hosts_perfect_split(self):
        vm = make_vm(hosts=4, utilization=0.0)
        result = run_local_computation(vm, job_demand=400.0)
        assert result.workers == 4
        assert result.max_task_time == pytest.approx(100.0)
        assert result.mean_task_time == pytest.approx(100.0)
        assert result.total_preemptions == 0
        assert len(result.timings) == 4
        assert [t.host for t in result.timings] == [0, 1, 2, 3]

    def test_interference_lengthens_max_task_time(self):
        dedicated = run_local_computation(make_vm(hosts=6, utilization=0.0, seed=3), 1200.0)
        loaded = run_local_computation(make_vm(hosts=6, utilization=0.25, seed=3), 1200.0)
        assert loaded.max_task_time > dedicated.max_task_time

    def test_speedup_versus_single(self):
        vm1 = make_vm(hosts=1, utilization=0.0)
        single = run_local_computation(vm1, job_demand=600.0)
        vm6 = make_vm(hosts=6, utilization=0.0)
        parallel = run_local_computation(vm6, job_demand=600.0)
        assert parallel.speedup_versus(single.max_task_time) == pytest.approx(6.0)

    def test_custom_demands(self):
        vm = make_vm(hosts=3, utilization=0.0)
        result = run_local_computation(vm, job_demand=60.0, demands=[10.0, 20.0, 30.0])
        assert result.max_task_time == pytest.approx(30.0)

    def test_too_many_workers_rejected(self):
        vm = make_vm(hosts=2)
        with pytest.raises(ValueError):
            run_local_computation(vm, job_demand=100.0, workers=5)

    def test_mismatched_demands_rejected(self):
        vm = make_vm(hosts=3)
        with pytest.raises(ValueError):
            run_local_computation(vm, job_demand=100.0, demands=[50.0, 50.0])


class TestSelfScheduling:
    def test_all_chunks_completed(self):
        vm = make_vm(hosts=4, utilization=0.0)
        result = run_self_scheduling(vm, job_demand=400.0, chunks_per_worker=4)
        assert result.chunks == 16
        assert sum(result.chunk_counts) == 16
        assert result.makespan >= 100.0  # cannot beat the perfect split

    def test_even_chunks_on_dedicated_cluster(self):
        vm = make_vm(hosts=4, utilization=0.0)
        result = run_self_scheduling(vm, job_demand=400.0, chunks_per_worker=3)
        assert result.chunk_counts == (3, 3, 3, 3)
        assert result.load_imbalance == pytest.approx(1.0, abs=0.05)

    def test_dynamic_beats_or_matches_static_under_heavy_interference(self):
        # With heavy owner interference, the work-queue variant should not be
        # meaningfully slower than the static split, and usually is faster.
        static = run_local_computation(
            make_vm(hosts=6, utilization=0.3, seed=21), 1800.0
        )
        dynamic = run_self_scheduling(
            make_vm(hosts=6, utilization=0.3, seed=22), 1800.0, chunks_per_worker=6
        )
        assert dynamic.makespan <= static.max_task_time * 1.15

    def test_invalid_chunking(self):
        vm = make_vm(hosts=2)
        with pytest.raises(ValueError):
            run_self_scheduling(vm, job_demand=100.0, chunks_per_worker=0)
