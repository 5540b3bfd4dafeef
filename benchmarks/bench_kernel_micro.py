"""Micro-benchmarks of the substrates: analytic kernel, DES kernel, MC sampler.

Not a paper figure — these catch performance regressions in the hot paths the
figure benchmarks depend on.
"""

import numpy as np

from repro.backends import get_backend
from repro.cluster import SimulationConfig
from repro.core import OwnerSpec, expected_job_time
from repro.desim import Environment, PreemptiveResource, Interrupt


def test_analytic_job_time_kernel(benchmark):
    value = benchmark(expected_job_time, 1000, 100, 10.0, 0.0111)
    assert 1000 < value < 1000 + 1000 * 10


def test_monte_carlo_sampler_throughput(benchmark):
    config = SimulationConfig(
        workstations=100,
        task_demand=100,
        owner=OwnerSpec(demand=10.0, utilization=0.1),
        num_jobs=20_000,
        seed=0,
    )

    sampler = get_backend("monte-carlo")
    result = benchmark(lambda: sampler(config).run())
    assert result.num_jobs == 20_000


def test_des_kernel_event_throughput(benchmark):
    def run_kernel():
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)

        def task(env):
            remaining = 1000.0
            while remaining > 0:
                with cpu.request(priority=1) as req:
                    yield req
                    start = env.now
                    try:
                        yield env.timeout(remaining)
                        remaining = 0
                    except Interrupt:
                        remaining -= env.now - start

        def owner(env):
            for _ in range(200):
                yield env.timeout(7.0)
                with cpu.request(priority=0) as req:
                    yield req
                    yield env.timeout(3.0)

        env.process(task(env))
        env.process(owner(env))
        env.run()
        return env.now

    final_time = benchmark(run_kernel)
    assert final_time > 1000.0
