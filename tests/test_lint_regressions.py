"""Regression tests for the true positives the simlint pass flagged.

Each test pins the *behavioural* consequence of a finding the linter caught
in the shipped tree, so the fixes cannot quietly revert:

* SL003 — ``owner_process`` used to swallow an ``Interrupt`` with a bare
  ``except Interrupt: pass``; a killed owner would resume as if nothing
  happened.  It must now propagate the interrupt while still closing its
  busy monitor.
* SL004 — the sweep runner's group-sampling path called
  ``MonteCarloSampler.run_batch`` on the class, which ignored replacement
  backends registered under the same mode.  The direct sampler is now the
  ``monte-carlo-max`` backend, and the runner must dispatch to whatever is
  registered under that name through ``get_backend``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    SimulationConfig,
    backend_names,
    get_backend,
    register_backend,
)
from repro.backends.base import SimulationBackend
from repro.cluster.owner import OwnerBehavior, owner_process
from repro.core import OwnerSpec
from repro.desim import (
    Environment,
    Interrupt,
    PreemptiveResource,
    TimeWeightedMonitor,
)
from repro.engine import SweepRunner


class TestOwnerInterruptPropagation:
    """SL003 regression: a killed owner must not resume silently."""

    def _env_with_owner(self):
        env = Environment()
        cpu = PreemptiveResource(env, capacity=1)
        behavior = OwnerBehavior.from_spec(
            OwnerSpec(demand=10.0, request_probability=1.0)
        )
        monitor = TimeWeightedMonitor("owner-busy")
        rng = np.random.default_rng(0)  # seeded: fine under SL001
        proc = env.process(owner_process(env, cpu, behavior, rng, monitor))
        return env, proc, monitor

    def test_interrupt_mid_demand_propagates(self):
        env, proc, monitor = self._env_with_owner()

        def killer(env, victim):
            # think=1 (geometric with P=1), so the owner is mid-demand at t=5
            yield env.timeout(5.0)
            victim.interrupt(cause="shutdown")

        env.process(killer(env, proc))
        with pytest.raises(Interrupt) as excinfo:
            env.run()
        assert excinfo.value.cause == "shutdown"

    def test_busy_monitor_closed_on_interrupt(self):
        env, proc, monitor = self._env_with_owner()

        def killer(env, victim):
            yield env.timeout(5.0)
            victim.interrupt()

        env.process(killer(env, proc))
        with pytest.raises(Interrupt):
            env.run()
        # The finally block must have recorded the busy signal dropping to 0
        # even though the interrupt killed the process.
        assert monitor.current == 0.0
        # busy from t=1 (first think ends) to t=5 (kill): average 4/5
        monitor.finalize(env.now)
        assert monitor.time_average == pytest.approx(4.0 / 5.0)

    def test_uninterrupted_owner_cycles_normally(self):
        env, proc, monitor = self._env_with_owner()
        env.run(until=25.0)
        # think=1 / use=10 cycles: busy 10 of every 11 time units
        monitor.finalize(env.now)
        assert monitor.time_average == pytest.approx(10.0 / 11.0, abs=0.1)


class TestRunBatchRegistryDispatch:
    """SL004 regression: the direct sampler honours replacement backends."""

    def _configs(self):
        return [
            SimulationConfig(
                workstations=5,
                task_demand=10,
                owner=OwnerSpec(demand=10.0, utilization=u),
                num_jobs=40,
                seed=7,
            )
            for u in (0.05, 0.1)
        ]

    def test_vectorized_sweep_uses_registered_backend(self):
        original = get_backend("monte-carlo-max")
        calls: list[int] = []

        class InstrumentedSampler(original):  # type: ignore[misc, valid-type]
            name = "monte-carlo-max"

            def run(self):
                calls.append(self.config.seed)
                return super().run()

        register_backend(InstrumentedSampler, replace=True)
        try:
            outcome = SweepRunner(jobs=1, cache=None).run(
                self._configs(), mode="monte-carlo-max"
            )
        finally:
            register_backend(original, replace=True)
        assert calls == [7, 7], (
            "the sweep bypassed the registry: the replacement backend's run "
            "was never called"
        )
        assert [result.mode for result in outcome] == ["monte-carlo-max"] * 2

    def test_batched_capability_matches_override(self):
        # No backend hook batches points any more: the event kernel's
        # run_batch, which shares one kernel across points, is its own.
        assert not hasattr(SimulationBackend, "run_batch")
        batching = [m for m in backend_names() if hasattr(get_backend(m), "run_batch")]
        assert batching == ["event-kernel"]
