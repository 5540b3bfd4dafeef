"""Regression tests for the true positives the simlint pass flagged.

Each test pins the *behavioural* consequence of a finding the linter caught
in the shipped tree, so the fixes cannot quietly revert:

* SL003 — ``owner_process`` used to swallow an ``Interrupt`` with a bare
  ``except Interrupt: pass``; a killed owner would resume as if nothing
  happened.  It must now propagate the interrupt while still closing its
  busy monitor.
* SL004 — the sweep runner's vectorized path called
  ``MonteCarloSampler.run_batch`` on the class, which ignored replacement
  backends registered under the same mode.  It must dispatch through
  ``get_backend``.
* The base-class ``run_batch`` hook must refuse on backends that do not
  override it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    SimulationConfig,
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
    """SL004 regression: group sampling honours replacement backends."""

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
        original = get_backend("monte-carlo")
        calls: list[int] = []

        class InstrumentedSampler(original):  # type: ignore[misc, valid-type]
            name = "monte-carlo"

            @classmethod
            def run_batch(cls, configs, seed=None):
                calls.append(len(configs))
                return super().run_batch(configs, seed)

        register_backend(InstrumentedSampler, replace=True)
        try:
            outcome = SweepRunner(jobs=1, cache=None).run(
                self._configs(), vectorized=True
            )
        finally:
            register_backend(original, replace=True)
        assert calls == [2], (
            "group sampling bypassed the registry: the replacement backend's "
            "run_batch was never called"
        )
        assert len(outcome.results) == 2
        assert outcome.vectorized_groups == 1

    def test_base_run_batch_refuses_unbatched_backend(self):
        class Unbatched(SimulationBackend):
            name = "unbatched-test-backend"

            def run(self):  # pragma: no cover - never run
                return None

        with pytest.raises(NotImplementedError, match="batched"):
            Unbatched.run_batch([])

    def test_batched_capability_matches_override(self):
        # The backends callers batch through must actually override the hook.
        for mode in ("monte-carlo", "event-kernel"):
            hook = get_backend(mode).run_batch.__func__
            assert hook is not SimulationBackend.run_batch.__func__
