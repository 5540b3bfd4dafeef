"""Tests of the array event kernel: agenda contract, bitwise oracle pinning.

Three layers, mirroring the kernel's guarantees:

* ``desim.Environment`` honours the ``(when, priority, tie)`` ordering
  contract the kernel's heap reproduces — the edge cases (simultaneous-event
  FIFO, urgent before normal, empty-agenda peek, events exactly at the
  horizon) are asserted here, and the kernel's side is pinned by the bitwise
  oracle tests below;
* the ``event-kernel`` backend is bitwise-identical to the generator
  oracles (``event-driven`` / ``open-system``) for every registered policy,
  closed and open, imbalanced and trace-driven;
* cross-point batching is composition-independent, and the schema-6 cache
  aliasing lets kernel results replay under the oracle modes and back.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.backends import (
    SimulationConfig,
    backend_names,
    get_backend,
    run_simulation,
)
from repro.cluster import OwnerBehavior, POLICY_NAMES
from repro.core import JobArrivalSpec, JobClassSpec, OwnerSpec, ScenarioSpec
from repro.desim import Environment, StreamRegistry
from repro.engine import ResultCache, config_fingerprint
from repro.kernel import KERNEL_POLICIES
from repro.obs import (
    SIM_EVENT_KINDS,
    SimEventTap,
    install_sim_tap,
    uninstall_sim_tap,
)
from repro.workload import generate_trace


# ---------------------------------------------------------------------------
# config builders
# ---------------------------------------------------------------------------


def _closed_config(policy: str, *, seed: int = 11, imbalance: float = 0.3):
    scenario = ScenarioSpec.homogeneous(
        4,
        OwnerSpec(demand=10.0, utilization=0.4),
        policy=policy,
        imbalance=imbalance,
    )
    return SimulationConfig.from_scenario(
        scenario, task_demand=40.0, num_jobs=40, num_batches=4, seed=seed
    )


def _open_config(policy: str, *, seed: int = 13, max_concurrent: int = 3):
    scenario = ScenarioSpec.homogeneous(
        3,
        OwnerSpec(demand=10.0, utilization=0.3),
        policy=policy,
        arrivals=JobArrivalSpec.poisson(
            rate=0.004, max_concurrent_jobs=max_concurrent
        ),
    )
    return SimulationConfig.from_scenario(
        scenario, task_demand=30.0, num_jobs=30, num_batches=4, seed=seed
    )


def _trace_config(policy: str, *, seed: int = 17):
    behavior = OwnerBehavior.from_spec(OwnerSpec(demand=10.0, utilization=0.3))
    streams = StreamRegistry(99)
    traces = [
        generate_trace(behavior, 5_000.0, streams.stream(f"trace-{w}"))
        for w in range(3)
    ]
    scenario = ScenarioSpec.from_traces(traces, policy=policy)
    return SimulationConfig.from_scenario(
        scenario, task_demand=30.0, num_jobs=25, num_batches=4, seed=seed
    )


#: Job-class mixes exercising each source shape of the space-shared loop.
_OPEN_CLASSES = (
    JobClassSpec.open("narrow", width=2, weight=0.75),
    JobClassSpec.open("wide", width=8, weight=0.25, priority=1),
)
_CLOSED_CLASSES = (
    JobClassSpec.closed("users", 3, population=3, think_time=200.0),
    JobClassSpec.closed("heavy", 8, population=1, think_time=500.0, priority=2),
)
_MIXED_CLASSES = (
    JobClassSpec.open("narrow", width=2, weight=1.0),
    JobClassSpec.closed("users", 4, population=2, think_time=150.0, priority=1),
)


def _space_shared_config(
    policy: str = "static",
    *,
    admission: str = "fcfs",
    admission_kwargs: tuple = (),
    classes: tuple = _OPEN_CLASSES,
    seed: int = 7,
    num_jobs: int = 50,
    imbalance: float = 0.0,
):
    if all(job_class.is_closed for job_class in classes):
        arrivals = JobArrivalSpec.closed_loop(
            classes, admission_policy=admission, admission_kwargs=admission_kwargs
        )
    else:
        arrivals = JobArrivalSpec.poisson(
            rate=0.004,
            job_classes=classes,
            admission_policy=admission,
            admission_kwargs=admission_kwargs,
        )
    scenario = ScenarioSpec.homogeneous(
        8,
        OwnerSpec(demand=10.0, utilization=0.1),
        policy=policy,
        arrivals=arrivals,
        imbalance=imbalance,
    )
    return SimulationConfig.from_scenario(
        scenario, task_demand=50.0, num_jobs=num_jobs, num_batches=4, seed=seed
    )


def _assert_bitwise(oracle, kernel):
    if hasattr(oracle, "arrival_times"):
        np.testing.assert_array_equal(oracle.arrival_times, kernel.arrival_times)
        np.testing.assert_array_equal(oracle.start_times, kernel.start_times)
        np.testing.assert_array_equal(oracle.end_times, kernel.end_times)
        np.testing.assert_array_equal(oracle.demands, kernel.demands)
        # Per-job class bookkeeping, restart counters and the derived class /
        # tail metrics must pin too (the constructor fills the classless
        # defaults, so one comparison covers both stream shapes).
        np.testing.assert_array_equal(oracle.widths, kernel.widths)
        np.testing.assert_array_equal(oracle.class_ids, kernel.class_ids)
        np.testing.assert_array_equal(oracle.restarts, kernel.restarts)
        assert (
            oracle.total_admission_preemptions
            == kernel.total_admission_preemptions
        )
        assert oracle.p99_response_time == kernel.p99_response_time
        assert oracle.max_response_time == kernel.max_response_time
        assert oracle.class_metrics() == kernel.class_metrics()
    else:
        np.testing.assert_array_equal(oracle.job_times, kernel.job_times)
        np.testing.assert_array_equal(oracle.task_times, kernel.task_times)
        assert oracle.job_time_interval == kernel.job_time_interval
    assert (
        oracle.measured_owner_utilization == kernel.measured_owner_utilization
    )


# ---------------------------------------------------------------------------
# agenda ordering contract, shared with the oracle
# ---------------------------------------------------------------------------


class TestAgendaContract:
    def test_simultaneous_events_pop_in_push_order(self):
        """FIFO among equal ``(when, priority)``."""
        env = Environment()
        seen: list[str] = []
        for label in ("a", "b", "c"):
            event = env.timeout(5.0, value=label)
            event.callbacks.append(lambda e: seen.append(e.value))
        env.run()
        assert seen == ["a", "b", "c"]

    def test_urgent_beats_normal_at_the_same_instant(self):
        """A process start (URGENT) runs before an earlier NORMAL timeout."""
        env = Environment()
        seen: list[str] = []
        event = env.timeout(0.0, value="normal")
        event.callbacks.append(lambda e: seen.append(e.value))

        def process():
            seen.append("urgent")
            yield env.timeout(1.0)

        env.process(process())
        env.run()
        assert seen == ["urgent", "normal"]

    def test_empty_agenda_peeks_infinity(self):
        assert Environment().peek() == float("inf")

    def test_event_exactly_at_horizon_loses_to_the_stop(self):
        """A NORMAL event at exactly t=horizon must not run before the stop.

        ``Environment.run(until=h)`` enqueues its stop event URGENT at ``h``,
        so a NORMAL event at the same instant stays unprocessed.
        """
        env = Environment()
        seen: list[str] = []
        event = env.timeout(5.0, value="at-horizon")
        event.callbacks.append(lambda e: seen.append(e.value))
        env.run(until=5.0)
        assert env.now == 5.0 and seen == []

    def test_reset_clears_entries_and_tie(self):
        """Every kernel run starts from an empty heap and a zero tie counter.

        A stale entry left in the instance's shared heap would pop first (it
        sorts before every real event at t=0) and end the run; it must be
        dropped when the next run starts, on all three lifecycles, and the
        heap must be empty again when each run ends.
        """
        from repro.kernel import EventKernel
        from repro.kernel.machine import URGENT

        backend = get_backend("event-kernel")
        kernel = EventKernel()
        for config, oracle_mode in (
            (_closed_config("static"), "event-driven"),
            (_open_config("self-scheduling"), "open-system"),
            (_space_shared_config("static", num_jobs=10), "open-system"),
        ):
            kernel._heap.append((0.0, URGENT, -1, -1, None, 0))
            _assert_bitwise(
                run_simulation(config, oracle_mode), backend(config)._run_with(kernel)
            )
            assert kernel._heap == []


# ---------------------------------------------------------------------------
# coverage: the sweep runner sends every oracle point here
# ---------------------------------------------------------------------------


class TestKernelBlocker:
    def test_covers_every_registered_policy(self):
        # the kernel must keep transition tables for the full policy registry;
        # a new policy has to either get one or extend this contract knowingly
        assert set(POLICY_NAMES) == set(KERNEL_POLICIES)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            get_backend("event-kernel")(_closed_config("mystery")).run()

    def test_space_shared_admission_is_covered(self):
        # every admission policy has transition tables, so every
        # space-shared point of an open-system sweep runs on the kernel
        for admission in ("fcfs", "easy-backfill", "priority"):
            result = get_backend("event-kernel")(
                _space_shared_config(admission=admission, num_jobs=10)
            ).run()
            assert result.mode == "event-kernel"
            assert result.widths is not None and result.restarts is not None

    def test_a_class_wider_than_the_cluster_is_refused(self):
        from repro.kernel import EventKernel

        wide = (JobClassSpec.open("huge", width=9),)  # on 8 stations
        with pytest.raises(ValueError, match="'huge' requests width 9"):
            EventKernel().run(_space_shared_config(classes=wide))

    def test_registered_with_full_capabilities(self):
        # policies, open streams, trace owners and fractional demands, batched
        assert "event-kernel" in backend_names()
        fractional = SimulationConfig(
            workstations=3, task_demand=20.5,
            owner=OwnerSpec(demand=10.0, utilization=0.3),
            num_jobs=10, num_batches=2, seed=1,
        )
        configs = [
            _closed_config("self-scheduling"),
            _open_config("static"),
            _trace_config("static"),
            fractional,
        ]
        results = get_backend("event-kernel").run_batch(configs)
        assert [result.mode for result in results] == ["event-kernel"] * 4


# ---------------------------------------------------------------------------
# bitwise pinning against the generator oracles
# ---------------------------------------------------------------------------


class TestBitwisePinning:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_closed_imbalanced(self, policy):
        config = _closed_config(policy)
        _assert_bitwise(
            run_simulation(config, "event-driven"),
            run_simulation(config, "event-kernel"),
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_open_with_admission_limit(self, policy):
        config = _open_config(policy)
        _assert_bitwise(
            run_simulation(config, "open-system"),
            run_simulation(config, "event-kernel"),
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_trace_driven_owners(self, policy):
        config = _trace_config(policy)
        _assert_bitwise(
            run_simulation(config, "event-driven"),
            run_simulation(config, "event-kernel"),
        )

    def test_result_mode_labels_provenance(self):
        config = _closed_config("static")
        assert run_simulation(config, "event-kernel").mode == "event-kernel"


# ---------------------------------------------------------------------------
# bitwise pinning: space-shared admission (job classes)
# ---------------------------------------------------------------------------


class TestSpaceSharedPinning:
    """The admission transition tables against ``_run_space_shared``.

    Every admission policy (FCFS head-of-line, EASY backfilling with padded
    reservations, priority with and without preemptive kill-and-requeue) x
    every scheduling policy x every source shape (open Poisson mix, closed
    think-time populations, mixed) pins bitwise — per-job arrays, class
    metrics, tail percentiles and restart counts alike.
    """

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "admission, admission_kwargs",
        [
            ("fcfs", ()),
            ("easy-backfill", ()),
            ("easy-backfill", (("runtime_factor", 2.5),)),
            ("priority", ()),
            ("priority", (("preemptive", 1.0),)),
        ],
    )
    def test_open_mix(self, policy, admission, admission_kwargs):
        config = _space_shared_config(
            policy, admission=admission, admission_kwargs=admission_kwargs
        )
        _assert_bitwise(
            run_simulation(config, "open-system"),
            run_simulation(config, "event-kernel"),
        )

    @pytest.mark.parametrize("classes", [_CLOSED_CLASSES, _MIXED_CLASSES])
    @pytest.mark.parametrize(
        "admission, admission_kwargs",
        [
            ("fcfs", ()),
            ("easy-backfill", ()),
            ("priority", (("preemptive", 1.0),)),
        ],
    )
    def test_closed_and_mixed_sources(self, classes, admission, admission_kwargs):
        config = _space_shared_config(
            "self-scheduling",
            admission=admission,
            admission_kwargs=admission_kwargs,
            classes=classes,
        )
        _assert_bitwise(
            run_simulation(config, "open-system"),
            run_simulation(config, "event-kernel"),
        )

    def test_imbalanced_restart_resplit(self):
        # restarts re-split demands with fresh placement randomness; pinning
        # under imbalance > 0 proves the kernel re-draws in oracle order
        config = _space_shared_config(
            "static",
            admission="priority",
            admission_kwargs=(("preemptive", 1.0),),
            classes=_MIXED_CLASSES,
            imbalance=0.3,
        )
        oracle = run_simulation(config, "open-system")
        kernel = run_simulation(config, "event-kernel")
        assert oracle.total_admission_preemptions > 0  # restarts do occur
        _assert_bitwise(oracle, kernel)

    def test_preemptions_counted_on_the_kernel_path(self):
        config = _space_shared_config(
            "static",
            admission="priority",
            admission_kwargs=(("preemptive", 1.0),),
            classes=_MIXED_CLASSES,
        )
        result = run_simulation(config, "event-kernel")
        assert result.total_admission_preemptions > 0
        assert result.metrics()["admission_preemptions"] > 0


# ---------------------------------------------------------------------------
# sim-event tap stream
# ---------------------------------------------------------------------------


class TestTapStream:
    #: sha256 of the JSON of every tap event the kernel emits on a closed, a
    #: classless-open and a preemptive space-shared config per policy.
    DIGEST = "bc61c81a49c8692ec3b36607e99bed1fe85c365ca811f587ea3996312b238015"

    def test_tap_stream_is_pinned(self):
        configs = []
        for policy in POLICY_NAMES:
            configs += [
                _closed_config(policy),
                _open_config(policy),
                _space_shared_config(
                    policy,
                    admission="priority",
                    admission_kwargs=(("preemptive", 1.0),),
                    classes=_MIXED_CLASSES,
                    num_jobs=30,
                ),
            ]
        tap = install_sim_tap(SimEventTap())
        try:
            for config in configs:
                run_simulation(config, "event-kernel")
        finally:
            uninstall_sim_tap()
        assert set(tap.counts()) == set(SIM_EVENT_KINDS)
        blob = json.dumps(tap.events, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.DIGEST


# ---------------------------------------------------------------------------
# cross-point batching
# ---------------------------------------------------------------------------


class TestRunBatch:
    def test_results_independent_of_batch_composition(self):
        configs = [
            _closed_config("static", seed=1),
            _closed_config("self-scheduling", seed=2),
            _open_config("migrate-on-owner-arrival", seed=3),
            _trace_config("static", seed=4),
            _space_shared_config("static", seed=5, num_jobs=20),
        ]
        backend = get_backend("event-kernel")
        batched = backend.run_batch(configs)
        for config, together in zip(configs, batched):
            (alone,) = backend.run_batch([config])
            _assert_bitwise(alone, together)
            _assert_bitwise(backend(config).run(), together)

    def test_space_shared_state_isolated_across_batch_points(self):
        """Back-to-back space-shared points share one heap, zero state.

        The shared kernel's heap must drain between grid points, the tie
        counter restarts with every run, and the admission bookkeeping
        (queue, free-station pool, running map) is rebuilt per run — so a
        preemption-heavy point cannot leak queued jobs or allocation masks
        into its successors, whatever the execution order.
        """
        from repro.backends.open_system import OpenSystemResult
        from repro.kernel import EventKernel

        configs = [
            # preemption-heavy first: leaves maximal admission state behind
            _space_shared_config(
                "static",
                admission="priority",
                admission_kwargs=(("preemptive", 1.0),),
                classes=_MIXED_CLASSES,
                seed=5,
                num_jobs=30,
            ),
            _space_shared_config("static", admission="easy-backfill", seed=6),
            _space_shared_config(
                "self-scheduling", classes=_CLOSED_CLASSES, seed=7
            ),
        ]
        backend = get_backend("event-kernel")
        forward = backend.run_batch(configs)
        backward = backend.run_batch(configs[::-1])[::-1]
        for config, first, second in zip(configs, forward, backward):
            _assert_bitwise(first, second)
            _assert_bitwise(run_simulation(config, "open-system"), first)

        # the shared heap is empty after a run, and the next run on the same
        # instance is bitwise-equal to the oracle
        kernel = EventKernel()
        kernel.run(configs[0])
        assert kernel._heap == []
        _assert_bitwise(
            run_simulation(configs[1], "open-system"),
            OpenSystemResult(
                configs[1], "event-kernel", *kernel.run(configs[1])
            ),
        )


# ---------------------------------------------------------------------------
# cache aliasing across executors (schema 6)
# ---------------------------------------------------------------------------


class TestCacheCrossExecutor:
    def test_fingerprints_alias_to_the_oracle_mode(self):
        closed = _closed_config("self-scheduling")
        assert config_fingerprint(closed, "event-kernel") == config_fingerprint(
            closed, "event-driven"
        )
        opened = _open_config("static")
        assert config_fingerprint(opened, "event-kernel") == config_fingerprint(
            opened, "open-system"
        )
        # the two oracles themselves never collide
        assert config_fingerprint(closed, "event-driven") != config_fingerprint(
            closed, "monte-carlo"
        )

    def test_space_shared_fingerprints_alias_to_the_oracle_mode(self):
        # kernel-executed space-shared points must hit the same cache entries
        # as the open-system oracle (schema-6 canonical-mode aliasing)
        config = _space_shared_config("static", num_jobs=10)
        assert config_fingerprint(config, "event-kernel") == config_fingerprint(
            config, "open-system"
        )

    @pytest.mark.parametrize(
        "build, oracle_mode",
        [
            (_closed_config, "event-driven"),
            (_open_config, "open-system"),
            (_space_shared_config, "open-system"),
        ],
    )
    def test_kernel_entries_replay_under_the_oracle_and_back(
        self, tmp_path, build, oracle_mode
    ):
        config = build("self-scheduling")
        cache = ResultCache(tmp_path / "cache")

        cache.store(config, "event-kernel", run_simulation(config, "event-kernel"))
        replayed = cache.load(config, oracle_mode)
        assert replayed is not None and replayed.mode == oracle_mode
        _assert_bitwise(run_simulation(config, oracle_mode), replayed)

        cache.clear()
        cache.store(config, oracle_mode, run_simulation(config, oracle_mode))
        replayed = cache.load(config, "event-kernel")
        assert replayed is not None and replayed.mode == "event-kernel"
        _assert_bitwise(run_simulation(config, oracle_mode), replayed)
