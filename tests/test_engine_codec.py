"""Tests for the config walker: the one JSON encoding of a simulation point.

Five contracts are pinned here:

* **Wire format**: the walker's encoding is byte-identical to the codec it
  replaced, so submission digests, job ids and job files written before it
  stay valid (literals below were computed by the hand-written codec).
* **Strict decoding**: unknown keys, wrong JSON types, non-integral numbers
  for int fields and unknown type hints are rejected, never reinterpreted.
* **Round trip**: for any valid config — heterogeneous and trace-driven
  owners, every arrival kind, job classes, every scheduling and admission
  policy — decoding its encoding gives the same config and the same cache
  fingerprint, and the fingerprint sees through legacy and scenario forms.
* **Lossless storage**: for any such config, its result survives a cache
  store and load bitwise, and a job payload built from loaded, freshly
  encoded or missing entries is byte-identical to ``np.savez_compressed``
  of the results' arrays.
* **Kernel equals oracle**: for any such config, the array kernel's result
  has the same arrays, byte for byte, as the generator oracle's.
"""

from __future__ import annotations

import io
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import SimulationConfig, get_backend
from repro.cluster import ADMISSION_POLICY_NAMES, POLICY_NAMES
from repro.core import (
    JobArrivalSpec,
    JobClassSpec,
    OwnerSpec,
    ScenarioSpec,
    StationSpec,
)
from repro.engine import (
    GRID_NAMES,
    ResultCache,
    SweepRunner,
    build_grid,
    config_fingerprint,
    grid_mode,
)
from repro.engine.cache import encode_entry, result_arrays
from repro.engine.codec import from_json, to_json
from repro.service import (
    JobStore,
    SweepJobSpec,
    outcome_arrays,
    save_result_npz,
    spec_digest,
)
from repro.workload import OwnerActivityTrace

#: ``spec_digest`` of a one-point submission of each registered grid's first
#: point, computed by the hand-written codec the walker replaced.
PARENT_SPEC_DIGESTS = {
    "fig01": "43a80db21e820f12e464ff7bbd8aea625f343ed79ed07cb4df90c97a2361f10b",
    "fig02": "06dca21d05b79ef00f1d45072c5f441b0b97e91a7aa41f26e243337e70492319",
    "fig03": "76d7964e9ceea8760f424042ba8f49d6d138a90f9b30caf3a7e50f0e294ccd94",
    "fig04": "255d0601cbf1d32553eb8ff6441b6964f1651ad6463f55253cb798b2c749c861",
    "fig05": "a51f70b78a4b62f4d39edd27251b67f8a4a8a1339273b982fc47433b943eb985",
    "fig06": "2b5b4756dcdb699331b3c7c48e1c762c5d7fef9082cc9236c8bd41d40e725abd",
    "fig09": "25cfb12f98b4d7c63676469ebdf0e0aa0b867e1d177b172a29134ebd9179ad12",
    "validation": "0e120dbea6728895a3ca3dd0de0132329c812d8e9c746d68ab850d9ba8001de1",
    "hetero-concentration": "195abb30ada80f8a9c3b1ca6c8a418bb0528bd8bc585c01cbce316f3fb5c80fd",
    "policy-compare": "d39034c8de8c28c1f392cb88e3fe8d6b6ad16a8ad2ceb900bdaa2f288043f09b",
    "arrival-sweep": "153d7c2a59f39d85f508f84d6ccf74fe3ec64604797b4be407d271b317447172",
    "admission-sweep": "fca23fa4c2ea6ba639358117e6308214d49bee620f5e3b0e55661a2f6184a1f6",
}

#: A job file written by the hand-written codec: a raw point with a trace
#: owner, a probability-specified owner, a non-static policy and a
#: closed-loop class under the priority admission policy.
PARENT_JOB_FILE = (
    '{"cache_hits": 0, "error": null, "eta_seconds": null, "finished_at": null, '
    '"job_id": "job-000001-08f87ef3", "mode": "", "note": null, '
    '"points_completed": 0, "result_file": null, "shards_completed": 0, '
    '"shards_total": 0, "simulated": 0, "spec": {"executor": "sweep", '
    '"kind": "points", "mode": "open-system", "points": [{"confidence": 0.9, '
    '"imbalance": 0.0, "num_batches": 2, "num_jobs": 12, "owner": {"demand": '
    '4.375, "request_probability": 0.021917808219178082, "utilization": 0.0875}, '
    '"owner_demand_kind": "trace", "owner_demand_kwargs": {}, "scenario": '
    '{"arrivals": {"admission_kwargs": [["preemptive", 1.0]], '
    '"admission_policy": "priority", "demand_kind": "deterministic", '
    '"demand_kwargs": [], "interarrivals": [], "job_classes": [{"name": "batch", '
    '"population": 2, "priority": 1, "think_time": 5.0, "think_time_kind": '
    '"exponential", "think_time_kwargs": [], "weight": 1.0, "width": 1}], '
    '"kind": "closed", "max_concurrent_jobs": 1, "rate": null, '
    '"warmup_fraction": 0.1}, "imbalance": 0.0, "policy": "self-scheduling", '
    '"policy_kwargs": [["chunks_per_station", 2.0]], "stations": '
    '[{"demand_kind": "trace", "demand_kwargs": [], "owner": {"demand": 4.375, '
    '"request_probability": 0.021917808219178082, "utilization": 0.0875}, '
    '"trace": {"busy_intervals": [[5.0, 12.5], [40.0, 41.25]], "horizon": 100.0}}, '
    '{"demand_kind": "hyperexponential", "demand_kwargs": [["squared_cv", 4.0]], '
    '"owner": {"demand": 10.0, "request_probability": 0.0123456789, '
    '"utilization": 0.109890109}, "trace": null}]}, "seed": 3, "task_demand": '
    '50.0, "workstations": 2}]}, "started_at": null, "status": "queued", '
    '"submitted_at": 1700000000.0, "total_points": 0, "vectorized_groups": 0}'
)


def _parent_job_config() -> SimulationConfig:
    """The point :data:`PARENT_JOB_FILE` holds, built through the library."""
    trace = OwnerActivityTrace(
        horizon=100.0, busy_intervals=((5.0, 12.5), (40.0, 41.25))
    )
    scenario = ScenarioSpec(
        stations=(
            StationSpec.from_trace(trace),
            StationSpec(
                owner=OwnerSpec(demand=10.0, request_probability=0.0123456789),
                demand_kind="hyperexponential",
                demand_kwargs={"squared_cv": 4.0},
            ),
        ),
        policy="self-scheduling",
        policy_kwargs={"chunks_per_station": 2.0},
        arrivals=JobArrivalSpec.closed_loop(
            [JobClassSpec.closed("batch", 1, population=2, think_time=5.0, priority=1)],
            admission_policy="priority",
            admission_kwargs={"preemptive": 1.0},
        ),
    )
    return SimulationConfig.from_scenario(
        scenario, task_demand=50.0, num_jobs=12, num_batches=2, seed=3
    )


def _wire(config: SimulationConfig) -> dict:
    return json.loads(json.dumps(to_json(config)))


class TestWireFormat:
    @pytest.mark.parametrize("grid", GRID_NAMES)
    def test_spec_digest_unchanged_for_every_registered_grid(self, grid):
        spec = SweepJobSpec.for_points([build_grid(grid)[0]], grid_mode(grid))
        assert spec_digest(spec) == PARENT_SPEC_DIGESTS[grid]

    def test_parent_job_file_still_loads(self, tmp_path):
        (tmp_path / "job-000001-08f87ef3.json").write_text(PARENT_JOB_FILE)
        record = JobStore(tmp_path).load("job-000001-08f87ef3")
        assert record is not None
        configs, mode = record.spec.resolve()
        assert mode == "open-system"
        assert configs == [_parent_job_config()]
        assert spec_digest(record.spec).startswith("08f87ef3")


class TestStrictDecoding:
    def _payload(self) -> dict:
        return _wire(_parent_job_config())

    def test_missing_keys_take_the_dataclass_defaults(self):
        decoded = from_json(
            SimulationConfig,
            {"workstations": 3, "task_demand": 40, "owner": {"utilization": 0.1}},
        )
        assert decoded == SimulationConfig(
            workstations=3, task_demand=40.0, owner=OwnerSpec(utilization=0.1)
        )

    @pytest.mark.parametrize(
        "path",
        [(), ("owner",), ("scenario",), ("scenario", "arrivals", "job_classes", 0)],
        ids=["config", "owner", "scenario", "job-class"],
    )
    def test_unknown_key_rejected_at_every_level(self, path):
        payload = self._payload()
        node = payload
        for step in path:
            node = node[step]
        node["num_job"] = 50
        with pytest.raises(ValueError, match="num_job"):
            from_json(SimulationConfig, payload)

    def test_missing_required_key_rejected(self):
        payload = self._payload()
        del payload["scenario"]["stations"][1]["owner"]
        with pytest.raises(ValueError, match="owner"):
            from_json(SimulationConfig, payload)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("num_jobs",), 400.9),
            (("scenario", "arrivals", "job_classes", 0, "width"), 2.9),
            (("seed",), float("inf")),
            (("num_jobs",), "12"),
            (("num_jobs",), True),
            (("task_demand",), None),
            (("scenario", "policy"), 7),
            (("scenario", "stations"), {"0": None}),
            (("scenario", "policy_kwargs"), [["chunks_per_station"]]),
            (("owner_demand_kwargs",), [["squared_cv", 4.0]]),
        ],
    )
    def test_wrongly_typed_values_rejected(self, path, value):
        payload = self._payload()
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(ValueError):
            from_json(SimulationConfig, payload)

    def test_integral_numbers_accepted_for_int_fields(self):
        payload = self._payload()
        payload["num_jobs"] = 12.0
        assert from_json(SimulationConfig, payload) == _parent_job_config()

    def test_inconsistent_owner_rejected(self):
        payload = self._payload()
        payload["owner"] = {
            "demand": 10, "utilization": 0.5, "request_probability": 0.001,
        }
        with pytest.raises(ValueError, match="disagree"):
            from_json(SimulationConfig, payload)

    def test_unknown_type_hint_is_a_type_error(self):
        @dataclass(frozen=True)
        class Exotic:
            tags: frozenset[str] = frozenset()

        with pytest.raises(TypeError, match="frozenset"):
            to_json(Exotic())
        with pytest.raises(TypeError, match="frozenset"):
            from_json(Exotic, {})


class TestFingerprint:
    def test_every_registered_grid_point_has_its_own_digest(self):
        digests = [
            config_fingerprint(config, grid_mode(grid))
            for grid in GRID_NAMES
            for config in build_grid(grid)
        ]
        assert len(digests) == 385
        assert len(set(digests)) == len(digests)

    def test_representative_owner_stays_out_of_the_key(self):
        scenario = ScenarioSpec.from_utilizations([0.05, 0.2, 0.1])
        canonical = SimulationConfig.from_scenario(scenario, task_demand=40.0)
        stray = SimulationConfig(
            workstations=3,
            task_demand=40.0,
            owner=OwnerSpec(demand=3.0, utilization=0.4),
            owner_demand_kind="exponential",
            scenario=scenario,
        )
        assert config_fingerprint(stray, "event-driven") == config_fingerprint(
            canonical, "event-driven"
        )

    def test_a_new_config_field_enters_the_key_by_itself(self):
        @dataclass(frozen=True)
        class Knobbed(SimulationConfig):
            shiny_new_knob: float = 0.0

        owner = OwnerSpec(utilization=0.1)
        plain = Knobbed(workstations=2, task_demand=40.0, owner=owner)
        turned = Knobbed(
            workstations=2, task_demand=40.0, owner=owner, shiny_new_knob=1.0
        )
        assert to_json(turned)["shiny_new_knob"] == 1.0
        assert config_fingerprint(plain, "monte-carlo") != config_fingerprint(
            turned, "monte-carlo"
        )


# ---------------------------------------------------------------------------
# generated round trips
# ---------------------------------------------------------------------------

@st.composite
def _owners(draw) -> OwnerSpec:
    demand = draw(st.floats(min_value=0.5, max_value=20.0))
    if draw(st.booleans()):
        return OwnerSpec(demand=demand, utilization=draw(st.floats(0.0, 0.9)))
    return OwnerSpec(demand=demand, request_probability=draw(st.floats(0.0, 1.0)))


@st.composite
def _traces(draw) -> OwnerActivityTrace:
    horizon = draw(st.floats(min_value=10.0, max_value=1000.0))
    cuts = sorted(
        draw(st.lists(st.floats(0.0, horizon), max_size=6, unique=True))
    )
    bursts = tuple(zip(cuts[0::2], cuts[1::2]))
    busy = sum(end - start for start, end in bursts)
    if busy >= 0.9 * horizon:
        bursts = ()
    return OwnerActivityTrace(horizon=horizon, busy_intervals=bursts)


@st.composite
def _stations(draw) -> StationSpec:
    kinds = ("deterministic", "exponential", "hyperexponential", "trace")
    kind = draw(st.sampled_from(kinds))
    if kind == "trace":
        return StationSpec.from_trace(draw(_traces()))
    kwargs = {}
    if kind == "hyperexponential":
        kwargs["squared_cv"] = draw(st.floats(1.0, 9.0, exclude_min=True))
    return StationSpec(owner=draw(_owners()), demand_kind=kind, demand_kwargs=kwargs)


@st.composite
def _job_classes(draw, name: str, workstations: int, closed: bool) -> JobClassSpec:
    width = draw(st.integers(1, workstations))
    priority = draw(st.integers(0, 3))
    if closed:
        return JobClassSpec.closed(
            name,
            width,
            population=draw(st.integers(1, 3)),
            think_time=draw(st.floats(0.0, 100.0, exclude_min=True)),
            priority=priority,
        )
    weight = draw(st.floats(0.1, 4.0))
    return JobClassSpec(name, width, priority=priority, weight=weight)


@st.composite
def _arrivals(draw, workstations: int) -> JobArrivalSpec | None:
    kind = draw(st.sampled_from((None, "poisson", "deterministic", "trace", "closed")))
    if kind is None:
        return None
    extras: dict = {"warmup_fraction": draw(st.floats(0.0, 0.5))}
    if draw(st.booleans()) or kind == "closed":
        # the closed kind takes only closed-loop classes, the others need an
        # open one to feed
        extra = draw(st.lists(st.booleans(), max_size=2))
        if kind == "closed":
            closed_flags = [True] * (1 + len(extra))
        else:
            closed_flags = [False, *extra]
        classes = [
            draw(_job_classes(f"class{index}", workstations, flag))
            for index, flag in enumerate(closed_flags)
        ]
        policy = draw(st.sampled_from(ADMISSION_POLICY_NAMES))
        extras.update(job_classes=tuple(classes), admission_policy=policy)
        if policy == "priority":
            extras["admission_kwargs"] = {"preemptive": float(draw(st.booleans()))}
    else:
        extras["max_concurrent_jobs"] = draw(st.integers(1, 3))
        extras["demand_kind"] = draw(st.sampled_from(("deterministic", "exponential")))
    if kind == "closed":
        return JobArrivalSpec.closed_loop(**extras)
    if kind == "trace":
        gaps = draw(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=5))
        return JobArrivalSpec.from_trace(gaps, **extras)
    return JobArrivalSpec(kind=kind, rate=draw(st.floats(0.001, 1.0)), **extras)


@st.composite
def _configs(draw) -> SimulationConfig:
    num_batches = draw(st.integers(2, 4))
    run = dict(
        task_demand=draw(st.floats(0.5, 500.0)),
        num_jobs=draw(st.integers(num_batches, 30)),
        num_batches=num_batches,
        confidence=draw(st.floats(0.5, 0.99)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )
    if draw(st.booleans()):
        # the paper's homogeneous model through the legacy fields
        return SimulationConfig(
            workstations=draw(st.integers(1, 6)),
            owner=draw(_owners()),
            owner_demand_kind=draw(
                st.sampled_from(("deterministic", "exponential"))
            ),
            imbalance=draw(st.floats(0.0, 0.5)),
            **run,
        )
    stations = tuple(draw(st.lists(_stations(), min_size=1, max_size=4)))
    policy = draw(st.sampled_from(POLICY_NAMES))
    scenario = ScenarioSpec(
        stations=stations,
        policy=policy,
        policy_kwargs=(
            {"chunks_per_station": float(draw(st.integers(1, 4)))}
            if policy == "self-scheduling"
            else {}
        ),
        imbalance=draw(st.floats(0.0, 0.5)),
        arrivals=draw(_arrivals(len(stations))),
    )
    if draw(st.booleans()):
        return SimulationConfig.from_scenario(scenario, **run)
    # a representative owner that disagrees with the first station's
    return SimulationConfig(
        workstations=len(stations), owner=draw(_owners()), scenario=scenario, **run
    )


def _mode(config: SimulationConfig) -> str:
    return "open-system" if config.effective_scenario.is_open else "event-driven"


class TestGeneratedRoundTrips:
    @given(config=_configs())
    @settings(max_examples=150, deadline=None)
    def test_decoding_the_encoding_gives_the_config_back(self, config):
        assert from_json(SimulationConfig, _wire(config)) == config

    @given(config=_configs())
    @settings(max_examples=150, deadline=None)
    def test_fingerprint_survives_the_round_trip(self, config):
        decoded = from_json(SimulationConfig, _wire(config))
        for mode in (_mode(config), "event-kernel"):
            assert config_fingerprint(decoded, mode) == config_fingerprint(
                config, mode
            )

    @given(config=_configs())
    @settings(max_examples=150, deadline=None)
    def test_scenario_form_fingerprints_like_the_config(self, config):
        twin = SimulationConfig.from_scenario(
            config.effective_scenario,
            config.task_demand,
            num_jobs=config.num_jobs,
            num_batches=config.num_batches,
            confidence=config.confidence,
            seed=config.seed,
        )
        mode = _mode(config)
        assert config_fingerprint(twin, mode) == config_fingerprint(config, mode)


def _assert_same_arrays(actual: dict, expected: dict) -> None:
    """Same names in the same order, and per array the same dtype, shape
    and bytes."""
    assert list(actual) == list(expected)
    for key, value in expected.items():
        got = actual[key]
        assert (got.dtype, got.shape) == (value.dtype, value.shape), key
        assert got.tobytes() == value.tobytes(), key


class TestGeneratedStorage:
    @given(config=_configs())
    @settings(max_examples=150, deadline=None)
    def test_cache_and_payload_round_trips_are_lossless(self, config):
        (result,) = SweepRunner(jobs=1).run([config], mode=_mode(config))
        with tempfile.TemporaryDirectory() as root:
            cache = ResultCache(root)
            cache.store(config, result.mode, result)
            loaded, entry = cache.load_entry(config, result.mode)
            _assert_same_arrays(result_arrays(loaded), result_arrays(result))

            results = [loaded, result, result]
            entries = [entry, encode_entry(result), None]
            payload = save_result_npz(Path(root) / "payload.npz", results, entries)
            reference = io.BytesIO()
            np.savez_compressed(reference, **outcome_arrays(results))
            assert payload.read_bytes() == reference.getvalue()


class TestGeneratedKernel:
    @given(config=_configs())
    @settings(max_examples=50, deadline=None)
    def test_kernel_equals_its_oracle(self, config):
        oracle = get_backend(_mode(config))(config).run()
        kernel = get_backend("event-kernel")(config).run()
        _assert_same_arrays(result_arrays(kernel), result_arrays(oracle))
