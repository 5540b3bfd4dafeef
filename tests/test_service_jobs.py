"""Tests for the service's JSON spec codec and the durable job store."""

from __future__ import annotations

import json

import pytest

from repro.backends import SimulationConfig
from repro.core import OwnerSpec
from repro.engine import GRID_NAMES, build_grid, config_fingerprint, grid_mode
from repro.service import (
    JobRecord,
    JobStore,
    SweepJobSpec,
    config_from_json,
    config_to_json,
    spec_digest,
)

#: Grid families covering every codec branch: homogeneous closed points,
#: heterogeneous per-station scenarios, non-static policies, open-system
#: arrival streams and space-shared job classes with admission policies.
CODEC_GRIDS = (
    "fig01",
    "hetero-concentration",
    "policy-compare",
    "arrival-sweep",
    "admission-sweep",
)


class TestConfigCodec:
    @pytest.mark.parametrize("grid", CODEC_GRIDS)
    def test_round_trip_preserves_cache_fingerprint(self, grid):
        mode = grid_mode(grid)
        for config in build_grid(grid)[:4]:
            wire = json.loads(json.dumps(config_to_json(config)))
            decoded = config_from_json(wire)
            assert config_fingerprint(decoded, mode) == config_fingerprint(
                config, mode
            )

    def test_owner_round_trips_both_floats_exactly(self):
        # A probability-specified owner derives its utilization through
        # Eq. 8; the codec must reproduce both stored floats bit for bit
        # (the cache fingerprint covers both).
        owner = OwnerSpec(demand=10.0, request_probability=0.0123456789)
        decoded = config_from_json(
            config_to_json(
                SimulationConfig(workstations=4, task_demand=100, owner=owner)
            )
        ).owner
        assert decoded.utilization == owner.utilization
        assert decoded.request_probability == owner.request_probability

    def test_decoding_validates(self):
        payload = config_to_json(
            SimulationConfig(
                workstations=4,
                task_demand=100,
                owner=OwnerSpec(demand=10.0, utilization=0.1),
            )
        )
        payload["workstations"] = -1
        with pytest.raises(ValueError):
            config_from_json(payload)


class TestSweepJobSpec:
    def test_grid_spec_resolves_like_build_grid(self):
        spec = SweepJobSpec.for_grid(
            "fig01", {"workstation_counts": [2, 4], "utilizations": [0.3]}
        )
        configs, mode = spec.resolve()
        assert mode == grid_mode("fig01")
        expected = build_grid(
            "fig01", workstation_counts=(2, 4), utilizations=(0.3,)
        )
        assert configs == expected

    def test_points_spec_round_trips_over_the_wire(self):
        points = build_grid("fig01", workstation_counts=(2,))[:2]
        spec = SweepJobSpec.for_points(points, mode="monte-carlo")
        wire = json.loads(json.dumps(spec.to_json()))
        decoded = SweepJobSpec.from_json(wire)
        configs, mode = decoded.resolve()
        assert mode == "monte-carlo"
        assert configs == list(points)
        assert spec_digest(decoded) == spec_digest(spec)

    def test_kind_inferred_from_payload_keys(self):
        assert SweepJobSpec.from_json({"grid": "fig01"}).kind == "grid"
        points = [config_to_json(build_grid("fig01")[0])]
        inferred = SweepJobSpec.from_json({"points": points, "mode": "monte-carlo"})
        assert inferred.kind == "points"

    def test_invalid_specs_rejected_at_construction(self):
        point = build_grid("fig01")[0]
        bad_specs = [
            dict(kind="nonsense"),
            dict(kind="grid"),  # no grid name
            dict(kind="grid", grid="fig01", mode="monte-carlo"),
            dict(kind="grid", grid="fig01", executor="warp-drive"),
            dict(kind="grid", grid="fig01", points=(point,)),
            dict(kind="points", mode="monte-carlo"),  # no points
            dict(kind="points", points=(point,)),  # no mode
            dict(kind="points", points=(point,), mode="monte-carlo", grid="fig01"),
        ]
        for bad in bad_specs:
            with pytest.raises(ValueError):
                SweepJobSpec(**bad)

    def test_vectorized_points_accepted(self):
        # the vectorized executor only opts monte-carlo points into group
        # sampling, so it composes with a raw-points submission's mode
        spec = SweepJobSpec.for_points(
            build_grid("fig01")[:1], mode="monte-carlo", executor="vectorized"
        )
        assert SweepJobSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("grid", GRID_NAMES)
    def test_registered_grid_resolves_under_task_cap(self, grid):
        # resolve raises on any point over MAX_POINT_TASKS task times
        configs, _ = SweepJobSpec.for_grid(grid).resolve()
        assert configs

    def test_unknown_grid_fails_at_resolve(self):
        with pytest.raises(KeyError):
            SweepJobSpec.for_grid("not-a-grid").resolve()

    def test_digest_distinguishes_different_work(self):
        a = SweepJobSpec.for_grid("fig01")
        b = SweepJobSpec.for_grid("fig01", {"num_jobs": 50})
        c = SweepJobSpec.for_grid("fig02")
        assert len({spec_digest(a), spec_digest(b), spec_digest(c)}) == 3


class TestJobStore:
    def test_create_persists_a_queued_record(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SweepJobSpec.for_grid("fig01"))
        assert record.status == "queued"
        assert record.job_id.startswith("job-000001-")
        loaded = store.load(record.job_id)
        assert loaded is not None
        assert loaded.spec == record.spec
        assert store.load("job-999999-deadbeef") is None

    def test_ids_stay_unique_across_restarts(self, tmp_path):
        first = JobStore(tmp_path).create(SweepJobSpec.for_grid("fig01"))
        # A fresh store over the same directory resumes the counter from
        # the files on disk — a restarted service must never reuse an id.
        second = JobStore(tmp_path).create(SweepJobSpec.for_grid("fig01"))
        assert first.job_id != second.job_id
        assert second.job_id.startswith("job-000002-")
        # Identical work carries an identical digest half.
        assert first.job_id.split("-")[2] == second.job_id.split("-")[2]

    def test_iteration_in_submission_order(self, tmp_path):
        store = JobStore(tmp_path)
        ids = [
            store.create(SweepJobSpec.for_grid("fig01")).job_id
            for _ in range(3)
        ]
        assert [record.job_id for record in store] == ids
        assert len(store) == 3
        assert [record.job_id for record in store.pending()] == ids

    def test_save_round_trips_every_field(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.create(SweepJobSpec.for_grid("fig01"))
        record.status = "done"
        record.mode = "monte-carlo"
        record.total_points = 8
        record.points_completed = 8
        record.shards_total = 2
        record.shards_completed = 2
        record.simulated = 5
        record.cache_hits = 3
        record.vectorized_groups = 2
        record.started_at = 100.0
        record.finished_at = 200.0
        record.result_file = f"{record.job_id}.npz"
        store.save(record)
        assert store.load(record.job_id) == record

    @pytest.mark.parametrize(
        "scenario_update",
        [
            {"policy": "bogus"},
            {"policy": "self-scheduling", "policy_kwargs": [["bogus_kw", 1.0]]},
        ],
        ids=["unknown-policy", "unknown-policy-keyword"],
    )
    def test_record_whose_points_no_longer_decode_is_quarantined(
        self, tmp_path, scenario_update
    ):
        # a record stored before configs built their policy when constructed
        store = JobStore(tmp_path)
        point = build_grid("policy-compare", num_jobs=40)[0]
        record = store.create(SweepJobSpec.for_points([point], "event-driven"))
        path = tmp_path / f"{record.job_id}.json"
        payload = json.loads(path.read_text())
        payload["spec"]["points"][0]["scenario"].update(scenario_update)
        path.write_text(json.dumps(payload))
        store = JobStore(tmp_path)  # a store reads its records when it opens
        assert store.load(record.job_id) is None
        assert path.with_name(path.name + ".corrupt").exists()
        assert list(store) == []

    def test_unknown_status_rejected(self):
        payload = JobRecord(
            job_id="job-000001-00000000", spec=SweepJobSpec.for_grid("fig01")
        ).to_json()
        payload["status"] = "vanished"
        with pytest.raises(ValueError, match="vanished"):
            JobRecord.from_json(payload)

    def test_recover_requeues_interrupted_jobs(self, tmp_path):
        store = JobStore(tmp_path)
        crashed = store.create(SweepJobSpec.for_grid("fig01"))
        crashed.status = "running"
        crashed.points_completed = 5
        crashed.simulated = 5
        crashed.started_at = 123.0
        store.save(crashed)
        finished = store.create(SweepJobSpec.for_grid("fig02"))
        finished.status = "done"
        store.save(finished)

        store = JobStore(tmp_path)
        recovered = store.recover()

        assert [record.job_id for record in recovered] == [crashed.job_id]
        # the recovering store's index, then the files a restart reads
        for reader in (store, JobStore(tmp_path)):
            requeued = reader.load(crashed.job_id)
            assert requeued is not None
            assert requeued.status == "queued"
            assert requeued.note == "recovered after restart"
            # Progress counters reset: the rerun replays finished shards from
            # the shared cache, and the counters must describe *that* run.
            assert requeued.points_completed == 0
            assert requeued.simulated == 0
            assert requeued.started_at is None
            done_again = reader.load(finished.job_id)
            assert done_again is not None and done_again.status == "done"
