"""Reference digests of every point the benchmark can ask the service for.

A point's digest covers the name, dtype, shape and bytes of each of its
sample arrays, but not its ``__mode__`` label, so a change of executor that
keeps results bitwise equal still passes.

Regenerate ``digests.json`` from a library ``SweepRunner.run`` of the same
grids (from the repository root)::

    python3 perfbench/digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Mapping

import numpy as np

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"


def point_digests(arrays: Mapping[str, np.ndarray]) -> list[str]:
    """Per-point digests of a flat ``pointNNNNN/<key>`` result mapping."""
    points: dict[str, dict[str, np.ndarray]] = {}
    for full_key, value in arrays.items():
        prefix, _, key = full_key.partition("/")
        if key != "__mode__":
            points.setdefault(prefix, {})[key] = value
    digests = []
    for prefix in sorted(points):
        h = hashlib.sha256()
        for key, value in sorted(points[prefix].items()):
            value = np.ascontiguousarray(value)
            h.update(f"{key}|{value.dtype.str}|{value.shape}|".encode())
            h.update(value.tobytes())
        digests.append(h.hexdigest()[:32])
    return digests


def payload_digests(payload: bytes) -> list[str]:
    """Per-point digests of a result NPZ as served by ``GET .../result``."""
    with np.load(io.BytesIO(payload), allow_pickle=False) as data:
        return point_digests({key: data[key] for key in data.files})


def load_reference() -> dict[str, list[str]]:
    with DIGEST_FILE.open(encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def regenerate() -> int:
    """Rebuild ``digests.json`` through the library sweep runner."""
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from repro.engine import SweepRunner
    from repro.service import SweepJobSpec, outcome_arrays
    from workloads import all_jobs, job_key

    runner = SweepRunner(jobs=os.cpu_count())
    reference = {}
    for job in all_jobs():
        configs, mode = SweepJobSpec.from_json(job).resolve()
        results = runner.run(configs, mode).results
        reference[job_key(job)] = point_digests(outcome_arrays(results))
    with DIGEST_FILE.open("w", encoding="utf-8") as handle:
        json.dump({"jobs": reference}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, reference.values()))} point digests "
          f"for {len(reference)} jobs to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
