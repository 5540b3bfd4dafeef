"""JSON codec for sweep submissions: named grids and raw config batches.

The sweep service accepts work over a JSON wire format, so everything a
:class:`~repro.backends.SimulationConfig` can express — heterogeneous
stations, trace-driven owners, open-system arrival streams, space-shared job
classes — needs a lossless JSON round trip.  Raw points travel in the
config's one encoding, :func:`repro.engine.codec.config_to_json`, walked off
the spec dataclasses — the same walk the cache fingerprint hashes — so a
config decoded from its own encoding fingerprints to the *same* cache digest
and simulates bitwise-identically.

A submission is a :class:`SweepJobSpec` — either a named grid plus
:func:`~repro.engine.grids.build_grid` overrides (``kind="grid"``) or an
explicit list of encoded configs plus a backend mode (``kind="points"``).
Seeds always live inside the resolved configs (derived from grid coordinates
by ``build_grid``, or carried verbatim by raw points); the service never
invents one, which is what keeps its results bitwise-equal to a library
:meth:`~repro.engine.SweepRunner.run` of the same grid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Sequence

from ..backends import SimulationConfig, get_backend
from ..engine import MAX_POINT_TASKS, MAX_WORKSTATIONS, build_grid, grid_mode
from ..engine.codec import config_from_json, config_to_json

__all__ = ["EXECUTORS", "SweepJobSpec", "spec_digest"]

#: Execution strategies a job may request.  Both run every shard through
#: :meth:`SweepRunner.run`.  ``sweep`` runs the job's backend mode;
#: ``vectorized`` runs ``monte-carlo`` points on ``monte-carlo-max``, which
#: draws each job's time from its exact distribution (statistically
#: identical, not bitwise), and leaves every other mode as it is.
EXECUTORS: tuple[str, ...] = ("sweep", "vectorized")


@dataclass(frozen=True)
class SweepJobSpec:
    """One submission: what to simulate and how to execute it.

    Attributes
    ----------
    kind:
        ``"grid"`` (a named figure grid plus ``build_grid`` overrides) or
        ``"points"`` (an explicit batch of encoded configs plus a backend
        mode).
    grid:
        Grid name for the ``grid`` kind (see
        :data:`repro.engine.GRID_NAMES`).
    overrides:
        JSON-safe keyword overrides forwarded to ``build_grid`` (``seed``,
        ``num_jobs``, axis vectors, ...).
    mode:
        Backend mode for the ``points`` kind; the ``grid`` kind always runs
        the grid's declared backend.
    points:
        The raw config batch for the ``points`` kind.
    executor:
        One of :data:`EXECUTORS` (default ``"sweep"``); :meth:`resolve`
        applies it to the mode.
    """

    kind: str
    grid: str | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    mode: str | None = None
    points: tuple[SimulationConfig, ...] = ()
    executor: str = "sweep"

    def __post_init__(self) -> None:
        if self.kind not in ("grid", "points"):
            raise ValueError(
                f"unknown submission kind {self.kind!r}; expected 'grid' or 'points'"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if self.kind == "grid":
            if not self.grid:
                raise ValueError("a grid submission needs a grid name")
            if self.points:
                raise ValueError("a grid submission takes no raw points")
            if self.mode is not None:
                raise ValueError(
                    "a grid submission runs the grid's declared backend; "
                    "drop 'mode' or submit raw points"
                )
        else:
            if self.grid is not None or self.overrides:
                raise ValueError(
                    "a points submission takes no grid name or overrides"
                )
            if not self.points:
                raise ValueError("a points submission needs at least one config")
            if not self.mode:
                raise ValueError("a points submission needs a backend mode")
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "overrides", dict(self.overrides))

    @classmethod
    def for_grid(
        cls,
        grid: str,
        overrides: Mapping[str, Any] | None = None,
        executor: str = "sweep",
    ) -> "SweepJobSpec":
        """A named-grid submission (overrides as ``build_grid`` kwargs)."""
        return cls(
            kind="grid",
            grid=str(grid),
            overrides=dict(overrides or {}),
            executor=executor,
        )

    @classmethod
    def for_points(
        cls,
        points: Sequence[SimulationConfig],
        mode: str,
        executor: str = "sweep",
    ) -> "SweepJobSpec":
        """A raw batch submission of explicit simulation points."""
        return cls(
            kind="points", points=tuple(points), mode=str(mode), executor=executor
        )

    def resolve(self) -> tuple[list[SimulationConfig], str]:
        """Materialise the submission into ``(configs, backend mode)``.

        Raises ``KeyError``/``ValueError`` on an unknown grid, a bad
        override, an invalid config, a point of more than
        :data:`~repro.engine.MAX_WORKSTATIONS` workstations or
        :data:`~repro.engine.MAX_POINT_TASKS` task times, or a point that
        the mode's backend refuses (its
        :meth:`~repro.backends.SimulationBackend.check`, which draws
        nothing) — submission-time validation, so a client learns about a
        bad job synchronously instead of through a ``failed`` status.  A
        ``vectorized`` submission of ``monte-carlo`` points resolves to
        ``monte-carlo-max``.
        """
        if self.kind == "grid":
            assert self.grid is not None
            configs = build_grid(self.grid, **self.overrides)
            mode = grid_mode(self.grid)
        else:
            assert self.mode is not None
            configs, mode = list(self.points), self.mode
        if self.executor == "vectorized" and mode == "monte-carlo":
            mode = "monte-carlo-max"
        backend = get_backend(mode)
        for index, config in enumerate(configs):
            tasks = config.num_jobs * config.workstations
            if tasks > MAX_POINT_TASKS:
                raise ValueError(
                    f"point {index} would hold {tasks} task times "
                    f"(num_jobs {config.num_jobs} x W {config.workstations}); "
                    f"a point may hold at most {MAX_POINT_TASKS}"
                )
            if config.workstations > MAX_WORKSTATIONS:
                raise ValueError(
                    f"point {index} has W {config.workstations}; "
                    f"a point may have at most {MAX_WORKSTATIONS} workstations"
                )
            try:
                backend.check(config)
            except ValueError as exc:
                raise ValueError(f"point {index}: {exc}") from None
        return configs, mode

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind, "executor": self.executor}
        if self.kind == "grid":
            payload["grid"] = self.grid
            payload["overrides"] = dict(self.overrides)
        else:
            payload["mode"] = self.mode
            payload["points"] = [config_to_json(config) for config in self.points]
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SweepJobSpec":
        """Decode a submission; the kind may be inferred from its keys.

        Keys that name no field are rejected rather than ignored, so a
        misspelt key (``"overides"``) cannot silently run the defaults.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(f"a submission must be a JSON object, got {payload!r}")
        unknown = payload.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown submission key(s) {sorted(unknown)!r}")
        kind = payload.get("kind") or ("points" if "points" in payload else "grid")
        points = tuple(config_from_json(point) for point in payload.get("points", ()))
        return cls(**{**payload, "kind": kind, "points": points})


def spec_digest(spec: SweepJobSpec) -> str:
    """Stable hex digest of a submission's canonical JSON form.

    Used as the content half of a job id, so resubmitting the same work is
    visibly the same submission in job listings.
    """
    blob = json.dumps(spec.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
