"""Every ``POST /jobs`` body gets a defined answer: 201, 400 or 413.

The server runs with its worker stopped, so an accepted job stays queued
and nothing is simulated.  A refused body must add no job record, and no
body may get a 500, a dropped connection or a traceback on stderr.
"""

from __future__ import annotations

import http.client
import json
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import MAX_POINT_TASKS, backend_names, get_backend
from repro.engine import GRID_NAMES, build_grid
from repro.service import EXECUTORS, SweepService, config_to_json, make_server


@pytest.fixture
def queued(tmp_path):
    """A service whose worker is stopped, behind a live HTTP server."""
    service = SweepService(tmp_path / "service", jobs=1)
    server = make_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield service, server.server_address[1]
    server.shutdown()
    server.server_close()
    service.close()


def _post(port: int, body: bytes) -> tuple[int, bytes]:
    """``POST /jobs`` with a raw body; the answer's status and body.

    A dropped connection raises (``RemoteDisconnected``), failing the test.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        connection.request(
            "POST", "/jobs", body, {"Content-Type": "application/json"}
        )
        answer = connection.getresponse()
        return answer.status, answer.read()
    finally:
        connection.close()


def _nested(depth: int, inner: str = "1", kind: str = "[") -> str:
    """``inner`` inside ``depth`` arrays (``[``) or objects (``{``)."""
    if kind == "[":
        return "[" * depth + inner + "]" * depth
    return '{"a":' * depth + inner + "}" * depth


#: The three bodies whose RecursionError once dropped the connection.
DEEP_BODIES = {
    "bare-array-990": ("[" * 990 + "]" * 990).encode(),
    "object-5000-in-overrides": (
        '{"grid": "fig01", "overrides": ' + _nested(5000, kind="{") + "}"
    ).encode(),
    "array-3000-in-points": (
        '{"mode": "monte-carlo", "points": ' + _nested(3000) + "}"
    ).encode(),
}


@pytest.mark.parametrize("body", DEEP_BODIES.values(), ids=DEEP_BODIES.keys())
def test_a_deeply_nested_body_is_refused(queued, capsys, body):
    service, port = queued
    status, answer = _post(port, body)
    assert status == 400, answer
    assert json.loads(answer)["error"].startswith("bad submission")
    assert len(service.store) == 0
    assert capsys.readouterr().err == ""


_CLOSED_POINT = config_to_json(build_grid("fig01", num_jobs=40)[0])
_WIDE_CLASS = config_to_json(build_grid("admission-sweep", num_jobs=40)[0])
_WIDE_CLASS["scenario"]["arrivals"]["job_classes"][1]["width"] = 9  # of 8

#: A mode and a point that its backend refuses: each was accepted and
#: failed when its job ran.
REFUSED_POINTS = {
    "negative-seed": ("monte-carlo", dict(_CLOSED_POINT, seed=-1)),
    "trial-count-beyond-int64": (
        "monte-carlo", dict(_CLOSED_POINT, task_demand=1e308)
    ),
    "fractional-trial-count": ("monte-carlo", dict(_CLOSED_POINT, task_demand=10.5)),
    "open-point": (
        "monte-carlo", config_to_json(build_grid("arrival-sweep", num_jobs=40)[0])
    ),
    "class-wider-than-the-cluster": ("open-system", _WIDE_CLASS),
    "class-wider-than-the-kernel-cluster": ("event-kernel", _WIDE_CLASS),
}


@pytest.mark.parametrize(
    ("mode", "point"), REFUSED_POINTS.values(), ids=REFUSED_POINTS.keys()
)
def test_a_point_the_backend_refuses_is_refused(queued, capsys, mode, point):
    service, port = queued
    body = {"mode": mode, "points": [point]}
    status, answer = _post(port, json.dumps(body).encode())
    assert status == 400, answer
    assert json.loads(answer)["error"].startswith("bad submission")
    assert len(service.store) == 0
    assert capsys.readouterr().err == ""


#: A closed point of T = 2**62: a direct-sampler table of it would hold
#: 2**62 + 1 floats.
_HUGE_TABLE_POINT = dict(_CLOSED_POINT, task_demand=2**62)


@pytest.mark.parametrize(
    ("fields", "expected"),
    [
        ({"mode": "monte-carlo-max"}, 400),
        ({"mode": "monte-carlo", "executor": "vectorized"}, 400),
        # monte-carlo builds no table (the queued job never runs)
        ({"mode": "monte-carlo"}, 201),
    ],
    ids=["monte-carlo-max", "vectorized", "monte-carlo"],
)
def test_a_point_beyond_the_direct_samplers_tables_is_refused(
    queued, capsys, fields, expected
):
    service, port = queued
    body = {**fields, "points": [_HUGE_TABLE_POINT]}
    status, answer = _post(port, json.dumps(body).encode())
    assert status == expected, answer
    assert len(service.store) == (1 if expected == 201 else 0)
    assert capsys.readouterr().err == ""


def test_a_point_at_the_table_bound_passes_the_check():
    config = build_grid("fig01", num_jobs=40)[0]
    check = get_backend("monte-carlo-max").check
    check(replace(config, task_demand=MAX_POINT_TASKS - 1))  # not run
    with pytest.raises(ValueError, match="inverse-CDF"):
        check(replace(config, task_demand=MAX_POINT_TASKS))


# -- generated bodies ---------------------------------------------------------

_POINTS = [
    config_to_json(config)
    for grid in ("fig01", "hetero-concentration", "policy-compare", "admission-sweep")
    for config in build_grid(grid, num_jobs=40)[:2]
]

_HUGE_NUMBERS = st.one_of(
    st.integers(min_value=2**63 - 1, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-1),
    st.sampled_from([1e308, -1e308, 1e-320, 2.0**1023]),
)

#: JSON text of numbers the encoder never writes: infinities, NaN and
#: integers longer than the interpreter converts from text.
_RAW_NUMBERS = st.sampled_from(
    ["Infinity", "-Infinity", "NaN", "1e999", "-1e999", "9" * 5000]
)

_WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.just([]),
    st.just({}),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(-3, 3), max_size=3),
)


@st.composite
def _grid_submissions(draw) -> dict:
    overrides = draw(
        st.fixed_dictionaries(
            {},
            optional={
                "num_jobs": st.integers(1, 400),
                "num_batches": st.integers(1, 40),
                "seed": st.integers(0, 2**64),
                "workstation_counts": st.lists(st.integers(1, 64), min_size=1, max_size=3),
                "utilizations": st.lists(
                    st.floats(0.0, 0.9), min_size=1, max_size=3
                ),
            },
        )
    )
    return {
        "grid": draw(st.sampled_from(GRID_NAMES)),
        "overrides": overrides,
        "executor": draw(st.sampled_from(EXECUTORS)),
    }


@st.composite
def _points_submissions(draw) -> dict:
    points = draw(st.lists(st.sampled_from(_POINTS), min_size=1, max_size=3))
    return {
        "points": points,
        "mode": draw(st.sampled_from(backend_names())),
        "executor": draw(st.sampled_from(EXECUTORS)),
    }


_SUBMISSIONS = st.one_of(_grid_submissions(), _points_submissions())


def _leaves(payload: dict) -> list[tuple]:
    """Paths to the scalar leaves and containers a mutation may replace."""
    paths: list[tuple] = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, (*path, key))
        elif isinstance(node, list):
            for index, value in enumerate(node):
                walk(value, (*path, index))

    walk(payload, ())
    return paths


def _replaced(payload, path: tuple, value):
    """A deep copy of ``payload`` with the node at ``path`` replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(payload))
    node = copy
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return copy


_MARK = "__REPLACED__"


@st.composite
def _bodies(draw) -> bytes:
    payload = draw(_SUBMISSIONS)
    shape = draw(
        st.sampled_from(
            ["valid", "truncated", "wrong-type", "huge", "raw-number",
             "executor", "nested"]
        )
    )
    if shape == "valid":
        return json.dumps(payload).encode()
    if shape == "truncated":
        text = json.dumps(payload).encode()
        return text[: draw(st.integers(0, len(text) - 1))]
    if shape == "executor":
        executor = draw(st.one_of(st.text(max_size=12), st.sampled_from(EXECUTORS)))
        if draw(st.booleans()):  # the vectorized executor on an event grid
            payload = {"grid": draw(st.sampled_from(["policy-compare", "arrival-sweep"]))}
            executor = "vectorized"
        return json.dumps(dict(payload, executor=executor)).encode()
    path = draw(st.sampled_from(_leaves(payload)))
    if shape == "wrong-type":
        return json.dumps(_replaced(payload, path, draw(_WRONG_TYPES))).encode()
    if shape == "huge":
        return json.dumps(_replaced(payload, path, draw(_HUGE_NUMBERS))).encode()
    # raw text spliced where a node was: numbers JSON cannot encode, or a
    # nest deep enough to exhaust a recursive decoder
    if shape == "raw-number":
        raw = draw(_RAW_NUMBERS)
    else:
        raw = _nested(draw(st.integers(1, 6000)), kind=draw(st.sampled_from("[{")))
    text = json.dumps(_replaced(payload, path, _MARK))
    return text.replace(json.dumps(_MARK), raw, 1).encode()


def test_every_generated_body_gets_a_defined_answer(queued, capsys):
    service, port = queued

    @settings(max_examples=150, deadline=None)
    @given(body=_bodies())
    def answered(body: bytes) -> None:
        before = len(service.store)
        status, answer = _post(port, body)
        assert status in (201, 400, 413), (status, answer)
        added = len(service.store) - before
        if status == 201:
            record = json.loads(answer)
            assert record["status"] == "queued" and added == 1
        else:
            assert added == 0, answer

    answered()
    assert capsys.readouterr().err == ""
    assert all(record.status == "queued" for record in service.list_jobs())
