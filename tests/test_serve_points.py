"""Submit-time validation of job documents (tier 1, pure unit).

A malformed job must fail when it is submitted, as a :class:`ServeError`
that the HTTP front answers with 400 -- never later on a worker, and
never as an exception the front does not catch (the client would see a
dropped connection instead of an answer).
"""

import asyncio
import json
import time

import pytest

from repro.errors import JobTooLargeError, ServeError
from repro.serve import points as points_module
from repro.serve.http import HttpApi
from repro.serve.orchestrator import Orchestrator
from repro.serve.points import MAX_JOB_POINTS, SWEEP_PARAMS, expand_job


def sweep(**params):
    return {"params": {"mode": ["everywhere"], "cores": [2], **params}}


@pytest.mark.parametrize("kind,spec", [
    ("sweep", sweep(bogus=[1])),
    ("sweep", sweep(mode=["nonsense"])),
    ("sweep", sweep(mode="nonsense")),
    ("sweep", sweep(cores=[0])),
    ("sweep", sweep(cores=["4"])),
    ("sweep", sweep(seed=[1.5])),
    ("sweep", sweep(window=[True])),
    ("sweep", {"params": {"mode": ["everywhere"]}}),
    ("campaign", {"n": "abc"}),
    ("campaign", {"n": 2, "seed": [0]}),
    ("selftest", {"n": 1e400}),
    ("selftest", {"n": [1]}),
    ("selftest", {"n": None}),
    ("selftest", {"n": 10 ** 400}),
    ("selftest", {"n": 2, "ms": float("nan")}),
    ("selftest", {"n": 2, "ms": -1}),
])
def test_malformed_job_fails_at_submit(kind, spec):
    with pytest.raises(ServeError):
        expand_job(kind, spec)


def test_sweep_accepts_every_point_parameter():
    params = {"mode": ["everywhere", "threads-endpoints"], "cores": [1, 4],
              "msgs_per_core": 8, "msg_bytes": [8], "window": [4],
              "seed": [0, 20221]}
    assert set(params) == set(SWEEP_PARAMS)
    kind, points = expand_job("sweep", {"params": params})
    assert kind == "msgrate" and len(points) == 8
    assert points[0] == {"cores": 1, "mode": "everywhere",
                         "msg_bytes": 8, "msgs_per_core": 8, "seed": 0,
                         "window": 4}


def test_numeric_fields_still_convert():
    # Integral strings and floats convert as they always did.
    _, points = expand_job("selftest", {"n": "2", "ms": 1})
    assert points == [{"i": 0, "ms": 1.0}, {"i": 1, "ms": 1.0}]


def _post(api: HttpApi, body: bytes) -> tuple[int, dict]:
    """One POST /jobs through the API's connection handler."""

    class Writer:
        def __init__(self):
            self.data = b""

        def write(self, data):
            self.data += data

        async def drain(self):
            pass

        def close(self):
            pass

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(b"POST /jobs HTTP/1.1\r\nContent-Length: "
                         + str(len(body)).encode() + b"\r\n\r\n" + body)
        reader.feed_eof()
        writer = Writer()
        await api._handle(reader, writer)
        return writer.data

    head, _, payload = asyncio.run(go()).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


@pytest.mark.parametrize("doc", [
    {"kind": "selftest", "spec": {"n": [1]}},
    {"kind": "sweep", "spec": sweep(bogus=[1])},
])
def test_http_answers_400_for_a_malformed_job(tmp_path, doc):
    api = HttpApi(Orchestrator(str(tmp_path)))
    status, reply = _post(api, json.dumps(doc).encode())
    assert status == 400 and "error" in reply
    assert api.orchestrator.jobs == {}


#: Jobs far above the cap: expanding any of them would take minutes.
HUGE_JOBS = [
    {"kind": "sweep", "spec": {"params": {
        "mode": ["everywhere"] * 3000, "cores": list(range(1, 3001))}}},
    {"kind": "campaign", "spec": {"seed": 1, "n": 10 ** 9}},
    {"kind": "selftest", "spec": {"n": 10 ** 9}},
]


@pytest.mark.parametrize("doc", HUGE_JOBS, ids=lambda d: d["kind"])
def test_http_answers_413_for_a_job_above_the_cap(tmp_path, monkeypatch,
                                                  doc):
    def no_points(*args, **kwargs):
        raise AssertionError("a job above the cap was expanded")

    # Every path from a counted job to its point list goes through one
    # of these; none may run.
    monkeypatch.setattr(points_module.itertools, "product", no_points)
    monkeypatch.setattr(points_module, "json_roundtrip", no_points)
    monkeypatch.setattr("repro.scenarios.sample.sample_scenarios",
                        no_points)
    api = HttpApi(Orchestrator(str(tmp_path)))
    body = json.dumps(doc).encode()
    start = time.monotonic()
    status, reply = _post(api, body)
    assert time.monotonic() - start < 1.0
    assert status == 413 and str(MAX_JOB_POINTS) in reply["error"]
    assert api.orchestrator.jobs == {}


def test_point_cap_counts_every_job_kind():
    at_cap = {"params": {"mode": ["everywhere"],
                         "cores": [1] * MAX_JOB_POINTS}}
    assert len(expand_job("sweep", at_cap)[1]) == MAX_JOB_POINTS
    assert len(expand_job("selftest", {"n": MAX_JOB_POINTS})[1]) \
        == MAX_JOB_POINTS
    for kind, spec in [
        ("sweep", {"params": {"mode": ["everywhere"] * 2,
                              "cores": [1] * (MAX_JOB_POINTS // 2 + 1)}}),
        ("selftest", {"n": MAX_JOB_POINTS + 1}),
        ("campaign", {"n": MAX_JOB_POINTS + 1}),
        ("scenarios", {"specs": [{}] * (MAX_JOB_POINTS + 1)}),
    ]:
        with pytest.raises(JobTooLargeError):
            expand_job(kind, spec)
