"""The gateway's wire encoding: stored result text spliced into envelopes.

Every response body must be byte-identical to ``json.dumps`` of the
fully materialized envelope (the result rebuilt with
``NetworkResult.to_dict``), whichever path produced the result: a fresh
execution, a memory hit, or a disk hit after a restart.
"""

import http.client
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import wire
from repro.server.wire import RawJSON
from repro.system.training import NetworkResult

from tests.server.conftest import cheap_spec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def fetch(server, method: str, path: str, body=None) -> tuple[int, bytes]:
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def materialized(job, include_result: bool = True) -> dict:
    """A job's envelope built the pre-splice way: the whole outcome,
    result included, turned into dicts."""
    out = {
        "id": job.id,
        "status": job.status,
        "spec_hash": job.key,
        "coalesced": job.coalesced,
    }
    envelope = job.outcome.to_dict(include_result=include_result)
    envelope.pop("key")
    envelope.pop("status")
    out.update(envelope)
    return out


def post_and_check(server, body) -> list[dict]:
    """POST with ``?wait=``; assert byte identity; return the jobs."""
    status, raw = fetch(server, "POST", "/v1/jobs?wait=60", body)
    assert status == 200, raw
    parsed = json.loads(raw)
    expected = {
        "jobs": [
            dict(
                materialized(server.jobs.get(job["id"])),
                disposition=job["disposition"],
            )
            for job in parsed["jobs"]
        ],
        "accepted": parsed["accepted"],
    }
    assert raw == dump(expected)
    return parsed["jobs"]


def get_job_and_check(server, job_id: str) -> None:
    for query, include_result in (("", True), ("?summary=1", False)):
        status, raw = fetch(server, "GET", f"/v1/jobs/{job_id}{query}")
        assert status == 200
        job = server.jobs.get(job_id)
        assert raw == dump(materialized(job, include_result))
        assert ("result" in json.loads(raw)) is include_result


def get_result_and_check(server, spec_hash: str) -> None:
    status, raw = fetch(server, "GET", f"/v1/results/{spec_hash}")
    assert status == 200
    result = server.cache.lookup(spec_hash)
    assert raw == dump({"spec_hash": spec_hash, "result": result.to_dict()})


@pytest.fixture()
def gateway(live_server):
    """Factory: a started gateway (stopped at teardown)."""
    return lambda **overrides: live_server(**overrides)[0]


class TestByteIdentity:
    def test_fresh_miss_then_memory_hits(self, gateway):
        server = gateway()
        [miss] = post_and_check(server, cheap_spec(batch=16))
        assert miss["disposition"] == "queued"
        [hit] = post_and_check(server, cheap_spec(batch=16))
        assert hit["disposition"] == "cached"
        for job in (miss, hit):
            get_job_and_check(server, job["id"])
        get_result_and_check(server, hit["spec_hash"])

    def test_disk_hits_after_restart(self, gateway, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = gateway(cache_dir=cache_dir)
        [miss] = post_and_check(first, cheap_spec(batch=24))
        first.stop()

        restarted = gateway(cache_dir=cache_dir)
        [hit] = post_and_check(restarted, cheap_spec(batch=24))
        assert hit["disposition"] == "cached"
        assert restarted.cache.stats()["disk_hits"] == 1
        get_job_and_check(restarted, hit["id"])

        # The results endpoint's own disk hit, on a cold memory layer.
        direct = gateway(cache_dir=cache_dir)
        status, raw = fetch(
            direct, "GET", f"/v1/results/{miss['spec_hash']}"
        )
        assert status == 200
        assert direct.cache.stats()["disk_hits"] == 1
        result = direct.cache.lookup(miss["spec_hash"])
        assert raw == dump(
            {"spec_hash": miss["spec_hash"], "result": result.to_dict()}
        )

    def test_batch_mixing_hits_and_misses(self, gateway):
        server = gateway()
        post_and_check(server, cheap_spec(batch=16))
        jobs = post_and_check(
            server,
            {
                "jobs": [
                    cheap_spec(batch=16),
                    cheap_spec(batch=40),
                    cheap_spec(batch=40),
                    cheap_spec(batch=16),
                ]
            },
        )
        assert [job["disposition"] for job in jobs] == [
            "cached", "queued", "coalesced", "cached",
        ]
        # Both attached jobs of one execution carry the same bytes.
        assert jobs[1]["result"] == jobs[2]["result"]

    def test_memory_hit_never_calls_to_dict(self, gateway, monkeypatch):
        server = gateway()
        [miss] = post_and_check(server, cheap_spec(batch=32))
        calls = []
        real = NetworkResult.to_dict
        monkeypatch.setattr(
            NetworkResult,
            "to_dict",
            lambda self: calls.append(1) or real(self),
        )
        for _ in range(3):
            status, _ = fetch(
                server, "POST", "/v1/jobs?wait=60", cheap_spec(batch=32)
            )
            assert status == 200
        fetch(server, "GET", f"/v1/jobs/{miss['id']}")
        fetch(server, "GET", f"/v1/results/{miss['spec_hash']}")
        assert calls == []


# ----------------------------------------------------------------------
# The encoder on its own
# ----------------------------------------------------------------------
#: The exact string the encoder stands in for a RawJSON.
MARKER = "\x00" + wire._NONCE

IMITATIONS = [
    MARKER,
    '"' + MARKER,
    MARKER + '"',
    "\\" + MARKER,
    '\\"' + MARKER + '"',
    MARKER[:-1],
    MARKER + "0",
    '"\\u0000' + wire._NONCE + '"',
    '": "result", "x": ',
    '{"result": 1}',
    "\x00",
]

#: Strings that imitate the marker, its encoded form, or JSON syntax.
strings = st.one_of(
    st.sampled_from(IMITATIONS),
    st.builds(
        lambda a, b, c: a + b + c,
        st.text(max_size=3),
        st.sampled_from(IMITATIONS),
        st.text(max_size=3),
    ),
    st.text(
        alphabet=st.sampled_from(
            ['"', "\\", "\x00", "u", "0", ":", " ", "{", "}", "r"]
            + list(wire._NONCE[:3])
        ),
        max_size=12,
    ),
    st.text(max_size=8),
)
floats = st.floats(allow_nan=False)
result_dicts = st.dictionaries(
    strings,
    st.one_of(floats, st.integers(), strings, st.lists(floats, max_size=3)),
    max_size=4,
)


class TestEncoder:
    @settings(max_examples=300, deadline=None)
    @given(
        network=strings,
        params=st.dictionaries(strings, floats, max_size=4),
        results=st.lists(result_dicts, min_size=1, max_size=3),
        error=strings,
    )
    def test_splice_equals_full_dump(self, network, params, results, error):
        def job(result):
            return {
                "spec": {"network": network, "optimizer_params": params},
                "error": error,
                "result": result,
            }

        envelope = {
            "jobs": [
                job(RawJSON(json.dumps(r, sort_keys=True))) for r in results
            ],
            "accepted": len(results),
            network: params,
        }
        full = {
            "jobs": [job(r) for r in results],
            "accepted": len(results),
            network: params,
        }
        assert wire.encode(envelope) == dump(full)

    def test_strings_holding_the_marker_are_not_spliced(self):
        result = {"a": [1.5, None], "b": "x"}
        text = json.dumps(result, sort_keys=True)
        envelope = {
            MARKER: '"' + MARKER,
            "jobs": [{"result": RawJSON(text)}, {"result": RawJSON(text)}],
            "spec": [MARKER, "x" + MARKER],
        }
        full = dict(envelope, jobs=[{"result": result}, {"result": result}])
        assert wire.encode(envelope) == dump(full)

    def test_plain_objects_and_top_level_raw(self):
        assert wire.encode({"b": 1, "a": [2.5, "é"]}) == dump(
            {"b": 1, "a": [2.5, "é"]}
        )
        assert wire.encode(RawJSON('{"x": 1}')) == b'{"x": 1}'
        assert wire.encode([RawJSON("1"), "2"]) == b'[1, "2"]'

    def test_unserializable_objects_still_raise(self):
        with pytest.raises(TypeError):
            wire.encode({"x": object()})
