"""Live cluster serving: the /v1 protocol through the router.

Every test here boots real shard gateway children (fork) behind a
background router and drives it with the unchanged ``ServerClient`` —
the point being that a cluster is protocol-indistinguishable from one
gateway.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import parse_prometheus
from repro.server import ServerClient, ServerError
from repro.service.cache import cache_key
from repro.service.spec import SimJobSpec

from tests.cluster.conftest import cheap_spec, needs_fork

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@needs_fork
class TestClusterServing:
    def test_healthz_shows_the_fleet(self, live_cluster):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["role"] == "cluster-router"
        assert health["ring_nodes"] == ["s0", "s1"]
        assert all(
            shard["state"] == "ready"
            for shard in health["shards"].values()
        )

    def test_readyz_reports_serving_capacity(self, live_cluster):
        cluster = live_cluster(shards=2)
        status, body = get_json(f"{cluster.url}/readyz")
        assert status == 200
        assert body == {"ready": True, "ready_shards": 2}

    def test_keepalive_responses_leave_in_one_send(self, live_cluster):
        """The router, like the gateway, writes each response in one
        send, so a keep-alive client never waits on a delayed ACK."""
        import http.client
        import time
        from urllib.parse import urlsplit

        cluster = live_cluster(shards=2)
        parts = urlsplit(cluster.url)
        connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=10
        )
        try:
            connection.request("GET", "/readyz")  # connect, warm up
            connection.getresponse().read()
            started = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/readyz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.2, f"10 keep-alive requests took {elapsed:.3f}s"

    def test_submit_executes_and_routes_by_content_hash(
        self, live_cluster
    ):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        spec = cheap_spec(batch=32)
        [envelope] = client.submit(spec, wait=30.0)
        assert envelope["status"] == "done"
        assert envelope["id"].startswith("cjob-")
        assert envelope["result"]["network"] == "MLP1"
        # The router placed the job on the ring owner of the spec's
        # content hash — sticky routing is what preserves coalescing
        # and cache locality under sharding.
        key = cache_key(SimJobSpec.from_dict(spec))
        assert envelope["shard"] == cluster.supervisor.ring.route(key)

    def test_batch_lands_byte_identical_results(self, live_cluster):
        from repro.service import api

        specs = [cheap_spec(batch=b) for b in (16, 24, 40)]
        expected = {
            spec["batch"]: api.submit(
                SimJobSpec.from_dict(spec), cache=None
            ).result.to_dict()
            for spec in specs
        }
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        envelopes = client.submit(specs)
        finals = client.wait_for([e["id"] for e in envelopes])
        for spec, final in zip(specs, finals):
            assert final["status"] == "done"
            assert final["result"] == expected[spec["batch"]]

    def test_resubmission_is_served_from_cache(self, live_cluster):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        spec = cheap_spec(batch=48)
        [first] = client.submit(spec, wait=30.0)
        [again] = client.submit(spec, wait=30.0)
        assert again["status"] == "done"
        assert again["result"] == first["result"]
        # Same content hash, same shard: the resubmission hit the
        # owner's cache rather than re-routing.
        assert again["shard"] == first["shard"]

    def test_results_endpoint_proxies_the_shared_cache(
        self, live_cluster
    ):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        [envelope] = client.submit(cheap_spec(batch=56), wait=30.0)
        found = client.result(envelope["spec_hash"])
        assert found["result"] == envelope["result"]
        with pytest.raises(ServerError) as err:
            client.result("0" * 64)
        assert err.value.status == 404

    def test_poll_of_unknown_router_id_is_404(self, live_cluster):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        with pytest.raises(ServerError) as err:
            client.job("cjob-99999999")
        assert err.value.status == 404

    def test_metrics_aggregate_router_and_relabelled_shards(
        self, live_cluster
    ):
        cluster = live_cluster(shards=2)
        client = ServerClient(cluster.url, max_retries=0)
        client.submit(cheap_spec(batch=64), wait=30.0)
        text = client.metrics_text()
        families = parse_prometheus(text)
        up = families["repro_cluster_shard_up"]
        assert up.get('{shard="s0"}') == 1.0
        assert up.get('{shard="s1"}') == 1.0
        assert families["repro_cluster_shards_ready"][""] == 2.0
        # Shard expositions ride along relabelled, family names
        # preserved — the loadgen per-stage attribution sums across
        # `shard=` label sets without knowing the cluster exists.
        requests = families["repro_server_requests_total"]
        assert any('shard="s' in labels for labels in requests)
        executions = families["repro_server_executions_total"]
        assert sum(executions.values()) >= 1
