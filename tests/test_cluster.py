"""Tests for repro.cluster: HRW placement and the router.

The e2e tests run a real 2-shard cluster — two :class:`ExperimentServer`
instances and one :class:`ShardRouter` on loopback ephemeral ports — via
:class:`~repro.cluster.harness.ClusterHarness`, and drive it over HTTP with
``http.client``: the same wire path as the CI ``cluster-e2e`` job.  The
workload is a tiny seeded scenario circuit so a 16-job plan costs
milliseconds, not minutes.
"""

import asyncio
import contextlib
import json
import socket
import threading

import pytest

from repro.cluster import ClusterHarness, ShardRouter, hrw_score, rank_nodes

BENCH = "scenario:clifford_t:n=4,depth=3"


def spec_payload(seeds=4, depth=3, name="cluster-test", **envelope):
    payload = {"name": name,
               "benchmarks": [f"scenario:clifford_t:n=4,depth={depth}"],
               "schedulers": ["rescq"], "seeds": seeds,
               "config": {"mst_period": 10, "mst_latency": 10}}
    if envelope:
        return {"spec": payload, **envelope}
    return payload


def closed_port() -> int:
    """An ephemeral port with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@contextlib.contextmanager
def run_router(shards, **kwargs):
    """Run a ShardRouter over an arbitrary shard list in a background loop."""
    router = ShardRouter(shards, port=0, **kwargs)
    started = threading.Event()
    box = {}

    def runner():
        async def main():
            await router.start()
            box["loop"] = asyncio.get_event_loop()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await router.stop()
        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(timeout=60), "router failed to start"
    try:
        yield router
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=60)
        assert not thread.is_alive(), "router failed to stop cleanly"


# -- rendezvous hashing --------------------------------------------------------

class TestHashring:
    NODES = [f"http://10.0.0.{index}:8765" for index in range(1, 6)]

    def test_score_is_deterministic_and_node_sensitive(self):
        assert hrw_score("a", "k") == hrw_score("a", "k")
        assert hrw_score("a", "k") != hrw_score("b", "k")
        # The NUL separator keeps (node, key) boundaries unambiguous.
        assert hrw_score("ab", "c") != hrw_score("a", "bc")

    def test_rank_is_a_permutation_of_the_nodes(self):
        ranking = rank_nodes(self.NODES, "f" * 64)
        assert sorted(ranking) == sorted(self.NODES)
        assert rank_nodes(self.NODES, "f" * 64) == ranking  # stable

    def test_keys_spread_over_all_nodes(self):
        owners = {rank_nodes(self.NODES, f"{index:064x}")[0]
                  for index in range(200)}
        assert owners == set(self.NODES)

    def test_removing_a_node_only_moves_its_own_keys(self):
        keys = [f"{index:064x}" for index in range(100)]
        before = {key: rank_nodes(self.NODES, key) for key in keys}
        survivors = self.NODES[1:]
        for key, ranking in before.items():
            expected = [node for node in ranking if node != self.NODES[0]]
            assert rank_nodes(survivors, key) == expected

    def test_empty_node_list_is_an_error(self):
        with pytest.raises(ValueError):
            rank_nodes([], "k")


# -- router construction -------------------------------------------------------

class TestShardRouterValidation:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])

    def test_rejects_duplicate_shards(self):
        url = "http://127.0.0.1:8765"
        with pytest.raises(ValueError, match="duplicate"):
            ShardRouter([url, url + "/"])

    def test_rejects_non_http_shards(self):
        with pytest.raises(ValueError, match="http://"):
            ShardRouter(["https://127.0.0.1:8765"])


# -- 2-shard e2e ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cluster():
    with ClusterHarness(shards=2, max_workers=2) as instance:
        yield instance


def split_ndjson(body):
    lines = body.decode().splitlines()
    return lines[:-1], json.loads(lines[-1])


class TestClusterE2E:
    def test_identical_spec_twice_executes_once_cluster_wide(self, cluster):
        payload = spec_payload(seeds=16, depth=5)
        status, _headers, first = cluster.request("POST", "/experiments",
                                                  payload)
        assert status == 200
        status, _headers, second = cluster.request("POST", "/experiments",
                                                   payload)
        assert status == 200
        first_rows, first_summary = split_ndjson(first)
        second_rows, second_summary = split_ndjson(second)
        assert first_rows == second_rows  # byte-identical row stream
        assert len(first_rows) == 16
        assert first_summary["jobs"] == 16
        assert first_summary["executed"] == 16
        assert second_summary["executed"] == 0
        assert second_summary["cache_hits"] + second_summary["deduped"] == 16
        seeds = [json.loads(row)["seed"] for row in first_rows]
        assert seeds == list(range(16))  # merged back into plan order

    def test_jobs_spread_over_both_shards(self, cluster):
        cluster.request("POST", "/experiments", spec_payload(seeds=16,
                                                             depth=6))
        per_shard = []
        for index in range(2):
            status, _headers, data = cluster.shard_request(index, "GET",
                                                           "/stats")
            assert status == 200
            per_shard.append(json.loads(data)["jobs"])
        # 16 fingerprints HRW-hashed onto 2 shards: both sides own work.
        assert all(jobs > 0 for jobs in per_shard)

    def test_stats_aggregates_cluster_wide_counts(self, cluster):
        payload = spec_payload(seeds=4, depth=7)
        cluster.request("POST", "/experiments", payload)
        cluster.request("POST", "/experiments", payload)
        status, _headers, data = cluster.request("GET", "/stats")
        assert status == 200
        snapshot = json.loads(data)
        assert set(snapshot) == {"router", "cluster", "shards",
                                 "membership"}
        assert snapshot["router"]["requests"] >= 2
        cluster_counts = snapshot["cluster"]
        assert cluster_counts["executed"] >= 4
        assert cluster_counts["cache_hits"] + cluster_counts["deduped"] >= 4
        assert set(snapshot["shards"]) == set(cluster.shard_urls)

    def test_healthz_all_shards_ok(self, cluster):
        status, _headers, data = cluster.request("GET", "/healthz")
        assert status == 200
        payload = json.loads(data)
        assert payload["status"] == "ok"
        assert all(state == "ok" for state in payload["shards"].values())

    def test_include_status_rows_pass_through(self, cluster):
        payload = spec_payload(seeds=2, depth=8, include_status=True,
                               request_id="e2e-42")
        status, _headers, body = cluster.request("POST", "/experiments",
                                                 payload)
        assert status == 200
        rows, summary = split_ndjson(body)
        assert summary["request_id"] == "e2e-42"
        for row in rows:
            record = json.loads(row)
            assert record["status"]["source"] in ("executed", "cache",
                                                  "deduped")
            assert len(record["status"]["fingerprint"]) == 64

    def test_indices_runs_a_sub_plan_through_the_router(self, cluster):
        payload = spec_payload(seeds=4, depth=9, indices=[0, 2])
        status, _headers, body = cluster.request("POST", "/experiments",
                                                 payload)
        assert status == 200
        rows, summary = split_ndjson(body)
        assert summary["jobs"] == 2
        assert [json.loads(row)["seed"] for row in rows] == [0, 2]

    def test_out_of_range_indices_is_400(self, cluster):
        payload = spec_payload(seeds=2, depth=9, indices=[7])
        status, _headers, body = cluster.request("POST", "/experiments",
                                                 payload)
        assert status == 400
        assert "out of range" in json.loads(body)["error"]

    def test_admission_refusal_propagates_with_retry_after(self, cluster):
        for server in cluster.servers:
            server.service.max_pending = 0
            server.service.retry_after = 3.0
        try:
            status, headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=2, depth=10))
            assert status == 429
            assert int(headers["retry-after"]) == 3
            assert "max_pending" in json.loads(body)["error"]
        finally:
            for server in cluster.servers:
                server.service.max_pending = None
                server.service.retry_after = 1.0

    def test_bad_spec_is_400_not_a_shard_fanout(self, cluster):
        payload = spec_payload(seeds=2)
        payload["benchmarks"] = ["no_such_bench"]
        status, _headers, body = cluster.request("POST", "/experiments",
                                                 payload)
        assert status == 400
        assert "no_such_bench" in json.loads(body)["error"]


class TestRouterFailover:
    def test_all_shards_dead_is_502(self):
        dead = f"http://127.0.0.1:{closed_port()}"
        with run_router([dead], connect_timeout=2.0) as router:
            status, _headers, body = ClusterHarness._request(
                router.port, "POST", "/experiments", spec_payload(seeds=2))
            assert status == 502
            assert "no shard reachable" in json.loads(body)["error"]

    def test_dead_shard_fails_over_to_next_ranked(self, cluster):
        dead = f"http://127.0.0.1:{closed_port()}"
        shards = [dead] + cluster.shard_urls
        with run_router(shards, connect_timeout=2.0) as router:
            status, _headers, body = ClusterHarness._request(
                router.port, "POST", "/experiments",
                spec_payload(seeds=32, depth=11))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 32
            assert summary["jobs"] == 32
            assert "errors" not in summary
            # With 32 jobs over 3 ranked shards, some positions rank the
            # dead shard first and must have been re-routed.
            assert router.stats.retried > 0

    def test_healthz_reports_degraded_503(self, cluster):
        dead = f"http://127.0.0.1:{closed_port()}"
        with run_router([dead] + cluster.shard_urls,
                        probe_timeout=2.0) as router:
            status, _headers, data = ClusterHarness._request(
                router.port, "GET", "/healthz")
            assert status == 503
            payload = json.loads(data)
            assert payload["status"] == "degraded"
            assert payload["shards"][dead].startswith("unreachable")
            for url in cluster.shard_urls:
                assert payload["shards"][url] == "ok"
