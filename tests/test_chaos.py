"""Fault-tolerance tests: membership state machine, fault injection, retry.

The e2e tests here run the real wire path — router, chaos proxy, shards —
via :class:`~repro.cluster.harness.ClusterHarness.with_faults`, with every
source of nondeterminism pinned: fault schedules are explicit
:class:`FaultPlan` objects (or seeded), the router's backoff jitter draws
from an injected seeded RNG, and membership transitions are driven by
calling ``probe_once`` directly rather than sleeping through health
intervals.
"""

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.cluster import (DEAD, LIVE, SUSPECT, ChaosProxy, ClusterHarness,
                           Fault, FaultPlan, ShardRouter, ShardSet,
                           membership_rows)

import random


def spec_payload(seeds=4, depth=3, name="chaos-test", **envelope):
    payload = {"name": name,
               "benchmarks": [f"scenario:clifford_t:n=4,depth={depth}"],
               "schedulers": ["rescq"], "seeds": seeds,
               "config": {"mst_period": 10, "mst_latency": 10}}
    if envelope:
        return {"spec": payload, **envelope}
    return payload


def split_ndjson(body):
    lines = body.decode().splitlines()
    return lines[:-1], json.loads(lines[-1])


def closed_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def fast_router_options(**extra):
    """Deterministic, test-speed retry knobs for a harness router."""
    options = {"rng": random.Random(1234), "backoff_base": 0.001,
               "backoff_cap": 0.01, "max_attempts": 6}
    options.update(extra)
    return options


class TestShardSet:
    def test_initial_members_are_live_and_routable(self):
        shards = ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        assert shards.urls == ("http://127.0.0.1:1", "http://127.0.0.1:2")
        assert shards.routable() == shards.urls
        assert shards.live_count == 2
        assert all(shards.get(url).state == LIVE for url in shards.urls)

    def test_validation_mirrors_the_router(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardSet([])
        with pytest.raises(ValueError, match="duplicate"):
            ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:1/"])
        with pytest.raises(ValueError, match="http://"):
            ShardSet(["https://127.0.0.1:1"])

    def test_first_failure_suspects_but_keeps_routing(self):
        shards = ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        shards.record_failure("http://127.0.0.1:1", "connection refused")
        info = shards.get("http://127.0.0.1:1")
        assert info.state == SUSPECT
        assert info.last_error == "connection refused"
        # SUSPECT still routes: one blip must not move the shard's keys.
        assert "http://127.0.0.1:1" in shards.routable()

    def test_consecutive_failures_reach_dead(self):
        shards = ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:2"],
                          dead_after=3)
        for _ in range(2):
            shards.record_failure("http://127.0.0.1:1")
        assert shards.get("http://127.0.0.1:1").state == SUSPECT
        shards.record_failure("http://127.0.0.1:1")
        assert shards.get("http://127.0.0.1:1").state == DEAD
        assert shards.routable() == ("http://127.0.0.1:2",)
        # DEAD shards keep being probed so they can rejoin.
        assert "http://127.0.0.1:1" in shards.probe_targets()

    def test_success_resets_the_failure_streak(self):
        shards = ShardSet(["http://127.0.0.1:1"], dead_after=3)
        shards.record_failure("http://127.0.0.1:1")
        shards.record_failure("http://127.0.0.1:1")
        shards.record_success("http://127.0.0.1:1")
        for _ in range(2):
            shards.record_failure("http://127.0.0.1:1")
        # The streak restarted after the success: still SUSPECT, not DEAD.
        assert shards.get("http://127.0.0.1:1").state == SUSPECT

    def test_dead_shard_rejoins_on_probe_success(self):
        shards = ShardSet(["http://127.0.0.1:1"], dead_after=1)
        shards.record_failure("http://127.0.0.1:1")
        assert shards.get("http://127.0.0.1:1").state == DEAD
        shards.record_success("http://127.0.0.1:1")
        info = shards.get("http://127.0.0.1:1")
        assert info.state == LIVE
        assert info.recoveries == 1
        assert info.consecutive_failures == 0

    def test_drain_and_readd(self):
        shards = ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        shards.drain("http://127.0.0.1:1")
        assert shards.routable() == ("http://127.0.0.1:2",)
        assert shards.probe_targets() == ("http://127.0.0.1:2",)
        # Draining keeps the member listed, and failures don't demote it.
        assert "http://127.0.0.1:1" in shards.urls
        shards.record_failure("http://127.0.0.1:1")
        assert shards.get("http://127.0.0.1:1").state == "draining"
        # Re-adding is the operator's "bring it back" verb.
        assert shards.add("http://127.0.0.1:1") is True
        assert shards.get("http://127.0.0.1:1").state == LIVE

    def test_add_is_idempotent_for_live_members(self):
        shards = ShardSet(["http://127.0.0.1:1"])
        assert shards.add("http://127.0.0.1:1") is False
        assert shards.add("http://127.0.0.1:2") is True
        assert len(shards) == 2

    def test_unknown_shard_raises(self):
        shards = ShardSet(["http://127.0.0.1:1"])
        with pytest.raises(KeyError, match="unknown shard"):
            shards.record_failure("http://127.0.0.1:9")

    def test_snapshot_flattens_to_cli_rows(self):
        shards = ShardSet(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        shards.record_failure("http://127.0.0.1:2", "boom")
        rows = membership_rows(shards.snapshot())
        assert [row["shard"] for row in rows] == list(shards.urls)
        assert rows[1]["state"] == SUSPECT
        assert rows[1]["last_error"] == "boom"
        counts = shards.counts()
        assert counts[LIVE] == 1 and counts[SUSPECT] == 1


class TestFaultPlan:
    def test_seeded_plans_are_reproducible(self):
        first = FaultPlan.seeded(42, length=20)
        second = FaultPlan.seeded(42, length=20)
        assert first.faults == second.faults
        assert first.faults != FaultPlan.seeded(43, length=20).faults

    def test_cursor_consumes_in_order_then_passes_through(self):
        plan = FaultPlan([Fault("close"), None, Fault("stall", delay=0.5)])
        assert plan.next().kind == "close"
        assert plan.next() is None
        assert plan.next().kind == "stall"
        assert plan.next() is None  # past the end: clean pass-through

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("explode")
        with pytest.raises(ValueError, match="rows"):
            Fault("truncate", rows=-1)
        with pytest.raises(ValueError, match="delay"):
            Fault("stall", delay=-1.0)

    def test_describe_names_the_schedule(self):
        plan = FaultPlan([Fault("truncate", rows=2), None,
                          Fault("rewrite", status=429, retry_after=3.0)])
        assert plan.describe() == ("plan[truncate(rows=2), pass, "
                                   "rewrite(status=429,retry_after=3)]")


class TestMidStreamRecovery:
    """The chaos proof and its variations, through the real wire path."""

    @pytest.mark.parametrize("plans", [
        {0: FaultPlan([Fault("truncate", rows=1)])},
        # The retry shard dies too: shard 1's second connection (the
        # recovery of shard 0's positions) is cut before its first row.
        {0: FaultPlan([Fault("truncate", rows=1)]),
         1: FaultPlan([None, Fault("truncate", rows=0)])},
    ], ids=["first-shard", "first-and-retry-shard"])
    def test_truncate_mid_stream_recovers_byte_identical(self, plans):
        # Shard 0's first connection dies after forwarding one data row;
        # the router must recover the rest on shard 1 and still produce
        # the byte-identical row stream a fault-free run produces.
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plans) as cluster:
            payload = spec_payload(seeds=16, depth=5)
            status, _headers, faulted = cluster.request(
                "POST", "/experiments", payload)
            assert status == 200
            # The plan is exhausted now: the second run is fault-free.
            status, _headers, clean = cluster.request(
                "POST", "/experiments", payload)
            assert status == 200
            faulted_rows, faulted_summary = split_ndjson(faulted)
            clean_rows, clean_summary = split_ndjson(clean)
            assert faulted_rows == clean_rows  # byte-identical recovery
            assert len(faulted_rows) == 16
            seeds = [json.loads(row)["seed"] for row in faulted_rows]
            assert seeds == list(range(16))  # plan order preserved
            # Zero synthesized error records on either run.
            assert "errors" not in faulted_summary
            assert "errors" not in clean_summary
            assert cluster.proxies[0].applied[0].kind == "truncate"
            status, _headers, data = cluster.request("GET", "/stats")
            router_stats = json.loads(data)["router"]
            assert router_stats["recovered"] > 0
            assert router_stats["gave_up"] == 0
            # The mid-stream death fed the membership state machine.
            membership = json.loads(data)["membership"]
            proxied = cluster.routed_urls[0]
            assert membership["shards"][proxied]["failures"] >= 1

    def test_accept_then_close_fails_over_before_streaming(self):
        # A shard that accepts the connection and hangs up before
        # answering is a pre-head failure: re-routed, never client-visible.
        plan = FaultPlan([Fault("close")])
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=8, depth=4))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 8
            assert "errors" not in summary
            status, _headers, data = cluster.request("GET", "/stats")
            assert json.loads(data)["router"]["retried"] > 0

    def test_rewrite_500_fails_over_before_streaming(self):
        plan = FaultPlan([Fault("rewrite", status=500)])
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=8, depth=4))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 8
            assert "errors" not in summary

    def test_reset_after_error_head_fails_over_before_streaming(self):
        # A 500 head followed by a connection reset while the router reads
        # the error body is a shard fault like any other: re-routed.
        plan = FaultPlan([Fault("reset")])
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=8, depth=4))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 8
            assert "errors" not in summary
            status, _headers, data = cluster.request("GET", "/stats")
            assert json.loads(data)["router"]["retried"] > 0

    def test_reset_on_the_only_shard_is_502(self):
        # The client must get a 502 it can read, never a dropped socket.
        plan = FaultPlan([Fault("reset")] * 10)
        with ClusterHarness(shards=1, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=4, depth=4))
            assert status == 502
            assert "no shard reachable" in json.loads(body)["error"]
            status, _headers, data = cluster.request("GET", "/stats")
            stats = json.loads(data)
            assert stats["router"]["failed"] == 1
            proxied = cluster.routed_urls[0]
            assert stats["membership"]["shards"][proxied]["failures"] >= 1

    def test_reset_during_recovery_spends_one_attempt_not_all(self):
        # Shard 0 dies mid-stream; the recovery exchange on shard 1 then
        # answers 500 and resets.  That is one more fault, so the router
        # backs off and places again instead of giving up on every
        # position at once.
        plans = {0: FaultPlan([Fault("truncate", rows=1)]),
                 1: FaultPlan([None, Fault("reset")])}
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options(
                                max_attempts=4)) \
                .with_faults(plans) as cluster:
            payload = spec_payload(seeds=16, depth=5)
            status, _headers, faulted = cluster.request(
                "POST", "/experiments", payload)
            assert status == 200
            status, _headers, clean = cluster.request(
                "POST", "/experiments", payload)
            assert status == 200
            assert split_ndjson(faulted)[0] == split_ndjson(clean)[0]
            assert cluster.proxies[1].applied[1].kind == "reset"
            status, _headers, data = cluster.request("GET", "/stats")
            router_stats = json.loads(data)["router"]
            assert router_stats["recovered"] > 0
            assert router_stats["gave_up"] == 0

    def test_429_after_the_head_is_waited_out(self):
        # Once rows are streaming the router cannot answer 429 any more:
        # a refusal from the recovery shard is waited out as one attempt.
        plans = {0: FaultPlan([Fault("truncate", rows=1)]),
                 1: FaultPlan([None, Fault("rewrite", status=429,
                                           retry_after=0.05)])}
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plans) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=16, depth=5))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 16
            assert "errors" not in summary
            assert cluster.proxies[1].applied[1].status == 429
            status, _headers, data = cluster.request("GET", "/stats")
            router_stats = json.loads(data)["router"]
            assert router_stats["backoff_waits"] >= 1
            assert router_stats["gave_up"] == 0

    def test_shard_429_propagates_largest_retry_after(self):
        # The router must honor the shard-provided Retry-After (not the
        # old hardcoded "1" fallback).
        plan = FaultPlan([Fault("rewrite", status=429, retry_after=7.0)])
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            status, headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=16, depth=4))
            assert status == 429
            assert headers["retry-after"] == "7"
            assert "error" in json.loads(body)

    def test_retry_after_is_capped_by_the_request_deadline(self):
        plan = FaultPlan([Fault("rewrite", status=429, retry_after=600.0)])
        options = fast_router_options(request_deadline=2.0)
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=options) \
                .with_faults(plan) as cluster:
            status, headers, _body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=16, depth=4))
            assert status == 429
            # 600s hint, 2s deadline: the hint is capped, not parroted.
            assert int(headers["retry-after"]) <= 2

    def test_exhausted_retries_surface_error_rows_in_plan_order(self):
        # One shard, every connection truncated before the first row:
        # recovery has nowhere to go, so after max_attempts the positions
        # come back as error records — the stream still completes, in
        # order, with the failure spelled out per position.
        plan = FaultPlan([Fault("truncate", rows=0)] * 10)
        options = fast_router_options(max_attempts=2)
        with ClusterHarness(shards=1, max_workers=2,
                            router_options=options) \
                .with_faults(plan) as cluster:
            status, _headers, body = cluster.request(
                "POST", "/experiments", spec_payload(seeds=4, depth=4))
            assert status == 200
            rows, summary = split_ndjson(body)
            assert len(rows) == 4
            records = [json.loads(row) for row in rows]
            assert all(record["type"] == "error" for record in records)
            assert all("not recovered" in record["message"]
                       for record in records)
            assert summary["errors"] == 4
            status, _headers, data = cluster.request("GET", "/stats")
            router_stats = json.loads(data)["router"]
            assert router_stats["gave_up"] == 4
            assert router_stats["stream_errors"] == 4

    def test_concurrent_identical_submissions_survive_shard_death(self):
        # SingleFlight x router-retry interaction: two identical
        # submissions in flight while shard 0 dies mid-stream for both.
        # The recovery re-asks shard 1, whose single-flight/cache layers
        # make the duplicate work converge — both clients must see the
        # complete, identical, error-free stream (a follower must never
        # observe the dead leader's failure).
        plan = FaultPlan([Fault("truncate", rows=0),
                          Fault("truncate", rows=0)])
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                .with_faults(plan) as cluster:
            payload = spec_payload(seeds=12, depth=6)
            results = {}

            def submit(key):
                results[key] = cluster.request("POST", "/experiments",
                                               payload)

            threads = [threading.Thread(target=submit, args=(key,))
                       for key in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert set(results) == {"a", "b"}
            bodies = []
            for status, _headers, body in results.values():
                assert status == 200
                rows, summary = split_ndjson(body)
                assert len(rows) == 12
                assert "errors" not in summary
                bodies.append(rows)
            assert bodies[0] == bodies[1]  # byte-identical across clients
            status, _headers, data = cluster.request("GET", "/stats")
            router_stats = json.loads(data)["router"]
            assert router_stats["gave_up"] == 0


@pytest.fixture(scope="module")
def chaos_cluster():
    """A 2-shard cluster with swappable fault plans on both shards."""
    harness = ClusterHarness(
        shards=2, max_workers=2,
        router_options=fast_router_options(max_attempts=8,
                                           dead_after=10_000),
    ).with_faults({0: FaultPlan.none(), 1: FaultPlan.none()})
    with harness as cluster:
        yield cluster


class TestFaultPlanProperty:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed0=st.integers(0, 2**16), seed1=st.integers(0, 2**16))
    def test_bounded_faults_still_yield_complete_ordered_stream(
            self, chaos_cluster, seed0, seed1):
        # Property: any FaultPlan with <= K faults per shard against
        # N=2 live shards still yields a complete, plan-ordered,
        # error-free result stream (K=3 < max_attempts=8).
        kinds = ("refuse", "close", "truncate", "stall", "reset")
        chaos_cluster.set_fault_plan(
            0, FaultPlan.seeded(seed0, length=3, kinds=kinds, rate=0.7))
        chaos_cluster.set_fault_plan(
            1, FaultPlan.seeded(seed1, length=3, kinds=kinds, rate=0.7))
        status, _headers, body = chaos_cluster.request(
            "POST", "/experiments", spec_payload(seeds=8, depth=3))
        assert status == 200
        rows, summary = split_ndjson(body)
        assert len(rows) == 8
        assert "errors" not in summary
        seeds = [json.loads(row)["seed"] for row in rows]
        assert seeds == list(range(8))
        assert summary["jobs"] == 8


class TestMembershipAdmin:
    @pytest.fixture(scope="class")
    def cluster(self):
        with ClusterHarness(shards=2, max_workers=2,
                            router_options=fast_router_options()) \
                as harness:
            yield harness

    def test_shards_endpoint_lists_membership(self, cluster):
        status, _headers, data = cluster.request("GET", "/shards")
        assert status == 200
        snapshot = json.loads(data)["membership"]
        assert set(snapshot["shards"]) == set(cluster.shard_urls)

    def test_drain_moves_all_placements_then_readd(self, cluster):
        drained = cluster.shard_urls[0]
        status, _headers, data = cluster.request(
            "POST", "/shards", {"action": "drain", "url": drained})
        assert status == 200
        assert json.loads(data)["membership"]["counts"]["draining"] == 1
        before = json.loads(
            cluster.shard_request(1, "GET", "/stats")[2])["jobs"]
        status, _headers, body = cluster.request(
            "POST", "/experiments",
            spec_payload(seeds=8, depth=9, name="drain-test"))
        assert status == 200
        rows, _summary = split_ndjson(body)
        assert len(rows) == 8
        after = json.loads(
            cluster.shard_request(1, "GET", "/stats")[2])["jobs"]
        assert after - before == 8  # every placement avoided the drain
        status, _headers, data = cluster.request(
            "POST", "/shards", {"action": "add", "url": drained})
        assert status == 200
        payload = json.loads(data)
        assert payload["changed"] is True
        assert payload["membership"]["shards"][drained]["state"] == LIVE

    def test_admin_rejects_malformed_requests(self, cluster):
        status, _headers, _data = cluster.request(
            "POST", "/shards", {"action": "explode", "url": "http://x:1"})
        assert status == 400
        status, _headers, _data = cluster.request(
            "POST", "/shards", {"action": "drain",
                                "url": "http://127.0.0.1:9"})
        assert status == 404
        status, _headers, _data = cluster.request(
            "POST", "/shards", {"action": "add", "url": "ftp://nope"})
        assert status == 400

    def test_added_shard_receives_placements(self, cluster):
        # Adding the shard back (previous test) is not enough — prove a
        # routed submission can still use the full fleet.
        status, _headers, body = cluster.request(
            "POST", "/experiments",
            spec_payload(seeds=16, depth=10, name="readd-test"))
        assert status == 200
        rows, _summary = split_ndjson(body)
        assert len(rows) == 16


class TestProbeTransitions:
    def test_probe_once_drives_the_state_machine_without_clocks(self):
        with ClusterHarness(shards=1, router=False) as cluster:
            live = cluster.shard_urls[0]
            dead = f"http://127.0.0.1:{closed_port()}"
            router = ShardRouter([live, dead], dead_after=2,
                                 probe_timeout=2.0)
            results = asyncio.run(router.probe_once())
            assert results[live][0] == "ok"
            assert results[dead][0].startswith("unreachable")
            assert router.membership.get(live).state == LIVE
            assert router.membership.get(dead).state == SUSPECT
            asyncio.run(router.probe_once())
            assert router.membership.get(dead).state == DEAD
            assert router.membership.routable() == (live,)
            # DEAD shards stay on the probe list so they can rejoin.
            assert dead in router.membership.probe_targets()

    def test_recovered_shard_rejoins_automatically(self):
        with ClusterHarness(shards=1, router=False) as cluster:
            live = cluster.shard_urls[0]
            router = ShardRouter([live], dead_after=1)
            router.membership.record_failure(live, "simulated outage")
            assert router.membership.get(live).state == DEAD
            asyncio.run(router.probe_once())
            info = router.membership.get(live)
            assert info.state == LIVE
            assert info.recoveries == 1


class TestChaosProxyUnit:
    def test_proxy_passes_through_cleanly_without_faults(self):
        with ClusterHarness(shards=1, router=False) as cluster:
            box = {}

            async def run():
                proxy = ChaosProxy("127.0.0.1", cluster.shard_ports[0],
                                   plan=FaultPlan.none())
                await proxy.start()
                box["port"] = proxy.port
                box["proxy"] = proxy

            cluster.call(run)
            status, _headers, body = ClusterHarness._request(
                box["port"], "GET", "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            assert box["proxy"].applied == [None]
            cluster.call(box["proxy"].stop)


class TestClusterCLI:
    def test_route_parser_gains_fault_tolerance_knobs(self):
        parser = build_parser()
        args = parser.parse_args(
            ["route", "http://127.0.0.1:1", "--health-interval", "0.5",
             "--dead-after", "5", "--max-attempts", "7",
             "--request-deadline", "30", "--retry-seed", "99"])
        assert args.health_interval == 0.5
        assert args.dead_after == 5
        assert args.max_attempts == 7
        assert args.request_deadline == 30.0
        assert args.retry_seed == 99

    def test_cluster_status_prints_membership_table(self, capsys):
        with ClusterHarness(shards=2, max_workers=2) as cluster:
            exit_code = main(["cluster", "status", cluster.router_url])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Shard membership" in out
        assert "2/2 live" in out
        for url in cluster.shard_urls:
            assert url in out

    def test_cluster_status_unreachable_router_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach"):
            main(["cluster", "status",
                  f"http://127.0.0.1:{closed_port()}"])
