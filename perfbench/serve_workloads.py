"""The service workloads: ``serve`` and ``serve-faults``.

Both run ``ClusterHarness(shards=2, max_workers=1)``: two experiment-server
shards behind a shard router, in this process, with one spawn worker per
shard and per-shard directory caches under the checkout's ``.perfbench/``.
Two client threads drive the router in a closed loop: each sends its next
request when the previous reply has been read.  Each client's schedule is
drawn from ``--seed``: about half fresh specs (a ``clifford_t`` scenario
never submitted before, four simulation seeds, so four jobs execute and
are written to the cache) and half repeats of a spec that client already
completed (answered from the cache).  A timed run pauses both clients
every second for a host-speed calibration loop; latencies and throughput
are normalised by it (see ``README.md``).

``serve-faults`` adds a seeded :class:`~repro.cluster.chaos.FaultPlan`
(connection close / truncated stream) on every router-to-shard connection,
seeded retry jitter and a ``dead_after`` large enough that no shard is
ever declared dead, so the router's recovery and backoff paths run.

Checks: every reply is HTTP 200 with four rows, no error record and a
summary line; a repeat's rows are byte-identical to the spec's first rows;
a sample of rows equals ``ResultRow.summary()`` of the same jobs run in
this process; on ``serve-faults`` a sample of routed streams equals the
fault-free bytes fetched straight from a shard.  After teardown no worker
process or thread may remain.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import threading
import time
from typing import Dict, List, Optional

from common import (SETUP_REPEATS, WORK, calibration_loop, median,
                    normalised, percentile, ratio)

CLIENTS = 2
#: Seconds between calibration loops in a timed run.
SLICE_S = 1.0
#: Requests per client in a fixed-work (traced) run.
FIXED_REQUESTS = 300
#: Fresh specs per client whose modelled cycles make up ``sim_cycles``.
EXACT_SPECS = 25
#: Fresh specs per client checked against an in-process run.
REFERENCE_SPECS = 2
FAULT_RATE = 0.15
FAULT_SLOTS = 20_000
ROUTER_PROBES = 30
#: Warms both shard workers during set-up; its scenario (n=3) never
#: collides with a client's fresh specs (n=4).
WARMUP_SPEC = {"name": "warmup",
               "benchmarks": ["scenario:clifford_t:n=3,depth=3,seed=0"],
               "schedulers": ["rescq"], "seeds": [0, 1, 2, 3]}


def fresh_spec(scenario_seed: int, sim_seeds: List[int]) -> dict:
    return {"name": f"fresh-{scenario_seed}",
            "benchmarks": [
                f"scenario:clifford_t:n=4,depth=3,seed={scenario_seed}"],
            "schedulers": ["rescq"], "seeds": list(sim_seeds)}


class Client:
    """One closed-loop client with its own seeded request schedule."""

    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.rng = random.Random(f"{seed}:{index}")
        self.used = set()
        self.completed: List[dict] = []   # specs with rows, in order
        self.rows: Dict[str, bytes] = {}  # spec name -> row bytes
        self.fresh_order: List[str] = []  # spec names in first-send order
        self.fresh_cycles: Dict[str, int] = {}
        self.latency = {"hit": [], "fresh": []}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.finished_at = 0.0

    def next_request(self):
        if self.completed and self.rng.random() < 0.5:
            return "hit", self.rng.choice(self.completed)
        while True:
            # Clients draw from disjoint (even/odd) scenario seeds.
            scenario = self.rng.randrange(2 ** 30) * CLIENTS + self.index
            if scenario not in self.used:
                break
        self.used.add(scenario)
        sim_seeds = [self.rng.randrange(2 ** 31) for _ in range(4)]
        return "fresh", fresh_spec(scenario, sim_seeds)

    def run(self, cluster, stop, check_executed: bool) -> None:
        """Send requests until ``stop(requests sent so far)``."""
        while not stop(self.attempted):
            kind, spec = self.next_request()
            envelope = {"spec": spec,
                        "request_id": f"c{self.index}-{self.attempted}"}
            self.attempted += 1
            start = time.perf_counter()
            status, _headers, body = cluster.request(
                "POST", "/experiments", envelope, timeout=60.0)
            elapsed = time.perf_counter() - start
            problem = self._accept(kind, spec, status, body, check_executed)
            if problem:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"client {self.index} {kind} "
                                       f"{spec['name']}: {problem}")
                continue
            self.latency[kind].append(elapsed)
        self.finished_at = time.perf_counter()

    def _accept(self, kind, spec, status, body, check_executed
                ) -> Optional[str]:
        if status != 200:
            return f"HTTP {status}: {body[:160]!r}"
        lines = body.split(b"\n")
        if lines[-1] != b"" or len(lines) != 6:
            return f"expected 4 rows + summary, got {len(lines) - 1} lines"
        summary = json.loads(lines[4])
        if summary.get("type") != "summary" or summary.get("jobs") != 4 \
                or summary.get("errors"):
            return f"bad summary {summary}"
        rows = b"\n".join(lines[:4])
        if b'"type":"error"' in rows:
            return "error record in stream"
        name = spec["name"]
        if kind == "fresh":
            self.rows[name] = rows
            self.completed.append(spec)
            self.fresh_order.append(name)
            self.fresh_cycles[name] = sum(
                json.loads(line)["total_cycles"] for line in lines[:4])
            return None
        if rows != self.rows[name]:
            return "repeat rows differ from the first reply's rows"
        if check_executed and summary.get("executed"):
            return f"repeat executed {summary['executed']} job(s)"
        return None


def _start_cluster(faulted: bool, seed: int, cache_root: str):
    from repro.cluster import ClusterHarness, FaultPlan
    from repro.exec.cache import DirectoryCache

    options = {}
    if faulted:
        options = {"rng": random.Random(seed), "dead_after": 1_000_000,
                   "max_attempts": 8}
    cluster = ClusterHarness(
        shards=2, max_workers=1, router_options=options,
        cache_factory=lambda index: DirectoryCache(
            os.path.join(cache_root, f"shard{index}")))
    if faulted:
        rng = random.Random(f"faults:{seed}")
        cluster.with_faults({
            index: FaultPlan.seeded(rng.randrange(2 ** 31), FAULT_SLOTS,
                                    kinds=("close", "truncate"),
                                    rate=FAULT_RATE)
            for index in range(2)})
    cluster.start()
    status, _headers, body = cluster.request(
        "POST", "/experiments", {"spec": WARMUP_SPEC}, timeout=60.0)
    if status != 200:
        cluster.stop()
        raise RuntimeError(f"warm-up request failed: HTTP {status} {body!r}")
    return cluster


def _counters(cluster) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for server in cluster.servers:
        stats = server.service.stats
        for key in ("requests", "executed", "cache_hits", "deduped",
                    "rejected"):
            counts[f"service.{key}"] = counts.get(f"service.{key}", 0) + \
                getattr(stats, key)
        cache = server.service.cache.stats
        counts["cache.hits"] = counts.get("cache.hits", 0) + cache.hits
        counts["cache.misses"] = counts.get("cache.misses", 0) + cache.misses
    router = cluster.router.stats
    for key in ("retried", "recovered", "gave_up", "backoff_waits"):
        counts[f"cluster.{key}"] = getattr(router, key)
    counts["cluster.faults_fired"] = sum(
        sum(1 for fault in proxy.applied if fault is not None)
        for proxy in cluster.proxies.values())
    return counts


def _reference_rows(spec: dict) -> bytes:
    """The spec's rows as ``ResultRow.summary()`` of in-process runs."""
    from repro.api.resultset import ResultRow
    from repro.api.spec import ExperimentSpec
    from repro.canonical import canonical_dumps

    lines = []
    for job in ExperimentSpec.from_dict(spec).validate().expand():
        row = ResultRow(benchmark=job.benchmark,
                        scheduler=job.scheduler_name, seed=job.seed,
                        params=dict(job.tags), result=job.run()).summary()
        lines.append(canonical_dumps(row).encode("utf-8"))
    return b"\n".join(lines)


def _router_overhead(cluster, spec: dict) -> float:
    """Median routed minus median shard-direct latency of a cache hit."""
    payload = {"spec": spec}
    cluster.shard_request(0, "POST", "/experiments", payload)
    routed, direct = [], []
    for _ in range(ROUTER_PROBES):
        start = time.perf_counter()
        cluster.request("POST", "/experiments", payload)
        routed.append(time.perf_counter() - start)
        start = time.perf_counter()
        cluster.shard_request(0, "POST", "/experiments", payload)
        direct.append(time.perf_counter() - start)
    return median(routed) - median(direct)


def _leaks() -> List[str]:
    """Worker processes or threads still alive after teardown."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        children = multiprocessing.active_children()
        threads = [thread for thread in threading.enumerate()
                   if thread is not threading.main_thread()]
        if not children and not threads:
            return []
        time.sleep(0.05)
    return ([f"process {child.name} pid={child.pid}" for child in children]
            + [f"thread {thread.name}" for thread in threads])


def _drive(cluster, clients, seconds: float, fixed: bool,
           check_executed: bool) -> dict:
    """Run the clients in slices of :data:`SLICE_S` between calibration
    loops; a fixed-work run is one slice.

    Between slices both clients have their replies and the service is idle,
    so a calibration loop then measures the host alone.  Each slice's
    latencies and wall are normalised by the loops on either side of it.
    """
    loops = [calibration_loop()]
    window = {"hit": [], "fresh": [], "wall_s": 0.0, "normalised_s": 0.0,
              "loops": loops}
    window_end = time.perf_counter() + seconds
    while True:
        slice_start = time.perf_counter()
        slice_end = min(slice_start + SLICE_S, window_end)
        if fixed:
            def stop(number):
                return number >= FIXED_REQUESTS
        else:
            def stop(_number):
                return time.perf_counter() >= slice_end
        marks = [{kind: len(samples)
                  for kind, samples in client.latency.items()}
                 for client in clients]
        threads = [threading.Thread(target=client.run,
                                    args=(cluster, stop, check_executed),
                                    name=f"client-{client.index}")
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = max(client.finished_at for client in clients) - slice_start
        loops.append(calibration_loop())
        window["wall_s"] += wall
        window["normalised_s"] += normalised(wall, loops[-2], loops[-1])
        for client, mark in zip(clients, marks):
            for kind, samples in client.latency.items():
                window[kind] += [normalised(value, loops[-2], loops[-1])
                                 for value in samples[mark[kind]:]]
        if fixed or time.perf_counter() >= window_end:
            return window


def run(name: str, seed: int, seconds: float, fixed: bool,
        tracer=None) -> dict:
    """One phase of a service workload; returns the phase record."""
    faulted = name == "serve-faults"
    cache_root = os.path.join(WORK, f"cache-{os.getpid()}")
    setups, cluster = [], None
    try:
        for attempt in range(SETUP_REPEATS):
            shutil.rmtree(cache_root, ignore_errors=True)
            loop_before = calibration_loop()
            start = time.perf_counter()
            cluster = _start_cluster(faulted, seed, cache_root)
            setups.append(normalised(time.perf_counter() - start,
                                     loop_before, calibration_loop()))
            if attempt + 1 < SETUP_REPEATS:
                cluster.stop()
                cluster = None
        clients = [Client(index, seed) for index in range(CLIENTS)]
        before = _counters(cluster)
        if tracer is not None:
            tracer.install()
        window = _drive(cluster, clients, seconds, fixed, not faulted)
        if tracer is not None:
            tracer.uninstall()
        after = _counters(cluster)
        delta = {key: after[key] - before[key] for key in after}
        layers = None
        if tracer is not None:
            layers = service_layers(tracer, clients, delta, _router_overhead(
                cluster, clients[0].completed[0]))
        errors = [error for client in clients for error in client.errors]
        failed = sum(client.failed for client in clients)
        attempted = sum(client.attempted for client in clients)
        for client in clients:
            for spec_name in client.fresh_order[:REFERENCE_SPECS]:
                spec = next(spec for spec in client.completed
                            if spec["name"] == spec_name)
                attempted += 1
                if _reference_rows(spec) != client.rows[spec_name]:
                    failed += 1
                    errors.append(f"{spec_name}: rows differ from an "
                                  f"in-process run")
                if faulted:
                    attempted += 1
                    status, _headers, body = cluster.shard_request(
                        1, "POST", "/experiments", {"spec": spec})
                    direct = b"\n".join(body.split(b"\n")[:4])
                    if status != 200 or direct != client.rows[spec_name]:
                        failed += 1
                        errors.append(f"{spec_name}: routed rows differ from "
                                      f"the fault-free shard rows")
    finally:
        if cluster is not None:
            cluster.stop()
        shutil.rmtree(cache_root, ignore_errors=True)
    leaks = _leaks()
    if leaks:
        failed += 1
        errors.append(f"left running after teardown: {', '.join(leaks)}")

    hits, fresh = window["hit"], window["fresh"]
    exact = [client.fresh_cycles[spec_name] for client in clients
             for spec_name in client.fresh_order[:EXACT_SPECS]]
    if len(exact) < CLIENTS * EXACT_SPECS:
        failed += 1
        errors.append(f"only {len(exact)} fresh specs completed; "
                      f"{CLIENTS * EXACT_SPECS} make up sim_cycles")
    completed = len(hits) + len(fresh)
    cycles = sum(cycles for client in clients
                 for cycles in client.fresh_cycles.values())
    raw_hits = [value for client in clients
                for value in client.latency["hit"]]
    raw_fresh = [value for client in clients
                 for value in client.latency["fresh"]]
    phase = {
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "digests": {},
        "e2e": {
            "setup_s": median(setups),
            "requests_per_s": completed / window["normalised_s"],
            "sim_cycles_per_s": cycles / window["normalised_s"],
            "sim_cycles": float(sum(exact)),
            "hit_latency_p50_s": percentile(hits, 0.5),
            "hit_latency_p90_s": percentile(hits, 0.9),
            "fresh_latency_p50_s": percentile(fresh, 0.5),
            "fresh_latency_p90_s": percentile(fresh, 0.9),
        },
        "exact": {"sim_cycles": float(sum(exact))},
        "info": {"hit_requests": len(hits), "fresh_requests": len(fresh),
                 "window_s": window["wall_s"], "counters": delta,
                 "calibration_loops": len(window["loops"]),
                 "calibration_loop_s": median(window["loops"]),
                 "raw": {"requests_per_s": completed / window["wall_s"],
                         "hit_latency_p50_s": percentile(raw_hits, 0.5),
                         "fresh_latency_p50_s": percentile(raw_fresh,
                                                           0.5)}},
    }
    if layers is not None:
        phase["layers"] = layers
    return phase


def service_layers(tracer, clients, delta: Dict[str, float],
                   router_overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced service phase, per client request."""
    requests = sum(len(client.latency["hit"]) + len(client.latency["fresh"])
                   for client in clients)
    layers: Dict[str, float] = {}
    for span in ("api.envelope_parse", "exec.fingerprint",
                 "service.submit_plan", "api.row_encode"):
        layers[f"{span}.self_s"] = tracer.self_seconds(span) / requests
    for span in ("api.validate_expand", "exec.cache_get", "exec.cache_put"):
        layers[f"{span}.calls"] = tracer.calls(span) / requests
        layers[f"{span}.self_s"] = tracer.self_seconds(span) / requests
    layers["exec.cache_hit_ratio"] = ratio(
        delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"])
    waits = tracer.executor_waits
    layers["service.executor_wait_s"] = sum(waits) / len(waits) \
        if waits else 0.0
    layers["service.deduped"] = delta["service.deduped"]
    layers["service.rejected"] = delta["service.rejected"]
    layers["cluster.shard_streams"] = delta["service.requests"] / requests
    layers["cluster.router_overhead_s"] = router_overhead_s
    for key in ("retried", "recovered", "gave_up", "backoff_waits",
                "faults_fired"):
        layers[f"cluster.{key}"] = delta[f"cluster.{key}"]
    return layers
