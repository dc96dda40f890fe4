"""An in-process N-shard cluster for tests and benchmarks.

Spinning up "2 serves + 1 router" appears in several places — the cluster
and chaos test suites and the service load benchmarks — and
``benchmarks/`` cannot import from ``tests/``, so the harness lives in
the package: a real :class:`~repro.cluster.router.ShardRouter` in front of
real :class:`~repro.service.server.ExperimentServer` shards, all on
loopback ephemeral ports inside one background event-loop thread.  This is
the same wire path as a production deployment; only the process boundaries
are collapsed.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import tempfile
import threading
from typing import (Awaitable, Callable, Dict, List, Mapping, Optional,
                    Tuple, Union)

from ..exec.cache import DirectoryCache
from ..service.executor import ServiceExecutor
from ..service.server import ExperimentServer
from ..service.service import ExperimentService
from .chaos import ChaosProxy, FaultPlan
from .router import ShardRouter

__all__ = ["ClusterHarness"]


class ClusterHarness:
    """Run N serve shards (and optionally a router) on loopback ports.

    Use as a context manager::

        with ClusterHarness(shards=2) as cluster:
            status, body = cluster.request("POST", "/experiments", payload)

    ``request`` talks to the router by default (or to shard 0 when the
    harness was built with ``router=False``); ``shard_request`` targets one
    shard directly.  Each shard gets its own executor and, by default, its
    own private :class:`~repro.exec.cache.DirectoryCache` under a temp
    directory owned by the harness — pass ``cache_factory`` to supply
    caches (or ``None`` for cacheless shards).
    """

    def __init__(self, shards: int = 2, router: bool = True,
                 max_workers: int = 2,
                 cache_factory: Optional[
                     Callable[[int], Optional[DirectoryCache]]] = None,
                 max_pending: Optional[int] = None,
                 retry_after: float = 1.0,
                 poll_interval: float = 0.01,
                 start_timeout: float = 120.0,
                 router_options: Optional[Mapping[str, object]] = None,
                 ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.num_shards = shards
        self.with_router = router
        self.max_workers = max_workers
        self.max_pending = max_pending
        self.retry_after = retry_after
        self.poll_interval = poll_interval
        self.start_timeout = start_timeout
        #: Extra keyword arguments for the :class:`ShardRouter` (e.g.
        #: ``max_attempts``, ``dead_after``, ``rng`` — anything its
        #: constructor takes beyond the shard list and port).
        self.router_options: Dict[str, object] = dict(router_options or {})
        self._cache_factory = cache_factory
        self._fault_plans: Dict[int, FaultPlan] = {}
        self._tempdir: Optional[tempfile.TemporaryDirectory] = None
        self.servers: List[ExperimentServer] = []
        self.proxies: Dict[int, ChaosProxy] = {}
        self.router: Optional[ShardRouter] = None
        self._thread: Optional[threading.Thread] = None
        self._box: dict = {}
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None

    def with_faults(self, plans: Union[FaultPlan,
                                       Mapping[int, FaultPlan]],
                    ) -> "ClusterHarness":
        """Interpose a :class:`ChaosProxy` between router and shard(s).

        ``plans`` is either one :class:`FaultPlan` (applied to shard 0) or
        a ``{shard_index: FaultPlan}`` mapping.  Must be called before
        :meth:`start`.  The router is then pointed at the proxy URL for
        each faulted shard, so its traffic — and only its traffic — flows
        through the fault schedule; direct ``shard_request`` calls keep
        using the real shard port.
        """
        if self._thread is not None or self._started.is_set():
            raise RuntimeError("with_faults() must be called before start()")
        if isinstance(plans, FaultPlan):
            plans = {0: plans}
        for index, plan in plans.items():
            if not 0 <= index < self.num_shards:
                raise ValueError(f"no shard {index} in a "
                                 f"{self.num_shards}-shard cluster")
            if not isinstance(plan, FaultPlan):
                raise TypeError(f"expected a FaultPlan for shard {index}, "
                                f"got {plan!r}")
            self._fault_plans[index] = plan
        return self

    # -- lifecycle -------------------------------------------------------------

    def _build_cache(self, index: int) -> Optional[DirectoryCache]:
        if self._cache_factory is not None:
            return self._cache_factory(index)
        if self._tempdir is None:
            self._tempdir = tempfile.TemporaryDirectory(
                prefix="rescq-cluster-")
        return DirectoryCache(f"{self._tempdir.name}/shard{index}")

    def start(self) -> "ClusterHarness":
        for index in range(self.num_shards):
            service = ExperimentService(
                executor=ServiceExecutor(max_workers=self.max_workers,
                                         poll_interval=self.poll_interval),
                cache=self._build_cache(index),
                max_pending=self.max_pending,
                retry_after=self.retry_after)
            self.servers.append(ExperimentServer(service, port=0))

        def runner() -> None:
            async def main() -> None:
                started_servers: List[ExperimentServer] = []
                started_proxies: List[ChaosProxy] = []
                try:
                    for server in self.servers:
                        await server.start()
                        started_servers.append(server)
                    for index, plan in self._fault_plans.items():
                        proxy = ChaosProxy("127.0.0.1",
                                           self.servers[index].port,
                                           plan=plan)
                        await proxy.start()
                        started_proxies.append(proxy)
                        self.proxies[index] = proxy
                    if self.with_router:
                        self.router = ShardRouter(self.routed_urls, port=0,
                                                  **self.router_options)
                        await self.router.start()
                except BaseException as exc:  # noqa: BLE001 - report to caller
                    self._failure = exc
                    for proxy in started_proxies:
                        await proxy.stop()
                    for server in started_servers:
                        await server.stop(drain=False)
                    self._started.set()
                    return
                self._box["loop"] = asyncio.get_event_loop()
                self._box["stop"] = asyncio.Event()
                self._started.set()
                await self._box["stop"].wait()
                if self.router is not None:
                    await self.router.stop()
                for proxy in self.proxies.values():
                    await proxy.stop()
                for server in self.servers:
                    await server.stop(drain=True)
            asyncio.run(main())

        self._thread = threading.Thread(target=runner, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=self.start_timeout):
            raise RuntimeError("cluster failed to start in time")
        if self._failure is not None:
            raise RuntimeError(
                f"cluster failed to start: {self._failure}") \
                from self._failure
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        if "loop" in self._box:
            self._box["loop"].call_soon_threadsafe(self._box["stop"].set)
        self._thread.join(timeout=self.start_timeout)
        alive = self._thread.is_alive()
        self._thread = None
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
        if alive:
            raise RuntimeError("cluster failed to stop cleanly")

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- addressing ------------------------------------------------------------

    @property
    def shard_ports(self) -> List[int]:
        return [server.port for server in self.servers]

    @property
    def shard_urls(self) -> List[str]:
        return [f"http://127.0.0.1:{port}" for port in self.shard_ports]

    @property
    def routed_urls(self) -> List[str]:
        """What the router actually dials: proxy URLs for faulted shards."""
        return [self.proxies[index].url if index in self.proxies
                else url
                for index, url in enumerate(self.shard_urls)]

    @property
    def router_port(self) -> int:
        if self.router is None:
            raise RuntimeError("this harness was built with router=False")
        return self.router.port

    @property
    def router_url(self) -> str:
        return f"http://127.0.0.1:{self.router_port}"

    # -- loop helpers ----------------------------------------------------------

    def call(self, factory: Callable[[], Awaitable], timeout: float = 60.0):
        """Run ``factory()`` (a coroutine) on the cluster's event loop."""
        if "loop" not in self._box:
            raise RuntimeError("cluster is not running")
        future = asyncio.run_coroutine_threadsafe(factory(),
                                                  self._box["loop"])
        return future.result(timeout)

    def probe_once(self) -> dict:
        """Drive one router health-probe round synchronously (no clocks)."""
        if self.router is None:
            raise RuntimeError("this harness was built with router=False")
        return self.call(self.router.probe_once)

    def set_fault_plan(self, index: int, plan: FaultPlan) -> None:
        """Swap the running fault schedule on shard ``index``'s proxy.

        Only shards that had a plan at :meth:`start` time have a proxy to
        swap on; the new plan starts from its own cursor.
        """
        proxy = self.proxies.get(index)
        if proxy is None:
            raise RuntimeError(
                f"shard {index} has no chaos proxy; pass a plan for it in "
                f"with_faults() before start()")
        proxy.plan = plan

    # -- client helpers --------------------------------------------------------

    @staticmethod
    def _request(port: int, method: str, path: str, payload=None,
                 raw: Optional[bytes] = None, timeout: float = 300.0,
                 ) -> Tuple[int, dict, bytes]:
        body = raw if raw is not None else (
            json.dumps(payload).encode("utf-8")
            if payload is not None else None)
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            headers = {name.lower(): value
                       for name, value in response.getheaders()}
            return response.status, headers, response.read()
        finally:
            connection.close()

    def request(self, method: str, path: str, payload=None,
                raw: Optional[bytes] = None, timeout: float = 300.0,
                ) -> Tuple[int, dict, bytes]:
        """One HTTP exchange with the router (or shard 0 without a router).

        Returns ``(status, headers, body)`` with header names lowercased.
        """
        port = (self.router_port if self.router is not None
                else self.shard_ports[0])
        return self._request(port, method, path, payload=payload, raw=raw,
                             timeout=timeout)

    def shard_request(self, index: int, method: str, path: str, payload=None,
                      raw: Optional[bytes] = None, timeout: float = 300.0,
                      ) -> Tuple[int, dict, bytes]:
        """One HTTP exchange with shard ``index`` directly."""
        return self._request(self.shard_ports[index], method, path,
                             payload=payload, raw=raw, timeout=timeout)
