"""Error mapping of the one connection loop both HTTP front ends share.

``rescq serve`` (:class:`ExperimentServer`) and ``rescq route``
(:class:`ShardRouter`) each keep their own route table but serve every
connection through :func:`repro.service.httpcore.connection_handler`, so
the same request faults must map to the same statuses on both.
"""

import asyncio
import contextlib
import http.client
import json
import socket
import threading
from unittest import mock

import pytest

from repro.cluster import ShardRouter
from repro.service import ExperimentServer, ExperimentService, ServiceExecutor


def closed_port():
    """An ephemeral port with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def experiment_server():
    """A server over a one-worker pool; ``/stats`` reads the service."""
    executor = ServiceExecutor(max_workers=1, poll_interval=0.01)
    server = ExperimentServer(ExperimentService(executor=executor), port=0)
    return server, lambda: mock.patch.object(
        server.service, "snapshot", side_effect=RuntimeError("boom")
    )


def shard_router():
    """A router over one shard that is never contacted here."""
    router = ShardRouter([f"http://127.0.0.1:{closed_port()}"], port=0)
    return router, lambda: mock.patch.object(
        router, "_handle_stats", side_effect=RuntimeError("boom")
    )


@contextlib.contextmanager
def running(front_end):
    """Run ``front_end`` on its own event loop in a background thread."""
    started = threading.Event()
    box = {}

    def runner():
        async def main():
            await front_end.start()
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await front_end.stop()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(timeout=120), "front end failed to start"
    try:
        yield front_end
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=120)
        assert not thread.is_alive(), "front end failed to stop cleanly"


@pytest.fixture(
    scope="module", params=[experiment_server, shard_router], ids=["server", "router"]
)
def front_end(request):
    instance, break_stats = request.param()
    with running(instance):
        yield instance, break_stats


def call(instance, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", instance.port, timeout=60)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())["error"]
    finally:
        conn.close()


def test_unknown_path_is_404(front_end):
    status, error = call(front_end[0], "GET", "/nope")
    assert status == 404
    assert "unknown path '/nope'" in error and "POST /experiments" in error


def test_wrong_method_is_405(front_end):
    assert call(front_end[0], "GET", "/experiments") == (
        405,
        "submit an ExperimentSpec with POST /experiments",
    )
    assert call(front_end[0], "POST", "/stats")[0] == 405


def test_non_json_body_is_400(front_end):
    status, error = call(front_end[0], "POST", "/experiments", body=b"{nope")
    assert status == 400
    assert error.startswith("body is not valid JSON")


def test_route_that_raises_is_500(front_end):
    instance, break_stats = front_end
    with break_stats():
        assert call(instance, "GET", "/stats") == (500, "internal error: boom")
    # The failure ends one connection, not the front end.
    assert call(instance, "GET", "/nope")[0] == 404
