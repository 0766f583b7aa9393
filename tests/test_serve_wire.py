"""Wire-level regressions: one write per response, no delayed-ACK stall.

A response written as two segments (head, then body) on a keep-alive
connection without ``TCP_NODELAY`` waits for the client's delayed ACK
(~40 ms on Linux) before the body leaves Nagle's buffer.  The server
therefore writes each response in one ``wfile.write`` on a no-delay
socket; these tests pin both halves and the latency they buy, for a
single service and through the shard router's front door.
"""

import http.client
import json
import statistics
import time

import pytest

import repro.serve.http as serve_http
from repro.serve.codec import apk_to_dict
from repro.serve.http import make_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService
from repro.serve.shard import ShardRouter, make_router_server

#: Back-to-back requests timed per connection.
N_REQUESTS = 30

#: Median bound: a stalled response reads ~40 ms, a stall-free one
#: well under a millisecond.
STALL_FREE_MEDIAN_MS = 20.0


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(fitted_checker, activate=True)
    return registry


@pytest.fixture()
def served(models):
    service = OnlineVettingService(models, workers=1, batch_size=4).start()
    server = make_server(service).start_background()
    yield service, server.port
    server.stop()
    service.close()


def keepalive_median_ms(port: int, path: str, n: int = N_REQUESTS) -> float:
    """Median round trip of ``n`` back-to-back GETs on one connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        conn.request("GET", path)  # connect outside the timed loop
        conn.getresponse().read()
        times = []
        for _ in range(n):
            started = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            times.append(time.perf_counter() - started)
            assert response.status == 200
            assert not response.will_close
    finally:
        conn.close()
    return 1e3 * statistics.median(times)


@pytest.fixture()
def write_spy(monkeypatch):
    """Every ``wfile.write`` a handler makes, in order."""
    writes: list[bytes] = []
    setup = serve_http._Handler.setup

    class Spy:
        def __init__(self, raw):
            self._raw = raw

        def write(self, data):
            writes.append(bytes(data))
            return self._raw.write(data)

        def __getattr__(self, name):
            return getattr(self._raw, name)

    def spying_setup(handler):
        setup(handler)
        handler.wfile = Spy(handler.wfile)

    monkeypatch.setattr(serve_http._Handler, "setup", spying_setup)
    return writes


def test_each_response_is_one_write(write_spy, served, generator):
    _, port = served
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    requests = [
        ("GET", "/v1/healthz", None),
        ("POST", "/v1/submit",
         json.dumps({"apk": apk_to_dict(generator.sample_app())})),
        ("GET", "/v1/metrics", None),
        ("GET", "/v1/result/" + "f" * 32, None),
        ("GET", "/no/such/path", None),
        ("POST", "/v1/submit", "{not json"),
    ]
    bodies = []
    try:
        for method, path, body in requests:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            bodies.append(conn.getresponse().read())
    finally:
        conn.close()
    assert len(write_spy) == len(requests)
    for write, body in zip(write_spy, bodies):
        assert write.startswith(b"HTTP/1.1 ")
        assert write.endswith(b"\r\n\r\n" + body)


def test_socket_has_nagle_disabled():
    assert serve_http._Handler.disable_nagle_algorithm is True


def test_keepalive_requests_do_not_stall(served):
    _, port = served
    median = keepalive_median_ms(port, "/v1/healthz")
    assert median < STALL_FREE_MEDIAN_MS, (
        f"back-to-back keep-alive median {median:.1f} ms: responses are "
        "waiting out a delayed ACK"
    )


def test_router_front_door_keepalive_does_not_stall(models, tmp_path):
    """Both hops: client -> router front door -> shard worker."""
    with ShardRouter(
        models.root, tmp_path / "spool", n_shards=1, workers=1,
        start_timeout=180.0,
    ) as router:
        server = make_router_server(router).start_background()
        try:
            median = keepalive_median_ms(server.port, "/v1/healthz")
        finally:
            server.stop()
    assert median < STALL_FREE_MEDIAN_MS, (
        f"router keep-alive median {median:.1f} ms"
    )
