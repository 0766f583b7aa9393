"""Versioned HTTP JSON API over the online vetting service.

Stdlib-only (``http.server.ThreadingHTTPServer``) so the serving layer
adds no dependencies.  All routes live under the ``/v1`` prefix in one
declarative route table (:data:`ROUTES`) — method, path pattern,
handler name — dispatched against an *API object* (:class:`ServiceApi`
for a single service or shard worker,
:class:`~repro.serve.shard.RouterApi` for the shard router front door),
so the wire contract is defined exactly once and every server speaks
it:

* ``POST /v1/submit`` — body ``{"apk": {...}, "lane": "bulk"}`` (or a
  bare APK wire dict).  ``202`` with an acceptance ticket; ``429`` when
  admission control rejects (queue full); ``409`` when a shard-scoped
  service does not own the md5; ``400`` on malformed payloads.  The
  body is decoded once, and after its md5 checks out its text goes to
  the WAL as it arrived.
* ``GET /v1/result/<md5>`` — ``200`` with the terminal outcome,
  ``202`` with ``{"status": "pending"|"in_flight"}`` while queued,
  ``404`` for an unknown md5.
* ``GET /v1/explain/<md5>`` — ``200`` with the behavior-rule evidence
  for a terminal submission (``explanation`` is ``null`` for clean
  ones), ``202`` while queued, ``404`` for an unknown md5.
* ``GET /v1/healthz`` — liveness + active model version + queue depth
  (``503`` when not serving).
* ``GET /v1/metrics`` — Prometheus text exposition of the unified
  :class:`~repro.obs.MetricsRegistry`.
* ``GET /v1/metrics.json`` — the same registry as a JSON snapshot
  (what the shard router scrapes to build its aggregated exposition).
* ``POST /v1/admin/ruleset`` — body: a ruleset JSON document
  (hand-written or mined).  ``200`` with the new ``ruleset_version``
  once the swap is atomically live (the shard router rolls the push
  across every worker); ``400`` when parse/lint/compile validation
  rejects it; ``503`` when a shard cannot be reached.

**Error envelope.**  Every error body is one JSON shape, shared by the
router and every shard worker::

    {"error": {"code": "<one of ERROR_CODES>", "message": "...", "md5": "..."?}}

**Namespace.**  ``/v1`` is the only namespace: the unprefixed PR 3
paths (``/submit``, ``/result/<md5>``, …) had a one-release redirect
grace window, which has passed — they are plain 404s now.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.android.apk import Apk
from repro.serve.codec import apk_from_dict, submission_apk
from repro.serve.queue import QueueFullError, WrongShardError, parse_lane
from repro.serve.service import OnlineVettingService

__all__ = [
    "API_PREFIX",
    "ERROR_CODES",
    "RETRY_AFTER_QUEUE_FULL",
    "RETRY_AFTER_SHARD_UNAVAILABLE",
    "ROUTES",
    "Response",
    "Route",
    "ServiceApi",
    "VettingHTTPServer",
    "error_body",
    "make_server",
    "retry_after_headers",
]

#: Version prefix of the current wire contract.
API_PREFIX = "/v1"

#: Submission payloads above this are rejected before parsing (DoS guard).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: The closed set of machine-readable error codes in the envelope —
#: part of the public wire contract (locked by ``test_public_api.py``).
ERROR_CODES = frozenset(
    {
        "bad_request",        # 400: malformed body, unknown lane, bad codec
        "not_found",          # 404: unknown endpoint or md5
        "wrong_shard",        # 409: md5 owned by a different shard
        "queue_full",         # 429: admission control (retry later)
        "shard_unavailable",  # 503: owning shard down/unreachable
    }
)


#: Backoff guidance (seconds) carried on throttling/outage responses.
#: 429 ``queue_full`` clears within a micro-batch or two; a 503
#: ``shard_unavailable`` usually means a worker restart is in progress,
#: so clients should back off a little longer.
RETRY_AFTER_QUEUE_FULL = "1"
RETRY_AFTER_SHARD_UNAVAILABLE = "2"


def retry_after_headers(status: int) -> tuple[tuple[str, str], ...]:
    """The ``Retry-After`` header for a retryable status (else empty)."""
    if status == 429:
        return (("Retry-After", RETRY_AFTER_QUEUE_FULL),)
    if status == 503:
        return (("Retry-After", RETRY_AFTER_SHARD_UNAVAILABLE),)
    return ()


def error_body(code: str, message: str, md5: str | None = None) -> dict:
    """The one JSON error envelope every server in the tier speaks."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code: {code!r}")
    err: dict = {"code": code, "message": message}
    if md5 is not None:
        err["md5"] = md5
    return {"error": err}


@dataclass(frozen=True)
class Response:
    """One HTTP response an API handler returns to the dispatcher.

    ``payload`` (a dict) is serialized as JSON; ``text`` bodies carry
    ``content_type`` verbatim (the Prometheus exposition).  ``headers``
    are extra response headers (e.g. ``Retry-After`` backoff guidance).
    """

    status: int
    payload: dict | None = None
    text: str | None = None
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Route:
    """One row of the route table: method + path pattern + handler name."""

    method: str
    pattern: re.Pattern = field(repr=False)
    handler: str

    @property
    def path(self) -> str:
        return self.pattern.pattern


def _route(method: str, pattern: str, handler: str) -> Route:
    return Route(method, re.compile(pattern), handler)

_MD5 = r"(?P<md5>[0-9a-fA-F]{4,64})"

#: The single route table: every ``/v1`` endpoint, declaratively.
#: Handlers are method names resolved on the server's API object;
#: named groups in the pattern become handler keyword arguments, and
#: POST handlers additionally receive the raw request ``body``.
ROUTES: tuple[Route, ...] = (
    _route("GET", r"^/v1/healthz$", "healthz"),
    _route("GET", r"^/v1/metrics$", "metrics"),
    _route("GET", r"^/v1/metrics\.json$", "metrics_json"),
    _route("GET", rf"^/v1/result/{_MD5}$", "result"),
    _route("GET", rf"^/v1/explain/{_MD5}$", "explain"),
    _route("POST", r"^/v1/submit$", "submit"),
    _route("POST", r"^/v1/admin/ruleset$", "ruleset_push"),
)


class ServiceApi:
    """Route handlers over one :class:`OnlineVettingService`.

    Used directly by a single-process deployment and by every shard
    worker (whose service carries a shard identity, surfacing 409s for
    misrouted md5s).
    """

    def __init__(self, service: OnlineVettingService):
        self.service = service

    # -- reads ---------------------------------------------------------

    def healthz(self) -> Response:
        health = self.service.healthz()
        status = 200 if health["status"] == "ok" else 503
        return Response(status, payload=health)

    def metrics(self) -> Response:
        return Response(
            200,
            text=self.service.metrics_text(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def metrics_json(self) -> Response:
        return Response(
            200, text=self.service.metrics.to_json(), content_type="application/json"
        )

    def result(self, md5: str) -> Response:
        return _state_response(self.service.result(md5), md5)

    def explain(self, md5: str) -> Response:
        return _state_response(self.service.explain(md5), md5)

    # -- writes --------------------------------------------------------

    def submit(self, body: bytes) -> Response:
        try:
            apk, lane, text = parse_submission(body)
        except ValueError as exc:
            return Response(
                400, payload=error_body("bad_request", str(exc))
            )
        try:
            ticket = self.service.submit(apk, lane, text)
        except QueueFullError as exc:
            return Response(
                429,
                payload=error_body("queue_full", str(exc), apk.md5),
                headers=retry_after_headers(429),
            )
        except WrongShardError as exc:
            return Response(
                409, payload=error_body("wrong_shard", str(exc), exc.md5)
            )
        return Response(202, payload=ticket)

    def ruleset_push(self, body: bytes) -> Response:
        """``POST /v1/admin/ruleset``: validate + hot-swap a ruleset.

        Body is a ruleset JSON document (hand-written or a mined
        artifact).  ``200`` with ``{ruleset_version, n_rules, sha256}``
        once the swap is live; ``400`` when parsing, linting, or
        compilation against the active model rejects it.
        """
        try:
            receipt = self.service.push_ruleset(body)
        except ValueError as exc:
            return Response(
                400, payload=error_body("bad_request", str(exc))
            )
        return Response(200, payload=receipt)


def decode_envelope(body: bytes) -> tuple[str, dict, int]:
    """JSON-decode one submit body into ``(text, apk wire dict, lane)``.

    Checks the envelope only: the body is UTF-8 JSON, its ``apk`` (or
    the bare body) is an object, and its lane is a known lane name or
    number.  ``text`` is the body as received.  Raises ``ValueError``
    on any malformed envelope, one nested too deeply to parse included.
    """
    try:
        text = body.decode("utf-8")
        payload = json.loads(text)
        apk = submission_apk(payload)
        lane = parse_lane(payload.get("lane", "bulk"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad submission: {exc}") from exc
    return text, apk, lane


def parse_submission(body: bytes) -> tuple[Apk, int, str]:
    """Decode one ``POST /v1/submit`` body into ``(apk, lane, text)``.

    The APK is built by the codec, which checks its recorded md5;
    ``text`` is the body as received, for the WAL.  Raises
    ``ValueError`` on any malformed payload, an infinite integer field
    (``1e400``) included.
    """
    text, wire, lane = decode_envelope(body)
    try:
        apk = apk_from_dict(wire)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"bad submission: {exc}") from exc
    return apk, lane, text


def _state_response(payload: dict, md5: str) -> Response:
    """Map a submission-state payload onto 200/202/404."""
    state = payload.get("status")
    if state in ("done", "failed"):
        return Response(200, payload=payload)
    if state in ("pending", "in_flight"):
        return Response(202, payload=payload)
    return Response(
        404,
        payload={
            **payload,
            **error_body("not_found", f"unknown submission: {md5}", md5),
        },
    )


class _Handler(BaseHTTPRequestHandler):
    """Table-driven dispatch; the API object hangs off the server."""

    server: "VettingHTTPServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: a response must not sit
    # in Nagle's buffer waiting for the client's delayed ACK.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: D102 - silence stderr
        pass

    def _send(self, response: Response) -> None:
        """Write the whole response (status, headers, body) at once.

        One ``wfile.write`` per response: a head and body sent as two
        segments on a keep-alive connection can stall for the peer's
        delayed ACK (~40 ms) before the second segment goes out.
        """
        if response.text is not None:
            body = response.text.encode("utf-8")
            content_type = response.content_type
        else:
            body = json.dumps(response.payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(response.status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in response.headers:
            self.send_header(name, value)
        # end_headers() would flush the head on its own.  Instead take
        # the buffered head (none for an HTTP/0.9 request), end it, and
        # write it together with the body.
        head = getattr(self, "_headers_buffer", [])
        self._headers_buffer = []
        if head:
            head.append(b"\r\n")
        self.wfile.write(b"".join((*head, body)))

    def _read_body(self) -> bytes | None:
        """The request body, or None (response already sent) on abuse."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send(
                Response(
                    400,
                    payload=error_body(
                        "bad_request", "missing or oversized request body"
                    ),
                )
            )
            return None
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        for route in self.server.routes:
            if route.method != method:
                continue
            match = route.pattern.match(path)
            if match is None:
                continue
            kwargs = match.groupdict()
            if method == "POST":
                body = self._read_body()
                if body is None:
                    return
                kwargs["body"] = body
            self._send(getattr(self.server.api, route.handler)(**kwargs))
            return
        # Unprefixed paths had a one-release redirect grace window
        # after the /v1 namespace landed; the window has passed and
        # they are plain 404s now.
        self._send(
            Response(
                404,
                payload=error_body(
                    "not_found", f"no such endpoint: {method} {path}"
                ),
            )
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class VettingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying its API object; thread per request.

    ``api`` is any object implementing the handler names in ``routes``
    (default: the :data:`ROUTES` table) — a :class:`ServiceApi` here, a
    :class:`~repro.serve.shard.RouterApi` for the shard front door.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        api,
        routes: tuple[Route, ...] = ROUTES,
    ):
        super().__init__(address, _Handler)
        self.api = api
        self.routes = routes
        # Back-compat: the wrapped service, when the API has one.
        self.service = getattr(api, "service", None)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> "VettingHTTPServer":
        """Serve forever on a daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="serve-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.server_close()


def make_server(
    service: OnlineVettingService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> VettingHTTPServer:
    """Bind the API (port 0 picks a free port; see ``server.port``)."""
    return VettingHTTPServer((host, port), ServiceApi(service))
