"""Sharded multi-process serving tier: md5-routed shard workers.

One :class:`~repro.serve.service.OnlineVettingService` is a single
process — one GIL, one WAL, one dispatcher.  Market scale means
multiplying processes without giving up any per-shard guarantee, and
this module is that tier:

* :func:`~repro.serve.queue.shard_of` routes every submission by its
  content md5, so one APK's whole history — WAL records, coalescing,
  observation cache, terminal outcome — lives on exactly one shard;
* each shard is a **separate worker process** (``multiprocessing``
  spawn) running its own service over its own WAL segment
  (``<spool>/shard-NN/queue.wal``) and its own
  :class:`~repro.serve.registry.ModelRegistry` lease on the shared
  artifact directory — no shared mutable state anywhere;
* :class:`ShardRouter` is the scatter/gather front door: ``/v1/submit``
  proxied to the owning shard, ``/v1/result`` and ``/v1/explain``
  resolved shard-locally, ``/v1/healthz`` and ``/v1/metrics``
  aggregated across the fleet with a ``shard="<k>"`` label on every
  absorbed series.

The PR 3 exactly-once guarantee survives per shard: kill a worker
mid-batch (SIGKILL, no goodbye), :meth:`ShardRouter.restart_shard`
replays that shard's WAL segment, and every accepted submission still
reaches exactly one terminal outcome
(``tests/test_serve_shard.py::test_kill_one_shard_midbatch_replay_is_exactly_once``).
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.android.apk import Apk
from repro.obs import MetricsRegistry
from repro.serve.codec import apk_to_dict, claimed_md5
from repro.serve.http import (
    Response,
    VettingHTTPServer,
    decode_envelope,
    error_body,
    make_server,
    parse_submission,
    retry_after_headers,
)
from repro.serve.queue import QueueFullError, shard_of
from repro.serve.registry import ModelRegistry

__all__ = [
    "RouterApi",
    "ShardHandle",
    "ShardRouter",
    "ShardUnavailableError",
    "make_router_server",
    "shard_spool",
]


class ShardUnavailableError(RuntimeError):
    """The shard owning an md5 is down or unreachable (HTTP 503)."""

    def __init__(self, shard_id: int, detail: str, md5: str | None = None):
        super().__init__(f"shard {shard_id} unavailable: {detail}")
        self.shard_id = shard_id
        self.md5 = md5


def shard_spool(spool_dir: str | Path, shard_id: int) -> Path:
    """The WAL segment directory of one shard (``<spool>/shard-NN``)."""
    return Path(spool_dir) / f"shard-{shard_id:02d}"


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn,
    shard_id: int,
    n_shards: int,
    model_dir: str,
    spool: str,
    host: str,
    config: dict,
) -> None:
    """Entry point of one shard worker process.

    Builds a fully private stack — metrics registry, model-registry
    lease, WAL-backed queue, dispatcher, HTTP server on an ephemeral
    port — reports readiness over the pipe, then serves until told to
    stop (or until the parent disappears).  Module-level so the spawn
    start method can import it.
    """
    import signal

    from repro.serve.service import OnlineVettingService

    # A terminal Ctrl-C delivers SIGINT to the whole foreground process
    # group, workers included.  Shutdown is coordinated by the router
    # (a "stop" message, or pipe EOF if the router died) — a raw
    # KeyboardInterrupt here would kill the worker before it can drain
    # and report abandoned submissions.  SIGTERM/SIGKILL still work.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    try:
        metrics = MetricsRegistry()
        models = ModelRegistry(model_dir, metrics=metrics)
        service = OnlineVettingService(
            models,
            spool_dir=spool,
            shard=(shard_id, n_shards),
            metrics=metrics,
            **config,
        )
        service.start()
        server = make_server(service, host, 0)
        server.start_background()
        conn.send(
            (
                "ready",
                {
                    "shard": shard_id,
                    "port": server.port,
                    "replayed": int(
                        metrics.value("serve_wal_replayed_total")
                    ),
                    "model_version": models.active_version,
                },
            )
        )
    except Exception as exc:  # pragma: no cover - startup failure path
        try:
            conn.send(("error", {"shard": shard_id, "detail": repr(exc)}))
        finally:
            conn.close()
        raise
    try:
        while True:
            # Block on the pipe; EOF means the router died — shut down
            # rather than serve orphaned.
            try:
                if not conn.poll(0.25):
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message == "stop":
                break
    finally:
        server.stop()
        abandoned = service.close()
        try:
            conn.send(("stopped", {"abandoned": sorted(abandoned)}))
            conn.close()
        except (BrokenPipeError, OSError):  # router already gone
            pass


# ----------------------------------------------------------------------
# Router side
# ----------------------------------------------------------------------


class _ShardClient:
    """Pooled keep-alive HTTP client to one shard worker.

    Connections are HTTP/1.1 keep-alive and reused across requests
    (one per concurrently proxying router thread); a stale pooled
    connection is retried once on a fresh one before the shard is
    declared unavailable.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._pool: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connection(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._pool:
                return self._pool.pop()
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            self._pool.append(conn)

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        last_error: Exception | None = None
        for attempt in range(2):
            conn = (
                self._connection()
                if attempt == 0
                else http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            )
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
            except (http.client.HTTPException, OSError) as exc:
                conn.close()
                last_error = exc
                continue
            self._release(conn)
            return response.status, data
        raise ConnectionError(f"shard at :{self.port}: {last_error!r}")

    def close(self) -> None:
        with self._lock:
            for conn in self._pool:
                conn.close()
            self._pool.clear()


@dataclass
class ShardHandle:
    """One live (or dead) shard worker as the router sees it."""

    shard_id: int
    process: multiprocessing.process.BaseProcess
    conn: object
    port: int
    replayed: int
    model_version: int | None
    client: _ShardClient = field(repr=False)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ShardRouter:
    """Spawns N shard workers and scatter/gathers the ``/v1`` API.

    Args:
        model_dir: the shared model-artifact directory; every worker
            opens its own :class:`ModelRegistry` over it (per-shard
            lease, read-only at serve time).  Must already hold an
            active version.
        spool_dir: parent of the per-shard WAL segments
            (``shard-00/ … shard-NN/``); each worker replays only its
            own segment on start.
        n_shards: worker-process count; also the modulus of
            :func:`shard_of`, so it must stay constant across restarts
            of the same spool (changing it re-homes md5s).
        host: interface the workers and router bind.
        workers / batch_size / max_depth / cache / poll_seconds /
            rules / pace_seconds_per_minute: per-shard service
            configuration, forwarded verbatim to each worker's
            :class:`OnlineVettingService`.
        drift_monitors: ``True`` gives every worker its own default
            :class:`~repro.drift.detectors.DriftMonitorBank` (monitor
            objects cannot cross the spawn boundary, so only the flag
            is forwarded); per-shard drift status is aggregated by
            :meth:`healthz` and the drift gauges arrive with the
            scraped per-shard metrics.
        metrics: the *router's* registry (request counters, shard-up
            gauges).  Worker registries are private to their processes
            and scraped over HTTP.
        mp_start: multiprocessing start method.  ``spawn`` (default)
            gives workers a clean interpreter with no inherited locks;
            ``fork`` starts faster when the parent is single-threaded.
        start_timeout: seconds to wait for every worker to report ready.
        request_timeout: per-proxy-request timeout.
    """

    def __init__(
        self,
        model_dir: str | Path,
        spool_dir: str | Path,
        n_shards: int,
        host: str = "127.0.0.1",
        workers: int = 2,
        batch_size: int = 8,
        max_depth: int = 10_000,
        cache: bool | str = True,
        poll_seconds: float = 0.05,
        rules: bool = True,
        pace_seconds_per_minute: float = 0.0,
        drift_monitors: bool = False,
        metrics: MetricsRegistry | None = None,
        mp_start: str = "spawn",
        start_timeout: float = 120.0,
        request_timeout: float = 30.0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.model_dir = str(model_dir)
        self.spool_dir = Path(spool_dir)
        self.n_shards = n_shards
        self.host = host
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.mp_start = mp_start
        self.start_timeout = start_timeout
        self.request_timeout = request_timeout
        self._config = {
            "workers": workers,
            "batch_size": batch_size,
            "max_depth": max_depth,
            "cache": cache,
            "poll_seconds": poll_seconds,
            "rules": rules,
            "pace_seconds_per_minute": pace_seconds_per_minute,
            "drift_monitors": bool(drift_monitors),
        }
        self.shards: dict[int, ShardHandle] = {}
        self._ctx = multiprocessing.get_context(mp_start)
        self.started_at: float | None = None

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, shard_id: int):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn,
                shard_id,
                self.n_shards,
                self.model_dir,
                str(shard_spool(self.spool_dir, shard_id)),
                self.host,
                self._config,
            ),
            name=f"serve-shard-{shard_id:02d}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _await_ready(self, shard_id, process, conn) -> ShardHandle:
        deadline = time.monotonic() + self.start_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not (
                process.is_alive() or conn.poll(0)
            ):
                process.terminate()
                raise ShardUnavailableError(
                    shard_id, "worker did not report ready"
                )
            try:
                if not conn.poll(min(remaining, 0.25)):
                    continue
                kind, info = conn.recv()
            except (EOFError, OSError) as exc:
                process.terminate()
                raise ShardUnavailableError(
                    shard_id, f"worker died during startup ({exc!r})"
                ) from exc
            if kind == "error":
                raise ShardUnavailableError(shard_id, info["detail"])
            assert kind == "ready", kind
            handle = ShardHandle(
                shard_id=shard_id,
                process=process,
                conn=conn,
                port=info["port"],
                replayed=info["replayed"],
                model_version=info.get("model_version"),
                client=_ShardClient(
                    self.host, info["port"], self.request_timeout
                ),
            )
            self.metrics.set_gauge(
                "serve_shard_up", 1, shard=str(shard_id)
            )
            return handle

    def start(self) -> "ShardRouter":
        """Spawn every worker and wait until the whole fleet is ready."""
        if self.shards:
            return self
        spawned = [
            (shard_id, *self._spawn(shard_id))
            for shard_id in range(self.n_shards)
        ]
        for shard_id, process, conn in spawned:
            self.shards[shard_id] = self._await_ready(
                shard_id, process, conn
            )
        self.metrics.set_gauge("serve_shards", self.n_shards)
        self.started_at = time.time()
        return self

    def stop(self, timeout: float = 15.0) -> dict[int, frozenset[str]]:
        """Gracefully stop every worker.

        Returns ``{shard_id: abandoned md5s}`` — the submissions each
        shard left non-terminal (they stay in that shard's WAL and
        replay on the next start).  Unresponsive workers are terminated
        and report an unknown (empty) abandoned set.
        """
        abandoned: dict[int, frozenset[str]] = {}
        for shard_id, handle in self.shards.items():
            abandoned[shard_id] = frozenset()
            if not handle.alive:
                continue
            try:
                handle.conn.send("stop")
            except (BrokenPipeError, OSError):
                handle.process.terminate()
                continue
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                try:
                    if not handle.conn.poll(0.25):
                        continue
                    kind, info = handle.conn.recv()
                except (EOFError, OSError):
                    break
                if kind == "stopped":
                    abandoned[shard_id] = frozenset(info["abandoned"])
                    break
            else:
                handle.process.terminate()
        for shard_id, handle in self.shards.items():
            handle.process.join(timeout)
            handle.client.close()
            self.metrics.set_gauge(
                "serve_shard_up", 0, shard=str(shard_id)
            )
            if abandoned[shard_id]:
                self.metrics.inc(
                    "serve_router_abandoned_total",
                    len(abandoned[shard_id]),
                    shard=str(shard_id),
                )
        self.shards.clear()
        return abandoned

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one worker mid-flight (failure injection; no goodbye)."""
        handle = self._handle(shard_id)
        handle.process.kill()
        handle.process.join(10.0)
        handle.client.close()
        self.metrics.set_gauge("serve_shard_up", 0, shard=str(shard_id))

    def restart_shard(self, shard_id: int) -> int:
        """Respawn one worker over its existing WAL segment.

        The fresh process replays the segment — completed outcomes are
        recovered, uncompleted acceptances re-enqueued.  Returns the
        number of replayed (re-enqueued) submissions.
        """
        handle = self.shards.get(shard_id)
        if handle is not None and handle.alive:
            raise RuntimeError(f"shard {shard_id} is still running")
        process, conn = self._spawn(shard_id)
        self.shards[shard_id] = self._await_ready(shard_id, process, conn)
        self.metrics.inc(
            "serve_router_shard_restarts_total", shard=str(shard_id)
        )
        return self.shards[shard_id].replayed

    def roll_model(self, version: int) -> None:
        """Activate ``version`` in the shared model directory, then kill
        and restart each shard in turn: a worker reads the manifest
        when it starts, and its WAL replay covers in-flight work."""
        ModelRegistry(self.model_dir).activate(version)
        for shard_id in range(self.n_shards):
            self.kill_shard(shard_id)
            self.restart_shard(shard_id)

    def _handle(self, shard_id: int) -> ShardHandle:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ShardUnavailableError(shard_id, "not started") from None

    # -- proxying ------------------------------------------------------

    def owner_of(self, md5: str) -> int:
        return shard_of(md5, self.n_shards)

    def proxy(
        self,
        shard_id: int,
        method: str,
        path: str,
        body: bytes | None = None,
        md5: str | None = None,
    ) -> tuple[int, bytes]:
        """One request to one shard; raises ShardUnavailableError."""
        handle = self._handle(shard_id)
        self.metrics.inc(
            "serve_router_requests_total", shard=str(shard_id)
        )
        if not handle.alive:
            self.metrics.inc(
                "serve_router_proxy_errors_total", shard=str(shard_id)
            )
            raise ShardUnavailableError(shard_id, "worker dead", md5)
        try:
            return handle.client.request(method, path, body)
        except ConnectionError as exc:
            self.metrics.inc(
                "serve_router_proxy_errors_total", shard=str(shard_id)
            )
            raise ShardUnavailableError(shard_id, str(exc), md5) from exc

    # -- python-level API (benchmarks, smoke, CLI) ---------------------

    def submit(self, apk: Apk, lane: str = "bulk") -> dict:
        """Route one submission to its owning shard.

        Returns the acceptance ticket.  Raises
        :class:`~repro.serve.queue.QueueFullError` on 429 and
        :class:`ShardUnavailableError` when the owning shard is down.
        """
        shard_id = self.owner_of(apk.md5)
        body = json.dumps(
            {"apk": apk_to_dict(apk), "lane": lane}
        ).encode("utf-8")
        status, data = self.proxy(
            shard_id, "POST", "/v1/submit", body, md5=apk.md5
        )
        payload = json.loads(data)
        if status == 429:
            raise QueueFullError(payload["error"]["message"])
        if status != 202:
            raise RuntimeError(
                f"shard {shard_id} rejected submit: {status} {payload}"
            )
        return payload

    def result(self, md5: str) -> dict:
        """The owning shard's view of one submission (any state)."""
        _, data = self.proxy(
            self.owner_of(md5), "GET", f"/v1/result/{md5}", md5=md5
        )
        return json.loads(data)

    def explain(self, md5: str) -> dict:
        _, data = self.proxy(
            self.owner_of(md5), "GET", f"/v1/explain/{md5}", md5=md5
        )
        return json.loads(data)

    def push_ruleset(self, data: bytes | str) -> dict:
        """Roll a new ruleset across every shard without dropping requests.

        Each worker validates, publishes, and atomically activates the
        pushed document behind its own write lock — in-flight
        micro-batches finish under the old version, later ones explain
        under the new one, and no submission ever sees a mix.  The
        roll is sequential; on a validation failure (ValueError) or an
        unreachable shard (:class:`ShardUnavailableError`) the roll
        stops, so re-push after fixing the cause — re-activation is
        idempotent in content (versions are per-shard counters).

        Returns ``{"ruleset_version": <max across shards>, "shards":
        {shard_id: receipt}}``.
        """
        body = data.encode("utf-8") if isinstance(data, str) else data
        receipts: dict[int, dict] = {}
        for shard_id in range(self.n_shards):
            status, raw = self.proxy(
                shard_id, "POST", "/v1/admin/ruleset", body
            )
            payload = json.loads(raw)
            if status != 200:
                detail = payload.get("error", {}).get(
                    "message", raw.decode("utf-8", "replace")
                )
                raise ValueError(
                    f"shard {shard_id} rejected ruleset: {detail}"
                )
            receipts[shard_id] = payload
        self.metrics.inc("serve_router_ruleset_pushes_total")
        return {
            "ruleset_version": max(
                r["ruleset_version"] for r in receipts.values()
            ),
            "n_rules": next(iter(receipts.values()))["n_rules"],
            "shards": {str(k): v for k, v in receipts.items()},
        }

    # -- scatter/gather ------------------------------------------------

    def healthz(self) -> dict:
        """Aggregated liveness with a per-shard breakdown.

        ``status`` is ``ok`` only when every shard is up and ok;
        ``degraded`` when any is down/unreachable (HTTP 503 at the
        front door).
        """
        shards = []
        depth = 0
        completed = 0
        all_ok = True
        agree_scored = 0
        agree_hits = 0
        drift_alarmed = False
        for shard_id in range(self.n_shards):
            handle = self.shards.get(shard_id)
            try:
                if handle is None or not handle.alive:
                    raise ShardUnavailableError(shard_id, "worker dead")
                status, data = self.proxy(
                    shard_id, "GET", "/v1/healthz"
                )
                health = json.loads(data)
                health["port"] = handle.port
                shards.append(health)
                depth += health.get("queue_depth", 0)
                completed += health.get("completed", 0)
                agreement = health.get("shadow_agreement") or {}
                agree_scored += agreement.get("n_scored", 0)
                agree_hits += agreement.get("n_agree", 0)
                drift = health.get("drift")
                if drift is not None and drift.get("alarmed"):
                    drift_alarmed = True
                all_ok &= health.get("status") == "ok"
            except ShardUnavailableError:
                shards.append(
                    {"shard": shard_id, "status": "unreachable"}
                )
                all_ok = False
        return {
            "status": "ok" if all_ok else "degraded",
            "n_shards": self.n_shards,
            "queue_depth": depth,
            "completed": completed,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "shadow_agreement": {
                "n_scored": agree_scored,
                "n_agree": agree_hits,
                "rate": (
                    agree_hits / agree_scored if agree_scored else 0.0
                ),
            },
            "drift_alarmed": drift_alarmed,
            "shards": shards,
        }

    def metrics_registry(self) -> MetricsRegistry:
        """One registry over the whole tier, every series shard-labelled.

        Scrapes each live worker's ``/v1/metrics.json`` snapshot and
        absorbs it with ``shard="<k>"``, then absorbs the router's own
        counters with ``shard="router"`` — cross-label sums are tier
        totals (the conservation law survives sharding).
        """
        aggregate = MetricsRegistry()
        for shard_id in range(self.n_shards):
            try:
                status, data = self.proxy(
                    shard_id, "GET", "/v1/metrics.json"
                )
            except ShardUnavailableError:
                continue
            if status == 200:
                aggregate.absorb(json.loads(data), shard=str(shard_id))
        aggregate.absorb(self.metrics.as_dict(), shard="router")
        return aggregate

    def metrics_text(self) -> str:
        return self.metrics_registry().to_prometheus()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class RouterApi:
    """``/v1`` route handlers for the router front door.

    Same route table and error envelope as :class:`ServiceApi` —
    ``/v1/submit`` routed on its claimed md5 and its bytes proxied to
    the owning shard (the shard's own status/body pass through
    verbatim), ``/v1/result`` and ``/v1/explain`` resolved
    shard-locally, ``/v1/healthz`` and ``/v1/metrics`` scatter/gathered.
    """

    def __init__(self, router: ShardRouter):
        self.router = router

    def healthz(self) -> Response:
        health = self.router.healthz()
        return Response(
            200 if health["status"] == "ok" else 503, payload=health
        )

    def metrics(self) -> Response:
        return Response(
            200,
            text=self.router.metrics_text(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def metrics_json(self) -> Response:
        return Response(
            200,
            text=self.router.metrics_registry().to_json(),
            content_type="application/json",
        )

    def _passthrough(self, md5: str, path: str) -> Response:
        try:
            status, data = self.router.proxy(
                self.router.owner_of(md5), "GET", path, md5=md5
            )
        except ShardUnavailableError as exc:
            return Response(
                503,
                payload=error_body("shard_unavailable", str(exc), md5),
                headers=retry_after_headers(503),
            )
        # Shard responses pass through as raw text, which drops the
        # shard's own headers — re-derive backoff guidance from the
        # status so a proxied 429/503 still tells clients when to retry.
        return Response(
            status, text=data.decode("utf-8"),
            content_type="application/json",
            headers=retry_after_headers(status),
        )

    def result(self, md5: str) -> Response:
        return self._passthrough(md5, f"/v1/result/{md5}")

    def explain(self, md5: str) -> Response:
        return self._passthrough(md5, f"/v1/explain/{md5}")

    def submit(self, body: bytes) -> Response:
        """Route on the body's claimed md5 and forward its bytes as-is.

        Only the envelope is decoded here; the APK is built (and the
        claim checked) by the owning shard, which answers 400 for a
        forged md5.  A body that claims no md5 is decoded in full to
        learn it.
        """
        try:
            _text, wire, _lane = decode_envelope(body)
            md5 = claimed_md5(wire) or parse_submission(body)[0].md5
        except ValueError as exc:
            return Response(
                400, payload=error_body("bad_request", str(exc))
            )
        shard_id = self.router.owner_of(md5)
        try:
            status, data = self.router.proxy(
                shard_id, "POST", "/v1/submit", body, md5=md5
            )
        except ShardUnavailableError as exc:
            return Response(
                503,
                payload=error_body("shard_unavailable", str(exc), md5),
                headers=retry_after_headers(503),
            )
        return Response(
            status, text=data.decode("utf-8"),
            content_type="application/json",
            headers=retry_after_headers(status),
        )

    def ruleset_push(self, body: bytes) -> Response:
        """``POST /v1/admin/ruleset`` at the front door: roll to all shards."""
        try:
            receipt = self.router.push_ruleset(body)
        except ValueError as exc:
            return Response(
                400, payload=error_body("bad_request", str(exc))
            )
        except ShardUnavailableError as exc:
            return Response(
                503,
                payload=error_body("shard_unavailable", str(exc)),
                headers=retry_after_headers(503),
            )
        return Response(200, payload=receipt)


def make_router_server(
    router: ShardRouter,
    host: str = "127.0.0.1",
    port: int = 0,
) -> VettingHTTPServer:
    """Bind the router front door (same server class, RouterApi routes)."""
    return VettingHTTPServer((host, port), RouterApi(router))
