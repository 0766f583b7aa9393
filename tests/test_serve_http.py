"""Tests for the versioned (/v1) HTTP JSON API over the vetting service."""

import base64
import http.client
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve.codec import apk_to_dict
from repro.serve.http import API_PREFIX, ERROR_CODES, ROUTES, make_server
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService


@pytest.fixture()
def served(tmp_path, fitted_checker):
    """A running service + HTTP server on an ephemeral port."""
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    service = OnlineVettingService(models, workers=2, batch_size=4)
    service.start()
    server = make_server(service).start_background()
    yield service, f"http://127.0.0.1:{server.port}"
    server.stop()
    service.close()


@pytest.fixture()
def spooled(tmp_path, fitted_checker):
    """A service with a WAL behind an HTTP server, never started.

    Yields ``(service, base url, WAL path)``.
    """
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    spool = tmp_path / "spool"
    service = OnlineVettingService(models, spool_dir=spool)
    server = make_server(service).start_background()
    yield service, f"http://127.0.0.1:{server.port}", spool / "queue.wal"
    server.stop()
    service.close()


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _post(url, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _raw(base, method, path, body=None):
    """One request without redirect-following (alias assertions)."""
    host, port = base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response, json.loads(data) if data else None


def test_healthz(served):
    _, base = served
    status, health = _get(f"{base}/v1/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["active_model_version"] == 1


def test_submit_then_poll_result(served, generator):
    service, base = served
    apk = generator.sample_app()
    status, ticket = _post(
        f"{base}/v1/submit", {"apk": apk_to_dict(apk), "lane": "resubmit"}
    )
    assert status == 202
    assert ticket["md5"] == apk.md5
    assert ticket["lane"] == "resubmit"

    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status, outcome = _get(f"{base}/v1/result/{apk.md5}")
        if status == 200:
            break
        assert status == 202
        assert outcome["status"] in ("pending", "in_flight")
        time.sleep(0.02)
    assert status == 200
    assert outcome["status"] == "done"
    assert outcome["model_version"] == 1


def test_bare_apk_payload_defaults_to_bulk(served, generator):
    _, base = served
    apk = generator.sample_app()
    status, ticket = _post(f"{base}/v1/submit", apk_to_dict(apk))
    assert status == 202 and ticket["lane"] == "bulk"


def test_result_unknown_md5_is_404(served):
    _, base = served
    status, outcome = _get(f"{base}/v1/result/deadbeef")
    assert status == 404
    assert outcome["status"] == "unknown"
    assert outcome["error"]["code"] == "not_found"
    assert outcome["error"]["md5"] == "deadbeef"


def test_error_envelope_shape_on_404(served):
    """Every error body is the one envelope: ``{"error": {code, message}}``."""
    _, base = served
    for endpoint in ("result", "explain"):
        status, body = _get(f"{base}/v1/{endpoint}/deadbeef")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "deadbeef" in body["error"]["message"]
    status, body = _get(f"{base}/v1/nope")
    assert status == 404
    assert body["error"]["code"] == "not_found"
    assert "no such endpoint" in body["error"]["message"]


def _drain_result(base, md5, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        status, outcome = _get(f"{base}/v1/result/{md5}")
        if status == 200:
            return outcome
        time.sleep(0.02)
    raise AssertionError(f"submission {md5} never reached a terminal state")


def test_explain_serves_rule_evidence_for_flagged(served, generator):
    service, base = served
    apk = generator.sample_app(malicious=True)
    status, _ = _post(f"{base}/v1/submit", apk_to_dict(apk))
    assert status == 202
    outcome = _drain_result(base, apk.md5)
    status, explained = _get(f"{base}/v1/explain/{apk.md5}")
    assert status == 200
    assert explained["md5"] == apk.md5
    assert explained["malicious"] == outcome["malicious"]
    if not outcome["malicious"]:  # classifier FN: nothing to explain
        assert explained["explanation"] is None
        return
    explanation = explained["explanation"]
    assert explanation["md5"] == apk.md5
    assert explanation["n_rules"] > 0
    for hit in explanation["hits"]:
        assert 1 <= hit["stage"] <= 5
        assert hit["matched_apis"] or hit["matched_permissions"] or (
            hit["matched_intents"]
        )


def test_explain_is_null_for_clean_apps(served, generator):
    service, base = served
    apk = generator.sample_app(malicious=False)
    _post(f"{base}/v1/submit", apk_to_dict(apk))
    outcome = _drain_result(base, apk.md5)
    status, explained = _get(f"{base}/v1/explain/{apk.md5}")
    assert status == 200
    if outcome["malicious"]:  # classifier FP still gets an explanation
        assert explained["explanation"] is not None
        return
    assert explained["explanation"] is None


def test_explain_pending_is_202(tmp_path, fitted_checker, generator):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    # Not started: the submission stays queued.
    service = OnlineVettingService(models)
    server = make_server(service).start_background()
    base = f"http://127.0.0.1:{server.port}"
    try:
        apk = generator.sample_app()
        _post(f"{base}/v1/submit", apk_to_dict(apk))
        status, body = _get(f"{base}/v1/explain/{apk.md5}")
        assert status == 202
        assert body["status"] == "pending"
    finally:
        server.stop()
        service.close()


def test_explain_metrics_land_in_scrape(served, generator):
    """A flagged submission bumps ``rules_evaluations_total``."""
    service, base = served
    for _ in range(6):
        apk = generator.sample_app(malicious=True)
        _post(f"{base}/v1/submit", apk_to_dict(apk))
    assert service.drain(60.0)
    text = urllib.request.urlopen(
        f"{base}/v1/metrics", timeout=10.0
    ).read().decode()
    assert "rules_evaluations_total" in text


def test_malformed_submissions_are_400(served, generator):
    _, base = served
    status, err = _post(f"{base}/v1/submit", None, raw=b"{not json")
    assert status == 400
    assert err["error"]["code"] == "bad_request"
    assert "bad submission" in err["error"]["message"]

    status, err = _post(f"{base}/v1/submit", ["not", "a", "dict"])
    assert status == 400 and err["error"]["code"] == "bad_request"

    record = apk_to_dict(generator.sample_app())
    status, err = _post(
        f"{base}/v1/submit", {"apk": record, "lane": "express"}
    )
    assert status == 400
    assert "unknown lane" in err["error"]["message"]

    record["md5"] = "0" * 32  # corrupt content hash
    status, err = _post(f"{base}/v1/submit", {"apk": record})
    assert status == 400
    assert "corrupt" in err["error"]["message"]

    status, err = _post(f"{base}/v1/submit", None, raw=b"")
    assert status == 400 and err["error"]["code"] == "bad_request"


@pytest.mark.parametrize(
    "payload",
    [
        {"apk": 5},
        {"apk": [1]},
        {"apk": "x"},
        {"apk": None},
        {"lane": 7},
        {"lane": [1]},
        {"lane": None},
        {"lane": True},
        {"lane": 1.0},
    ],
    ids=lambda p: json.dumps(p),
)
def test_malformed_envelopes_are_400_not_a_dropped_connection(
    served, generator, payload
):
    """Every bad envelope gets the error envelope, never a crash."""
    service, base = served
    body = {"apk": apk_to_dict(generator.sample_app()), "lane": "bulk"}
    body.update(payload)
    status, err = _post(f"{base}/v1/submit", body)
    assert status == 400
    assert err["error"]["code"] == "bad_request"
    assert "bad submission" in err["error"]["message"]
    assert service.queue.depth == 0 and not service.queue.completed


def test_lane_numbers_are_accepted(served, generator):
    _, base = served
    apk = generator.sample_app()
    status, ticket = _post(
        f"{base}/v1/submit", {"apk": apk_to_dict(apk), "lane": 0}
    )
    assert status == 202 and ticket["lane"] == "escalated"


def test_accepted_body_reaches_the_wal_verbatim(
    tmp_path, fitted_checker, generator
):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    spool = tmp_path / "spool"
    service = OnlineVettingService(models, spool_dir=spool)
    server = make_server(service).start_background()
    base = f"http://127.0.0.1:{server.port}"
    apk = generator.sample_app()
    body = json.dumps(
        {"lane": "resubmit", "apk": apk_to_dict(apk)}, indent=1
    ).encode()
    try:
        response, ticket = _raw(base, "POST", "/v1/submit", body)
        assert response.status == 202 and ticket["md5"] == apk.md5
        forged = apk_to_dict(generator.sample_app())
        forged["md5"] = apk.md5[::-1]
        response, _ = _raw(
            base, "POST", "/v1/submit", json.dumps(forged).encode()
        )
        assert response.status == 400
    finally:
        server.stop()
        service.close()
    # One record: the rejected body never reached the WAL, and the
    # accepted one is there byte for byte, its newlines made spaces.
    (line,) = (spool / "queue.wal").read_text("utf-8").splitlines()
    expected_body = body.decode().replace("\n", " ")
    assert line == (
        f'{{"type": "submit", "v": 2, "seq": 1, "md5": "{apk.md5}", '
        f'"lane": 1, "body": {expected_body}}}'
    )


def test_infinite_rate_is_400_before_the_wal(
    tmp_path, fitted_checker, generator, v2_wire
):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    spool = tmp_path / "spool"
    service = OnlineVettingService(models, spool_dir=spool)
    server = make_server(service).start_background()
    record = v2_wire(generator.sample_app(malicious=True))
    record["dex"]["call_sites"]["rate_multiplier"][0] = float("inf")
    body = json.dumps({"apk": record}).encode()
    assert b"Infinity" in body
    try:
        status, err = _post(
            f"http://127.0.0.1:{server.port}/v1/submit", None, raw=body
        )
    finally:
        server.stop()
        service.close()
    assert status == 400 and err["error"]["code"] == "bad_request"
    assert "rate_multiplier must be positive and finite" in (
        err["error"]["message"]
    )
    assert service.queue.depth == 0 and not service.queue.completed
    assert (spool / "queue.wal").read_text("utf-8") == ""


def test_queue_full_is_429(tmp_path, fitted_checker, generator):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    # Not started: submissions pile up against max_depth=1.
    service = OnlineVettingService(models, max_depth=1)
    server = make_server(service).start_background()
    base = f"http://127.0.0.1:{server.port}"
    try:
        status, _ = _post(
            f"{base}/v1/submit", apk_to_dict(generator.sample_app())
        )
        assert status == 202
        apk = generator.sample_app()
        status, err = _post(f"{base}/v1/submit", apk_to_dict(apk))
        assert status == 429
        assert err["error"]["code"] == "queue_full"
        assert "max depth" in err["error"]["message"]
        assert err["error"]["md5"] == apk.md5
    finally:
        server.stop()
        service.close()


def test_queue_full_429_carries_retry_after(
    tmp_path, fitted_checker, generator
):
    """Backpressure responses tell clients when to come back."""
    from repro.serve.http import RETRY_AFTER_QUEUE_FULL

    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    # Not started: submissions pile up against max_depth=1.
    service = OnlineVettingService(models, max_depth=1)
    server = make_server(service).start_background()
    base = f"http://127.0.0.1:{server.port}"
    try:
        body = json.dumps(apk_to_dict(generator.sample_app())).encode()
        response, _ = _raw(base, "POST", "/v1/submit", body)
        assert response.status == 202
        assert response.getheader("Retry-After") is None
        body = json.dumps(apk_to_dict(generator.sample_app())).encode()
        response, err = _raw(base, "POST", "/v1/submit", body)
        assert response.status == 429
        assert err["error"]["code"] == "queue_full"
        assert response.getheader("Retry-After") == RETRY_AFTER_QUEUE_FULL
    finally:
        server.stop()
        service.close()


def test_shard_unavailable_503_carries_retry_after(generator):
    """The router front door marks dead-shard 503s retryable too."""
    from repro.serve.http import RETRY_AFTER_SHARD_UNAVAILABLE
    from repro.serve.shard import RouterApi, ShardUnavailableError

    class DeadFleet:
        """Duck-typed router whose every shard is down."""

        def owner_of(self, md5):
            return 0

        def proxy(self, shard_id, method, path, body=None, md5=None):
            raise ShardUnavailableError(shard_id, "worker dead", md5)

    api = RouterApi(DeadFleet())
    apk = generator.sample_app()
    body = json.dumps({"apk": apk_to_dict(apk), "lane": "bulk"}).encode()
    for response in (api.submit(body), api.result(apk.md5)):
        assert response.status == 503
        assert dict(response.headers)["Retry-After"] == (
            RETRY_AFTER_SHARD_UNAVAILABLE
        )
        assert response.payload["error"]["code"] == "shard_unavailable"


def test_metrics_exposition(served, generator):
    service, base = served
    service.submit(generator.sample_app())
    assert service.drain(60.0)
    request = urllib.request.urlopen(f"{base}/v1/metrics", timeout=10.0)
    assert request.status == 200
    assert request.headers["Content-Type"].startswith("text/plain")
    text = request.read().decode()
    for series in (
        "serve_active_model_version",
        "serve_queue_depth",
        "serve_submissions_total",
    ):
        assert series in text


def test_metrics_json_snapshot_round_trips(served, generator):
    """``/v1/metrics.json`` is an ``as_dict`` snapshot (router scrape)."""
    from repro.obs import MetricsRegistry

    service, base = served
    service.submit(generator.sample_app())
    assert service.drain(60.0)
    status, snapshot = _get(f"{base}/v1/metrics.json")
    assert status == 200
    rebuilt = MetricsRegistry.from_dict(snapshot)
    assert rebuilt.total("serve_submissions_total") >= 1


def test_unknown_endpoints_are_404(served):
    _, base = served
    assert _get(f"{base}/v1/nope")[0] == 404
    assert _post(f"{base}/v1/nope", {"x": 1})[0] == 404


# ----------------------------------------------------------------------
# Route table + legacy aliases
# ----------------------------------------------------------------------


def test_route_table_is_fully_versioned():
    """Every route lives under /v1 and names a real handler."""
    from repro.serve.http import ServiceApi

    assert ROUTES, "route table must not be empty"
    for route in ROUTES:
        assert route.path.startswith(rf"^{API_PREFIX}/")
        assert route.method in ("GET", "POST")
        assert callable(getattr(ServiceApi, route.handler))


def test_error_codes_are_a_closed_set():
    assert ERROR_CODES == {
        "bad_request",
        "not_found",
        "wrong_shard",
        "queue_full",
        "shard_unavailable",
    }


def test_legacy_unprefixed_paths_are_gone(served):
    """The 301 alias grace window is over: unprefixed paths are 404s.

    PR 3 introduced the unprefixed routes, PR 8 turned them into 301
    aliases with Deprecation headers, and this release removes them.
    They must 404 with the standard error envelope — no Location, no
    Deprecation, no redirect for old clients to lean on.
    """
    _, base = served
    for path in ("/healthz", "/metrics", "/result/deadbeef",
                 "/explain/deadbeef"):
        response, body = _raw(base, "GET", path)
        assert response.status == 404, path
        assert body["error"]["code"] == "not_found"
        assert "Location" not in response.headers, path
        assert "Deprecation" not in response.headers, path


def test_legacy_post_submit_is_gone(served, generator):
    _, base = served
    body = json.dumps(apk_to_dict(generator.sample_app())).encode()
    response, payload = _raw(base, "POST", "/submit", body)
    assert response.status == 404
    assert payload["error"]["code"] == "not_found"
    assert "Location" not in response.headers


def test_unknown_legacy_path_is_404_not_redirect(served):
    _, base = served
    response, body = _raw(base, "GET", "/definitely/not/a/route")
    assert response.status == 404
    assert body["error"]["code"] == "not_found"


@pytest.mark.parametrize("rate", [1e308], ids=["1e308"])
def test_poisoned_body_fails_alone(served, generator, poisoned_record, rate):
    service, base = served
    record = poisoned_record(rate)
    body = json.dumps({"apk": record}).encode()
    status, ticket = _post(f"{base}/v1/submit", None, raw=body)
    assert status == 202 and ticket["md5"] == record["md5"]
    later = generator.sample_app()
    status, _ = _post(f"{base}/v1/submit", {"apk": apk_to_dict(later)})
    assert status == 202
    outcome = _drain_result(base, record["md5"])
    assert outcome["status"] == "failed"
    assert "OverflowError" in outcome["reason"]
    assert _drain_result(base, later.md5)["status"] == "done"
    assert service.running


def test_unparsable_bodies_are_400_before_the_wal(
    spooled, unparsable_bodies
):
    """Overflowing numbers and deep nesting: a 400, not a dropped
    connection."""
    service, base, wal = spooled
    for name, body in unparsable_bodies.items():
        status, err = _post(f"{base}/v1/submit", None, raw=body)
        assert status == 400, name
        assert err["error"]["code"] == "bad_request", name
        assert "bad submission" in err["error"]["message"], name
    assert wal.read_text("utf-8") == ""
    assert service.queue.depth == 0


def _b64(values, dtype: str) -> str:
    return base64.b64encode(np.asarray(values, dtype).tobytes()).decode()


def _first_set(column: np.ndarray, value) -> np.ndarray:
    edited = column.copy()
    edited[0] = value
    return edited


#: Version-3 call-site columns a submission is refused for:
#: ``(case, column, the column built from the app's CallSites,
#: message)``.  A column of None forges the md5 instead.
REJECTED_V3_COLUMNS = [
    ("list column", "api_id", lambda s: s.api_id.tolist(),
     "must be a base64 string"),
    ("null column", "rate_multiplier", lambda s: None,
     "must be a base64 string"),
    ("bad base64", "reach_quantile", lambda s: "AAAA*AAA",
     "bad submission"),
    ("12 bytes", "api_id", lambda s: _b64(np.zeros(12), "u1"),
     "not whole 8-byte cells"),
    ("unequal lengths", "rate_multiplier",
     lambda s: _b64(s.rate_multiplier[:-1], "<f8"), "differ in length"),
    ("id -1", "api_id", lambda s: _b64(_first_set(s.api_id, -1), "<i8"),
     "api_id must be non-negative"),
    ("rate 0", "rate_multiplier",
     lambda s: _b64(_first_set(s.rate_multiplier, 0.0), "<f8"),
     "rate_multiplier must be positive and finite"),
    ("rate +inf", "rate_multiplier",
     lambda s: _b64(_first_set(s.rate_multiplier, np.inf), "<f8"),
     "rate_multiplier must be positive and finite"),
    ("reach 1.5", "reach_quantile",
     lambda s: _b64(_first_set(s.reach_quantile, 1.5), "<f8"),
     "reach_quantile must be in [0, 1]"),
    ("reach NaN", "reach_quantile",
     lambda s: _b64(_first_set(s.reach_quantile, np.nan), "<f8"),
     "reach_quantile must be in [0, 1]"),
    ("duplicate ids", "api_id",
     lambda s: _b64(_first_set(s.api_id, s.api_id[1]), "<i8"),
     "duplicate call site"),
    ("forged md5", None, None, "corrupt"),
]


@pytest.mark.parametrize(
    "column,rebuild,message",
    [case[1:] for case in REJECTED_V3_COLUMNS],
    ids=[case[0] for case in REJECTED_V3_COLUMNS],
)
def test_rejected_v3_columns_are_400_before_the_wal(
    spooled, generator, column, rebuild, message
):
    service, base, wal = spooled
    apk = generator.sample_app(malicious=True)
    record = apk_to_dict(apk)
    if column is None:
        record["md5"] = generator.sample_app().md5
    else:
        record["dex"]["call_sites"][column] = rebuild(apk.dex.call_sites)
    status, err = _post(f"{base}/v1/submit", {"apk": record})
    assert status == 400 and err["error"]["code"] == "bad_request"
    assert message in err["error"]["message"]
    assert wal.read_text("utf-8") == "" and service.queue.depth == 0

