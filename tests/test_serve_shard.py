"""Tests for the sharded multi-process serving tier.

The expensive proofs here run real worker processes (spawn) against a
published model registry: round-trip through the router, scatter/gather
aggregation, SIGKILL-one-shard replay with a WAL-level exactly-once
audit.  The determinism proof (same day through 1, 2, and 8 shards)
runs shard-scoped services in-process, since it is about the routing
function and verdict content, not process isolation.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.codec import apk_to_dict
from repro.serve.http import ServiceApi
from repro.serve.queue import WrongShardError, shard_of
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService
from repro.serve.shard import (
    RouterApi,
    ShardRouter,
    ShardUnavailableError,
    make_router_server,
    shard_spool,
)


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, fitted_checker):
    """A published model registry shared by every router in this module."""
    root = tmp_path_factory.mktemp("shard-models")
    models = ModelRegistry(root)
    models.publish(fitted_checker, activate=True)
    return root


def _router(model_dir, tmp_path, n_shards, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("start_timeout", 180.0)
    return ShardRouter(
        model_dir, tmp_path / "spool", n_shards=n_shards, **kwargs
    )


def _await_terminal(router, md5s, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        states = [router.result(m)["status"] for m in md5s]
        if all(s in ("done", "failed") for s in states):
            return states
        time.sleep(0.1)
    raise AssertionError(f"submissions never terminal: {states}")


def _wal_done_counts(spool_dir, shard_id):
    """md5 -> number of terminal WAL records in one shard's segment."""
    counts: dict[str, int] = {}
    wal = shard_spool(spool_dir, shard_id) / "queue.wal"
    for line in wal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("type") == "done":
            md5 = record["md5"]
            counts[md5] = counts.get(md5, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Routing function
# ----------------------------------------------------------------------


def test_shard_of_is_deterministic_and_total(generator):
    for apk in (generator.sample_app() for _ in range(64)):
        owner = shard_of(apk.md5, 8)
        assert 0 <= owner < 8
        assert shard_of(apk.md5, 8) == owner  # stable across calls
    assert all(
        shard_of(generator.sample_app().md5, 1) == 0 for _ in range(8)
    )
    with pytest.raises(ValueError):
        shard_of("deadbeef", 0)


def test_shard_of_spreads_load(generator):
    owners = [
        shard_of(generator.sample_app().md5, 4) for _ in range(400)
    ]
    for shard_id in range(4):
        assert owners.count(shard_id) > 0


# ----------------------------------------------------------------------
# Router round trip + scatter/gather
# ----------------------------------------------------------------------


def test_router_round_trip_and_aggregation(model_dir, tmp_path, generator):
    fresh = [generator.sample_app() for _ in range(12)]
    with _router(model_dir, tmp_path, n_shards=2) as router:
        for apk in fresh:
            ticket = router.submit(apk)
            assert ticket["md5"] == apk.md5
        states = _await_terminal(router, [a.md5 for a in fresh])
        assert states.count("done") == len(fresh)

        # Each outcome came from the owning shard's WAL-backed service.
        for apk in fresh:
            outcome = router.result(apk.md5)
            assert outcome["status"] == "done"
            assert outcome["model_version"] == 1

        # Scatter/gather healthz: every shard reports, totals add up.
        health = router.healthz()
        assert health["status"] == "ok"
        assert health["n_shards"] == 2
        assert [s["shard"] for s in health["shards"]] == [0, 1]
        assert health["completed"] == len(fresh)

        # Aggregated metrics carry per-shard labels and tier totals.
        aggregate = router.metrics_registry()
        per_shard = [
            aggregate.value("serve_scored_total", shard=str(k))
            for k in range(2)
        ]
        assert sum(per_shard) == len(fresh)
        assert all(count > 0 for count in per_shard)
        text = router.metrics_text()
        assert 'serve_scored_total{shard="0"}' in text


def test_router_front_door_http(model_dir, tmp_path, generator):
    """Submit/poll/scrape through the router's own /v1 HTTP server."""
    fresh = [generator.sample_app() for _ in range(6)]
    with _router(model_dir, tmp_path, n_shards=2) as router:
        server = make_router_server(router).start_background()
        base = f"http://127.0.0.1:{server.port}"
        try:
            for apk in fresh:
                body = json.dumps({"apk": apk_to_dict(apk)}).encode()
                request = urllib.request.Request(
                    f"{base}/v1/submit", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=10.0) as resp:
                    assert resp.status == 202
            _await_terminal(router, [a.md5 for a in fresh])
            for apk in fresh:
                with urllib.request.urlopen(
                    f"{base}/v1/result/{apk.md5}", timeout=10.0
                ) as resp:
                    assert resp.status == 200
                    assert json.loads(resp.read())["status"] == "done"
            health = json.load(
                urllib.request.urlopen(f"{base}/v1/healthz", timeout=10.0)
            )
            assert health["status"] == "ok"
            assert len(health["shards"]) == 2
            text = urllib.request.urlopen(
                f"{base}/v1/metrics", timeout=10.0
            ).read().decode()
            assert 'shard="router"' in text
            assert 'serve_scored_total{shard="0"}' in text
        finally:
            server.stop()


def test_wrong_shard_submit_is_409(model_dir, tmp_path, generator):
    """A shard worker rejects md5s owned by its sibling with the envelope."""
    apk = generator.sample_app()
    with _router(model_dir, tmp_path, n_shards=2) as router:
        wrong = 1 - router.owner_of(apk.md5)
        body = json.dumps({"apk": apk_to_dict(apk)}).encode()
        status, data = router.proxy(wrong, "POST", "/v1/submit", body)
        assert status == 409
        err = json.loads(data)["error"]
        assert err["code"] == "wrong_shard"
        assert err["md5"] == apk.md5


# ----------------------------------------------------------------------
# Failure injection: kill one shard, replay its WAL, exactly once
# ----------------------------------------------------------------------


def test_kill_one_shard_midbatch_replay_is_exactly_once(
    model_dir, tmp_path, generator
):
    """SIGKILL one worker mid-batch; restart replays without duplicates.

    The per-shard re-proof of PR 3's guarantee: after the kill and
    restart, every accepted md5 reaches a terminal outcome, and the
    dead shard's WAL segment holds at most one terminal record per md5
    across both process lifetimes.
    """
    with _router(
        model_dir, tmp_path, n_shards=2,
        pace_seconds_per_minute=0.03, batch_size=2,
    ) as router:
        victim = 0
        fresh = []
        while len(fresh) < 10:
            apk = generator.sample_app()
            if router.owner_of(apk.md5) == victim:
                fresh.append(apk)
        md5s = [a.md5 for a in fresh]
        for apk in fresh:
            router.submit(apk)

        # Let the victim finish part of the work, then kill it cold.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done_before = [
                m for m in md5s if router.result(m)["status"] == "done"
            ]
            if done_before:
                break
            time.sleep(0.05)
        assert done_before, "victim shard never completed any work"
        router.kill_shard(victim)
        assert not router.shards[victim].alive

        # The owning shard is down: routing to it is a 503, healthz
        # degrades, the sibling keeps serving.
        with pytest.raises(ShardUnavailableError):
            router.result(md5s[0])
        assert router.healthz()["status"] == "degraded"
        sibling_apk = generator.sample_app()
        while router.owner_of(sibling_apk.md5) == victim:
            sibling_apk = generator.sample_app()
        assert router.submit(sibling_apk)["md5"] == sibling_apk.md5

        # Restart over the same WAL segment: completed outcomes are
        # recovered verbatim, uncompleted acceptances re-enqueued.
        replayed = router.restart_shard(victim)
        assert replayed == len(md5s) - len(done_before)
        for md5 in done_before:
            assert router.result(md5)["status"] == "done"
        states = _await_terminal(router, md5s)
        assert all(s in ("done", "failed") for s in states)

        # The WAL-level audit: one terminal record per md5, ever.
        counts = _wal_done_counts(router.spool_dir, victim)
        assert set(counts) == set(md5s)
        duplicates = {m: c for m, c in counts.items() if c != 1}
        assert not duplicates, f"duplicate terminal outcomes: {duplicates}"

        # And the restarted worker only scored the replayed remainder.
        aggregate = router.metrics_registry()
        assert aggregate.value(
            "serve_scored_total", shard=str(victim)
        ) == replayed


def test_ruleset_roll_mid_traffic_loses_nothing(
    model_dir, tmp_path, generator
):
    """Pushing a ruleset through the router mid-traffic drops nothing.

    Half the day is in flight when the roll starts; afterwards every
    submission is terminal (zero lost), every shard's healthz reports
    the new ``ruleset_version``, and no explanation mixes versions —
    each flagged outcome's hit behaviors carry exactly the suffix of
    the ruleset version that explained it.
    """
    from repro.rules import builtin_ruleset

    renamed = json.dumps({
        "version": 1,
        "rules": [
            {**spec.to_dict(), "behavior": spec.behavior + "__v1"}
            for spec in builtin_ruleset()
        ],
    }).encode("utf-8")

    fresh = [
        generator.sample_app(malicious=True) for _ in range(6)
    ] + [generator.sample_app() for _ in range(6)]
    with _router(model_dir, tmp_path, n_shards=2) as router:
        for apk in fresh[:6]:
            router.submit(apk)
        receipt = router.push_ruleset(renamed)
        assert receipt["ruleset_version"] == 1
        assert set(receipt["shards"]) == {"0", "1"}
        for apk in fresh[6:]:
            router.submit(apk)

        states = _await_terminal(router, [a.md5 for a in fresh])
        assert states.count("done") == len(fresh)  # zero lost

        health = router.healthz()
        assert health["status"] == "ok"
        assert [s["ruleset_version"] for s in health["shards"]] == [1, 1]

        for apk in fresh:
            explained = router.explain(apk.md5)
            version = explained["ruleset_version"]
            assert version in (0, 1)
            if explained.get("explanation"):
                behaviors = {
                    h["behavior"]
                    for h in explained["explanation"]["hits"]
                }
                expected = version == 1
                assert all(
                    b.endswith("__v1") == expected for b in behaviors
                )

        aggregate = router.metrics_registry()
        assert aggregate.value(
            "serve_router_ruleset_pushes_total", shard="router"
        ) == 1
        for shard in ("0", "1"):
            assert aggregate.value(
                "ruleset_swap_total", shard=shard
            ) == 1


def test_front_door_503_envelope_when_shard_down(
    model_dir, tmp_path, generator
):
    apk = generator.sample_app()
    with _router(model_dir, tmp_path, n_shards=2) as router:
        server = make_router_server(router).start_background()
        base = f"http://127.0.0.1:{server.port}"
        try:
            router.kill_shard(router.owner_of(apk.md5))
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{base}/v1/result/{apk.md5}", timeout=10.0
                )
            assert excinfo.value.code == 503
            err = json.load(excinfo.value)["error"]
            assert err["code"] == "shard_unavailable"
            assert err["md5"] == apk.md5

            body = json.dumps({"apk": apk_to_dict(apk)}).encode()
            request = urllib.request.Request(
                f"{base}/v1/submit", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 503
            assert json.load(excinfo.value)["error"]["code"] == (
                "shard_unavailable"
            )
        finally:
            server.stop()


def test_router_answers_unparsable_bodies_400_not_503(
    model_dir, tmp_path, unparsable_bodies
):
    """A body that crashed the shard's handler was retried, then 503."""
    with _router(model_dir, tmp_path, n_shards=1) as router:
        server = make_router_server(router).start_background()
        base = f"http://127.0.0.1:{server.port}"
        try:
            for name, body in unparsable_bodies.items():
                request = urllib.request.Request(
                    f"{base}/v1/submit", data=body,
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10.0)
                assert excinfo.value.code == 400, name
                err = json.load(excinfo.value)["error"]
                assert err["code"] == "bad_request", name
        finally:
            server.stop()
        assert router.metrics.total("serve_router_proxy_errors_total") == 0
    wal = shard_spool(tmp_path / "spool", 0) / "queue.wal"
    assert wal.read_text("utf-8") == ""


def test_router_stop_reports_abandoned_submissions(
    model_dir, tmp_path, generator
):
    """Shutdown surfaces each shard's non-terminal md5 set."""
    router = _router(
        model_dir, tmp_path, n_shards=2, pace_seconds_per_minute=0.2,
    )
    router.start()
    fresh = [generator.sample_app() for _ in range(8)]
    try:
        for apk in fresh:
            router.submit(apk)
    finally:
        abandoned = router.stop()
    reported = set().union(*abandoned.values())
    terminal = {
        m for m in (a.md5 for a in fresh) if m not in reported
    }
    # Everything submitted is accounted for: either terminal before the
    # stop or reported abandoned (and each abandoned md5 sits on its
    # owning shard).
    assert reported | terminal == {a.md5 for a in fresh}
    for shard_id, md5s in abandoned.items():
        assert all(shard_of(m, 2) == shard_id for m in md5s)


# ----------------------------------------------------------------------
# Shard determinism: same day, 1 vs 2 vs 8 shards, same verdicts
# ----------------------------------------------------------------------


def _run_sharded_day(fitted_checker, tmp_path, apks, n_shards):
    """Vet one day through n in-process shard-scoped services."""
    models = ModelRegistry(tmp_path / f"models-{n_shards}")
    models.publish(fitted_checker, activate=True)
    outcomes: dict[str, dict] = {}
    for shard_id in range(n_shards):
        owned = [a for a in apks if shard_of(a.md5, n_shards) == shard_id]
        service = OnlineVettingService(
            models,
            spool_dir=shard_spool(tmp_path / f"spool-{n_shards}", shard_id),
            shard=(shard_id, n_shards),
            workers=2,
            batch_size=4,
        )
        with service:
            for apk in owned:
                service.submit(apk)
            assert service.drain(120.0)
            for apk in owned:
                outcomes[apk.md5] = service.result(apk.md5)
    assert len(outcomes) == len(apks)
    return outcomes


def test_shard_count_does_not_change_verdicts(
    fitted_checker, tmp_path, generator
):
    """1, 2, and 8 shards produce the identical terminal verdict set.

    Sharding is pure routing: the per-md5 outcome (verdict, probability,
    model version) must not depend on how many shards the day was split
    across.  Order-independent by construction — outcomes are compared
    as an md5-keyed set, the batch-vs-single equivalence style of
    ``test_score_batch.py`` lifted to the serving tier.
    """
    day = [generator.sample_app() for _ in range(24)]
    baseline = _run_sharded_day(fitted_checker, tmp_path, day, 1)
    for n_shards in (2, 8):
        sharded = _run_sharded_day(fitted_checker, tmp_path, day, n_shards)
        assert set(sharded) == set(baseline)
        for md5, outcome in baseline.items():
            other = sharded[md5]
            assert other["status"] == outcome["status"] == "done"
            assert other["malicious"] == outcome["malicious"]
            assert other["probability"] == pytest.approx(
                outcome["probability"]
            )
            assert other["model_version"] == outcome["model_version"]


def test_in_process_service_rejects_wrong_shard(
    fitted_checker, tmp_path, generator
):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    service = OnlineVettingService(models, shard=(0, 4))
    try:
        owned = wrong = None
        while owned is None or wrong is None:
            apk = generator.sample_app()
            if shard_of(apk.md5, 4) == 0:
                owned = apk
            else:
                wrong = apk
        assert service.submit(owned)["md5"] == owned.md5
        with pytest.raises(WrongShardError) as excinfo:
            service.submit(wrong)
        assert excinfo.value.md5 == wrong.md5
        assert excinfo.value.owner == shard_of(wrong.md5, 4)
        assert service.metrics.value("serve_wrong_shard_rejects_total") == 1
    finally:
        service.close()


def test_stop_and_drain_report_pending_md5s(
    fitted_checker, tmp_path, generator
):
    """Satellite 3: stop()/drain() surface the abandoned in-flight set."""
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    # Never started: everything submitted stays pending.
    service = OnlineVettingService(models, spool_dir=tmp_path / "spool")
    md5s = set()
    for _ in range(3):
        apk = generator.sample_app()
        service.submit(apk)
        md5s.add(apk.md5)
    status = service.drain(timeout=0.1)
    assert not status  # falsy on timeout: existing call sites still hold
    assert status.pending == md5s
    abandoned = service.close()
    assert abandoned == md5s


# ----------------------------------------------------------------------
# Front-door submit: route on the claimed md5, forward the bytes
# ----------------------------------------------------------------------


class InProcessFleet:
    """Duck-typed router over shard-scoped in-process services.

    ``proxy`` hands the request to the owning shard's own
    :class:`~repro.serve.http.ServiceApi` and records every call, so a
    test sees exactly which bytes the front door forwarded where.
    """

    def __init__(self, models, n_shards=2):
        self.n_shards = n_shards
        self.services = [
            OnlineVettingService(models, shard=(k, n_shards))
            for k in range(n_shards)
        ]
        self.apis = [ServiceApi(service) for service in self.services]
        self.calls = []

    def owner_of(self, md5):
        return shard_of(md5, self.n_shards)

    def proxy(self, shard_id, method, path, body=None, md5=None):
        self.calls.append((shard_id, method, path, body, md5))
        response = self.apis[shard_id].submit(body)
        return response.status, json.dumps(response.payload).encode()

    def close(self):
        for service in self.services:
            service.close()


@pytest.fixture()
def fleet(tmp_path, fitted_checker):
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    fleet = InProcessFleet(models)
    yield fleet
    fleet.close()


def test_front_door_forwards_request_bytes_unchanged(fleet, generator):
    api = RouterApi(fleet)
    apk = generator.sample_app()
    body = json.dumps(
        {"lane": "escalated", "apk": apk_to_dict(apk)}, indent=2
    ).encode()
    response = api.submit(body)
    assert response.status == 202
    assert json.loads(response.text)["md5"] == apk.md5
    (call,) = fleet.calls
    owner = shard_of(apk.md5, 2)
    assert call == (owner, "POST", "/v1/submit", body, apk.md5)
    assert call[3] is body  # the very bytes, not a re-encoding
    assert fleet.services[owner].queue.depth == 1


def test_front_door_forged_md5_gets_the_shards_400(fleet, generator):
    """A forged md5 is routed on, then rejected by the shard's check."""
    api = RouterApi(fleet)
    real, other = generator.sample_app(), generator.sample_app()
    while shard_of(other.md5, 2) == shard_of(real.md5, 2):
        other = generator.sample_app()
    forged = apk_to_dict(real)
    forged["md5"] = other.md5  # claims the other shard's md5
    body = json.dumps({"apk": forged}).encode()
    response = api.submit(body)
    assert response.status == 400
    err = json.loads(response.text)["error"]
    assert err["code"] == "bad_request" and "corrupt" in err["message"]
    (call,) = fleet.calls
    assert call[0] == shard_of(other.md5, 2) and call[3] is body
    assert all(s.queue.depth == 0 for s in fleet.services)


def test_front_door_routes_a_body_without_md5(fleet, generator):
    api = RouterApi(fleet)
    apk = generator.sample_app()
    wire = apk_to_dict(apk)
    wire.pop("md5")
    body = json.dumps(wire).encode()
    response = api.submit(body)
    assert response.status == 202
    (call,) = fleet.calls
    assert call == (shard_of(apk.md5, 2), "POST", "/v1/submit", body,
                    apk.md5)


@pytest.mark.parametrize(
    "payload",
    [
        {"apk": 5},
        {"apk": [1]},
        {"apk": "x"},
        {"lane": 7},
        {"lane": [1]},
        {"lane": None},
        {"lane": True},
    ],
    ids=lambda p: json.dumps(p),
)
def test_front_door_malformed_envelopes_are_400(fleet, generator, payload):
    """Rejected at the front door: nothing is proxied."""
    body = {"apk": apk_to_dict(generator.sample_app()), "lane": "bulk"}
    body.update(payload)
    response = RouterApi(fleet).submit(json.dumps(body).encode())
    assert response.status == 400
    assert response.payload["error"]["code"] == "bad_request"
    assert fleet.calls == []


def test_front_door_malformed_md5_is_decoded_and_rejected(fleet, generator):
    wire = apk_to_dict(generator.sample_app())
    wire["md5"] = wire["md5"].upper()
    response = RouterApi(fleet).submit(json.dumps(wire).encode())
    assert response.status == 400
    assert "corrupt" in response.payload["error"]["message"]
    assert fleet.calls == []


def test_front_door_unparsable_bodies_are_400(fleet, unparsable_bodies):
    api = RouterApi(fleet)
    for name, body in unparsable_bodies.items():
        response = api.submit(body)
        assert response.status == 400, name
        payload = (
            json.loads(response.text) if response.text is not None
            else response.payload
        )
        assert payload["error"]["code"] == "bad_request", name
    # Only the nested body is refused at the front door; the others are
    # routed on their claimed md5 and refused by the owning shard.
    assert len(fleet.calls) == len(unparsable_bodies) - 1
    assert all(s.queue.depth == 0 for s in fleet.services)

