"""Tests for the online vetting service (dispatch, conservation, restart)."""

import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serve.codec import apk_from_dict
from repro.serve.queue import QueueFullError, SubmissionQueue
from repro.serve.registry import ModelRegistry, PromotionPolicy
from repro.serve.service import OnlineVettingService


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(
        fitted_checker, metadata={"source": "test"}, activate=True
    )
    return registry


def _service(models, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batch_size", 4)
    return OnlineVettingService(models, **kwargs)


def test_start_requires_active_model(tmp_path):
    registry = ModelRegistry(tmp_path / "empty")
    service = OnlineVettingService(registry)
    with pytest.raises(RuntimeError, match="no active model"):
        service.start()


def test_submit_drain_and_results(models, generator):
    apps = [generator.sample_app() for _ in range(10)]
    with _service(models) as service:
        tickets = [service.submit(apk) for apk in apps]
        assert all(t["status"] in ("pending", "in_flight") for t in tickets)
        assert service.drain(60.0), "service did not drain"
        for apk in apps:
            outcome = service.result(apk.md5)
            assert outcome["status"] == "done"
            assert outcome["model_version"] == 1
            assert isinstance(outcome["malicious"], bool)
            assert outcome["analysis_minutes"] > 0
    assert service.result("ffffffff")["status"] == "unknown"


def test_conservation_counters(models, generator):
    metrics = models.metrics
    apps = [generator.sample_app() for _ in range(9)]
    with _service(models) as service:
        for apk in apps:
            service.submit(apk)
        assert service.drain(60.0)
    accepted = metrics.total("serve_submissions_total")
    completed = metrics.value("serve_completed_total")
    scored = metrics.value("serve_scored_total")
    failed = metrics.value("serve_failed_total")
    assert accepted == len(apps)
    assert completed == len(apps)
    assert scored == len(apps)
    assert scored == completed - failed + failed  # every accept is terminal
    assert metrics.value("serve_queue_depth") == 0
    assert metrics.histogram_count("serve_e2e_seconds") == len(apps)


def test_priority_lane_is_dispatched_first(models, generator):
    # Fill the queue before the dispatcher starts, then check the
    # escalated submission lands in the first processed batch.
    apps = [generator.sample_app() for _ in range(6)]
    service = _service(models, batch_size=2)
    for apk in apps[:5]:
        service.submit(apk, "bulk")
    service.submit(apps[5], "escalated")
    try:
        service.start()
        deadline = time.monotonic() + 60.0
        while (
            apps[5].md5 not in service.queue.completed
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        outcome = service.queue.completed[apps[5].md5]
        assert outcome["lane"] == "escalated"
        # The escalated submission must land in the first dispatched
        # batch; results preserve completion order, so it appears among
        # the first batch_size outcomes.  (Counting completed batches
        # instead would race the dispatcher: batched scoring can finish
        # several micro-batches within one 10 ms poll.)
        first_batch = list(service.queue.completed)[: service.batch_size]
        assert apps[5].md5 in first_batch
    finally:
        service.close()


def test_escalated_lane_never_starves_under_bulk_flood(models, generator):
    """A sustained bulk flood must not delay an escalated submission
    beyond the micro-batch already in flight.

    The queue pops escalated entries first, so once the escalated app
    is accepted, only the batch the dispatcher has already taken plus
    the one it joins can complete before it — at most 2 * batch_size
    bulk outcomes between its acceptance and its verdict.
    """
    bulk = [generator.sample_app() for _ in range(28)]
    urgent = generator.sample_app(malicious=True)
    with _service(models, batch_size=4) as service:
        for apk in bulk:
            service.submit(apk, "bulk")
        done_at_submit = len(service.queue.completed)
        service.submit(urgent, "escalated")
        deadline = time.monotonic() + 120.0
        while (
            urgent.md5 not in service.queue.completed
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert (
            urgent.md5 in service.queue.completed
        ), "escalated submission starved"
        # results preserve completion order: everything between the
        # acceptance-time snapshot and the escalated outcome completed
        # while the escalated app waited.
        position = list(service.queue.completed).index(urgent.md5)
        waited_behind = position - done_at_submit
        assert waited_behind <= 2 * service.batch_size, (
            f"escalated verdict waited behind {waited_behind} bulk "
            f"outcomes (batch_size={service.batch_size})"
        )
        assert service.drain(120.0)


def test_admission_rejects_surface_as_queue_full(models, generator):
    service = _service(models, max_depth=2)
    service.submit(generator.sample_app())
    service.submit(generator.sample_app())
    with pytest.raises(QueueFullError):
        service.submit(generator.sample_app())
    assert service.metrics.value("serve_admission_rejects_total") == 1
    # The re-export lets service-level callers catch it without
    # importing the queue module.
    assert OnlineVettingService.QueueFullError is QueueFullError
    service.close()


def test_resubmitted_md5_is_served_from_cache(models, generator):
    apk = generator.sample_app()
    with _service(models) as service:
        service.submit(apk)
        assert service.drain(60.0)
        first = service.result(apk.md5)
        assert not first["from_cache"]
        service.submit(apk)  # terminal md5: re-accepted, cache absorbs it
        assert service.drain(60.0)
        second = service.result(apk.md5)
        assert second["status"] == "done"
        assert second["from_cache"]
        assert second["malicious"] == first["malicious"]


def test_healthz_reports_registry_and_queue(models, generator):
    with _service(models) as service:
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["active_model_version"] == 1
        assert health["queue_depth"] == 0
    assert service.healthz()["status"] == "stopped"


def test_metrics_text_exposes_serving_series(models, generator):
    with _service(models) as service:
        service.submit(generator.sample_app())
        assert service.drain(60.0)
        text = service.metrics_text()
    for series in (
        "serve_active_model_version",
        "serve_queue_depth",
        "serve_submissions_total",
        "serve_completed_total",
    ):
        assert series in text, f"{series} missing from exposition"


def test_shadow_scoring_rides_live_traffic(models, fitted_checker, generator):
    models.publish(fitted_checker)
    models.stage_shadow(2)
    apps = [generator.sample_app() for _ in range(6)]
    with _service(models) as service:
        for apk in apps:
            service.submit(apk)
        assert service.drain(60.0)
        for apk in apps:
            assert service.result(apk.md5)["shadow_model_version"] == 2
    n, agree, rate = models.shadow_agreement()
    assert n == len(apps) and rate == 1.0
    decision = models.promote(
        PromotionPolicy(min_agreement=0.9, min_samples=5)
    )
    assert decision.promoted and models.active_version == 2


def test_kill_and_restart_is_exactly_once(tmp_path, models, generator):
    """The acceptance test: kill mid-batch, replay, no loss, no re-score.

    Phase 1 accepts a burst and is killed after some (but not all)
    submissions reach a terminal outcome.  Phase 2 reopens the same
    spool: every submission must reach exactly one terminal result, and
    the ones already completed must be served from the WAL's completion
    records without being scored again.
    """
    spool = tmp_path / "spool"
    apps = [generator.sample_app() for _ in range(12)]

    # -- phase 1: accept everything, die after the first batch ---------
    # The dispatcher is driven by hand so the kill point is exact:
    # three submissions reach a terminal outcome, nine never do.
    service = _service(models, spool_dir=spool, batch_size=3)
    for apk in apps:
        service.submit(apk)
    service._process_batch(service.queue.take_batch(3, timeout=0))
    phase1_results = dict(service.queue.completed)
    assert len(phase1_results) == 3
    # "kill -9": abandon the service without stop/close bookkeeping.

    # -- phase 2: fresh process state over the same spool --------------
    metrics2 = MetricsRegistry()
    queue2 = SubmissionQueue(spool, registry=metrics2)
    replayed = metrics2.value("serve_wal_replayed_total")
    assert replayed == len(apps) - len(phase1_results)
    service2 = OnlineVettingService(
        models, queue=queue2, workers=2, batch_size=3, metrics=metrics2
    )
    # Completed outcomes were recovered from the WAL, not recomputed.
    for md5, outcome in phase1_results.items():
        assert service2.queue.completed[md5] == outcome
    service2.start()
    assert service2.drain(90.0), "restart did not drain the replay"
    service2.close()

    # Exactly once: every accepted submission is terminal...
    statuses = [service2.result(apk.md5)["status"] for apk in apps]
    assert statuses == ["done"] * len(apps)
    # ...and phase 2 scored only the replayed remainder — completed
    # entries were never dispatched again.
    assert metrics2.value("serve_scored_total") == replayed
    assert metrics2.value("serve_completed_total") == replayed
    assert queue2.depth == 0


def test_in_memory_service_needs_no_spool(models, generator):
    with _service(models, spool_dir=None) as service:
        service.submit(generator.sample_app())
        assert service.drain(60.0)
        assert len(service.queue.completed) == 1


def test_constructor_validation(models):
    with pytest.raises(ValueError):
        OnlineVettingService(models, workers=0)
    with pytest.raises(ValueError):
        OnlineVettingService(models, batch_size=0)


def test_drift_monitors_ride_live_traffic(models, fitted_checker, generator):
    """drift_monitors=True wires the full loop: PSI auto-baseline,
    shadow agreement feeding the rolling monitor, feedback feeding F1,
    and everything surfacing in healthz + the metrics exposition."""
    models.publish(fitted_checker)
    models.stage_shadow(2)
    apps = [generator.sample_app() for _ in range(8)]
    with _service(models, drift_monitors=True) as service:
        for apk in apps:
            service.submit(apk)
        assert service.drain(60.0)
        for apk in apps:
            outcome = service.result(apk.md5)
            service.record_feedback(apk.md5, outcome["malicious"])
        health = service.healthz()
        text = service.metrics_text()
    # The first scored batch auto-baselined the PSI reference.
    assert service.drift_monitors.psi._reference is not None
    assert service.drift_monitors.psi.samples > 0
    agreement = health["shadow_agreement"]
    assert agreement["n_scored"] == len(apps)
    assert agreement["rolling"] == pytest.approx(agreement["rate"])
    drift = health["drift"]
    assert drift is not None and drift["alarmed"] is False
    assert set(drift["monitors"]) >= {"shadow_agreement", "rolling_f1", "psi"}
    assert 'drift_score{monitor="shadow_agreement"}' in text
    assert "serve_shadow_agreement_rolling" in text
    assert "serve_feedback_total 8" in text


def test_drift_monitors_off_by_default(models, generator):
    with _service(models) as service:
        service.submit(generator.sample_app())
        assert service.drain(60.0)
        health = service.healthz()
    assert service.drift_monitors is None
    assert health["drift"] is None
    assert health["shadow_agreement"]["rolling"] is None


def test_record_feedback_only_counts_terminal_done(models, generator):
    apk = generator.sample_app()
    with _service(models, drift_monitors=True) as service:
        # Unknown md5 and non-terminal states record nothing.
        miss = service.record_feedback("ffffffff", True)
        assert miss == {
            "md5": "ffffffff",
            "recorded": False,
            "predicted": None,
            "actual": True,
        }
        service.submit(apk)
        assert service.drain(60.0)
        verdict = service.result(apk.md5)["malicious"]
        hit = service.record_feedback(apk.md5, not verdict)
    assert hit["recorded"] and hit["predicted"] == verdict
    assert service.metrics.value("serve_feedback_total") == 1
    assert service.drift_monitors.f1.samples == 1


def test_no_verdictless_done_between_wal_and_publish(models, generator):
    """A poll racing the dispatcher never sees ``done`` without a verdict.

    ``mark_done`` writes the done record and publishes the outcome in
    one step under the queue lock, so a read right after it returns
    the full outcome.
    """
    apps = [generator.sample_app() for _ in range(6)]
    seen = []
    with _service(models) as service:
        mark_done = service.queue.mark_done

        def racing_mark_done(entry, outcome):
            mark_done(entry, outcome)
            seen.append(service.result(entry.md5))
            seen.append(service.explain(entry.md5))

        service.queue.mark_done = racing_mark_done
        for apk in apps:
            service.submit(apk)
        assert service.drain(60.0)
    assert len(seen) == 2 * len(apps)
    for answer in seen:
        assert answer["status"] == "done"
        assert answer["malicious"] in (True, False)
    for apk in apps:
        outcome = service.result(apk.md5)
        assert outcome["status"] == "done" and "malicious" in outcome


def test_mark_done_between_lookups_never_answers_verdictless_done(
    models, generator, monkeypatch
):
    """Publish an outcome in the middle of every status lookup: a poll
    that missed the outcome and then asked for the status would answer
    ``done`` with no verdict."""
    apps = [generator.sample_app() for _ in range(4)]
    service = _service(models)
    entries = {apk.md5: service.queue.submit(apk) for apk in apps}
    for _ in apps:
        service.queue.take(timeout=0)
    status = SubmissionQueue.status

    def publish_first(queue, md5):
        entry = entries.pop(md5, None)
        if entry is not None:
            queue.mark_done(entry, {"md5": md5, "status": "done",
                                    "malicious": False})
        return status(queue, md5)

    monkeypatch.setattr(SubmissionQueue, "status", publish_first)
    try:
        for apk in apps:
            for answer in (service.result(apk.md5), service.explain(apk.md5)):
                assert answer["status"] in ("in_flight", "done"), answer
                if answer["status"] == "done":
                    assert answer.get("malicious") is False, answer
        for md5 in list(entries):
            service.queue.status(md5)  # publishes
            assert service.result(md5)["malicious"] is False
            assert service.explain(md5)["malicious"] is False
    finally:
        service.close()


def test_batched_explanations_equal_per_app_ones(models, generator):
    """One rules call per micro-batch explains each app as if alone."""
    from repro.rules import RuleEvaluator

    apps = [generator.sample_app(malicious=True) for _ in range(8)]
    service = _service(models, batch_size=8)
    for apk in apps:  # queued before start: one micro-batch
        service.submit(apk)
    with service:
        assert service.drain(60.0)
    checker = models.active_checker()
    with service.rulesets.lease() as (_, specs):
        evaluator = RuleEvaluator.from_specs(
            specs, checker.sdk, tracked_api_ids=checker.key_api_ids
        )
    flagged = 0
    for apk in apps:
        outcome = service.result(apk.md5)
        assert outcome["status"] == "done"
        if not outcome["malicious"]:
            assert outcome["explanation"] is None
            continue
        flagged += 1
        alone = evaluator.evaluate([service.cache.get(apk.md5)])[0]
        assert outcome["explanation"] == alone.to_dict()
    assert flagged >= 2
    metrics = service.metrics
    assert metrics.value("serve_batches_total") == 1
    assert metrics.value("rules_batches_total") == 1
    assert metrics.value("rules_evaluations_total") == flagged


def _slot_threads():
    return {
        t for t in threading.enumerate() if t.name.startswith("vetting-slot")
    }


def test_roll_model_rebuilds_the_slot_pool_and_close_ends_it(
    models, fitted_checker, generator
):
    """One pool per served engine: a model swap closes the old pool,
    later verdicts carry the new version, and close() ends the rest."""
    models.publish(fitted_checker)
    before = _slot_threads()
    first, second = generator.sample_app(), generator.sample_app()
    with _service(models) as service:
        service.submit(first)
        assert service.drain(60.0)
        assert service.result(first.md5)["model_version"] == 1
        first_pool = _slot_threads() - before
        assert first_pool
        service.roll_model(2)
        service.submit(second)
        assert service.drain(60.0)
        assert service.result(second.md5)["model_version"] == 2
        assert not any(t.is_alive() for t in first_pool)
        pool = _slot_threads() - before
        assert pool
    assert not any(t.is_alive() for t in pool | first_pool)


def test_stopped_service_restarts_and_still_vets(models, generator):
    first, second = generator.sample_app(), generator.sample_app()
    service = _service(models)
    try:
        service.start()
        service.submit(first)
        assert service.drain(60.0)
        service.stop()
        assert not service.running
        service.start()
        service.submit(second)
        assert service.drain(60.0)
        assert service.result(second.md5)["status"] == "done"
    finally:
        service.close()


def test_failed_analysis_outcome_carries_its_reason(models, generator):
    from repro.emulator.backends import GoogleEmulator

    class AlwaysCrashing(GoogleEmulator):
        def crash_probability(self, apk):
            return 1.0

    engine = models.active_checker().production_engine
    saved = engine.primary, engine.fallback
    engine.primary, engine.fallback = AlwaysCrashing(), None
    apk = generator.sample_app()
    try:
        with _service(models) as service:
            service.submit(apk)
            assert service.drain(60.0)
    finally:
        engine.primary, engine.fallback = saved
    outcome = service.result(apk.md5)
    assert outcome["status"] == "failed"
    assert outcome["reason"].startswith(
        f"all backends failed for {apk.package_name}: "
    )
    assert service.metrics.value("serve_failed_total") == 1


@pytest.mark.parametrize("rate", [1e308], ids=["1e308"])
def test_poisoned_submission_fails_alone(
    tmp_path, models, generator, poisoned_record, rate
):
    poisoned = apk_from_dict(poisoned_record(rate))
    mates = [generator.sample_app() for _ in range(2)]
    spool = tmp_path / "spool"
    service = _service(models, spool_dir=spool)
    # Queued before the dispatcher starts: one micro-batch holds the
    # poisoned app between two normal ones.
    for apk in (mates[0], poisoned, mates[1]):
        service.submit(apk)
    with service:
        assert service.drain(60.0)
        later = generator.sample_app()
        service.submit(later)
        assert service.drain(60.0), "the dispatcher stopped"
        assert service.running
    outcome = service.result(poisoned.md5)
    assert outcome["status"] == "failed"
    assert "OverflowError" in outcome["reason"]
    for apk in (*mates, later):
        assert service.result(apk.md5)["status"] == "done"
    # The failed outcome is in the WAL: a restart serves it as is.
    restarted = _service(models, spool_dir=spool)
    try:
        assert restarted.result(poisoned.md5) == outcome
    finally:
        restarted.close()
