"""Tests for the versioned model registry (hot swap, shadow scoring)."""

import copy
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serve.registry import (
    IntegrityError,
    ModelRegistry,
    PromotionPolicy,
    RWLock,
)


@pytest.fixture()
def observations(fitted_checker, generator):
    apps = [generator.sample_app() for _ in range(30)]
    return fitted_checker.production_engine.observations(apps)


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(
        fitted_checker, metadata={"source": "test"}, activate=True
    )
    return registry


def _disagreeing_copy(checker):
    """A fitted model that flags everything (maximal verdict skew)."""
    clone = copy.copy(checker)
    clone.decision_threshold = 1e-9
    return clone


def test_publish_assigns_versions_and_persists(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "m")
    v1 = registry.publish(fitted_checker, metadata={"month": 0})
    v2 = registry.publish(fitted_checker)
    assert (v1.version, v2.version) == (1, 2)
    assert (tmp_path / "m" / v1.filename).exists()
    assert (tmp_path / "m" / "manifest.json").exists()
    assert registry.active_version is None  # publish alone never serves
    assert v1.metadata == {"month": 0}


def test_publish_requires_fitted_checker(tmp_path, sdk):
    from repro.core.checker import ApiChecker

    registry = ModelRegistry(tmp_path / "m")
    with pytest.raises(RuntimeError):
        registry.publish(ApiChecker(sdk))


def test_load_round_trips_verdicts(models, fitted_checker, generator):
    apps = [generator.sample_app() for _ in range(5)]
    loaded = models.load(1)
    for apk in apps:
        assert loaded.vet_batch([apk])[0].probability == pytest.approx(
            fitted_checker.vet_batch([apk])[0].probability
        )


def test_load_unknown_version(models):
    with pytest.raises(KeyError, match="unknown model version"):
        models.load(42)


def test_tampered_artifact_fails_integrity_check(models):
    artifact = models.root / models.versions[1].filename
    blob = bytearray(artifact.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    artifact.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="hash mismatch"):
        models.load(1)


def test_activate_swaps_and_archives_previous(models, fitted_checker):
    models.publish(fitted_checker, activate=True)
    assert models.active_version == 2
    assert models.versions[1].state == "archived"
    assert models.versions[2].state == "active"
    assert models.metrics.value("serve_model_swaps_total") == 2
    assert models.metrics.value("serve_active_model_version") == 2


def test_reopen_restores_active_and_shadow(tmp_path, fitted_checker):
    root = tmp_path / "m"
    registry = ModelRegistry(root)
    registry.publish(fitted_checker, activate=True)
    registry.publish(fitted_checker)
    registry.stage_shadow(2)

    reopened = ModelRegistry(root)
    assert reopened.active_version == 1
    assert reopened.shadow_version == 2
    assert reopened.active_checker() is not None


def test_score_without_active_model(tmp_path, observations):
    registry = ModelRegistry(tmp_path / "m")
    with pytest.raises(RuntimeError, match="no active model"):
        registry.score_batch(observations[:1])


def test_shadow_agreement_tally(models, fitted_checker, observations):
    models.publish(fitted_checker)
    models.stage_shadow(2)
    version, _, shadow_version, agreed = models.score_batch(observations[:10])
    assert version == 1
    assert shadow_version == 2
    assert agreed == [True] * 10  # identical model always agrees
    n, agree, rate = models.shadow_agreement()
    assert (n, agree, rate) == (10, 10, 1.0)
    assert models.metrics.value("serve_shadow_agree_total") == 10
    assert models.metrics.value("serve_shadow_agreement_rate") == 1.0


def test_shadow_disagreement_is_counted(models, fitted_checker, observations):
    models.publish(_disagreeing_copy(fitted_checker))
    models.stage_shadow(2)
    models.score_batch(observations)
    n, agree, rate = models.shadow_agreement()
    assert n == len(observations)
    assert rate < 0.9  # flag-everything must disagree on benign traffic
    assert models.metrics.value("serve_shadow_disagree_total") == n - agree


def test_promotion_requires_samples(models, fitted_checker, observations):
    models.publish(fitted_checker)
    models.stage_shadow(2)
    models.score_batch(observations[:3])
    decision = models.promote(PromotionPolicy(min_samples=20))
    assert not decision.promoted
    assert "insufficient" in decision.reason
    # No-data no-swap: the shadow stays staged to gather more samples.
    assert models.shadow_version == 2
    assert models.active_version == 1


def test_promotion_on_agreement(models, fitted_checker, observations):
    models.publish(fitted_checker)
    models.stage_shadow(2)
    models.score_batch(observations)
    decision = models.promote(
        PromotionPolicy(min_agreement=0.9, min_samples=10)
    )
    assert decision.promoted and decision.agreement == 1.0
    assert models.active_version == 2
    assert models.shadow_version is None
    assert models.versions[2].state == "active"
    assert models.metrics.value("serve_promotions_total") == 1
    assert models.decisions[-1].promoted


def test_rollback_on_disagreement(models, fitted_checker, observations):
    models.publish(_disagreeing_copy(fitted_checker))
    models.stage_shadow(2)
    models.score_batch(observations)
    decision = models.promote(
        PromotionPolicy(min_agreement=0.95, min_samples=10)
    )
    assert not decision.promoted
    assert models.active_version == 1  # the active model keeps serving
    assert models.shadow_version is None
    assert models.versions[2].state == "rejected"
    assert models.metrics.value("serve_rollbacks_total") == 1

    # The decision is manifest-durable: a reopened registry knows why.
    reopened = ModelRegistry(models.root)
    assert len(reopened.decisions) == 1
    assert not reopened.decisions[0].promoted
    assert reopened.versions[2].state == "rejected"


def test_promotion_without_shadow(models):
    with pytest.raises(RuntimeError, match="no shadow"):
        models.promote()


def test_hot_swap_never_yields_mixed_versions(
    models, fitted_checker, observations
):
    """Concurrent scoring during repeated swaps stays version-consistent.

    Scorer threads hammer :meth:`ModelRegistry.score_batch` while the main
    thread keeps flipping the active version; every scored submission
    must carry one coherent ``(model_version, shadow_version)`` pair —
    never a half-swapped state — and shadow verdicts must come from the
    version staged at lease time.
    """
    models.publish(fitted_checker)  # v2, swap target
    models.publish(fitted_checker)  # v3, shadow
    models.stage_shadow(3)

    stop = threading.Event()
    scored: list = []
    errors: list[Exception] = []

    def scorer():
        i = 0
        try:
            while not stop.is_set():
                scored.append(
                    models.score_batch([observations[i % len(observations)]])
                )
                i += 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=scorer) for _ in range(4)]
    for t in threads:
        t.start()
    for _ in range(6):
        models.activate(2)
        models.activate(1)
    stop.set()
    for t in threads:
        t.join(10.0)
    assert not errors
    assert len(scored) > 0
    for version, _, shadow_version, agreed in scored:
        assert version in (1, 2)
        # stage_shadow(3) persists across swaps of the active slot,
        # except transiently when the activated version IS the shadow
        # (not the case here), so the pair must always be coherent.
        assert shadow_version == 3
        assert agreed is not None
    assert models.active_version == 1


def test_rwlock_writer_blocks_new_readers():
    lock = RWLock()
    order: list[str] = []
    lock.acquire_read()
    writer_in = threading.Event()

    def writer():
        with lock.write():
            order.append("writer")
            writer_in.set()

    def late_reader():
        with lock.read():
            order.append("reader")

    w = threading.Thread(target=writer)
    w.start()
    # Give the writer time to start waiting on the held read lock.
    import time

    time.sleep(0.05)
    r = threading.Thread(target=late_reader)
    r.start()
    time.sleep(0.05)
    # Writer preference: the late reader must queue behind the writer.
    assert order == []
    lock.release_read()
    w.join(5.0)
    r.join(5.0)
    assert order == ["writer", "reader"]
