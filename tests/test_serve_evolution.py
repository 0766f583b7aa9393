"""Tests for shadow-gated model promotion in the evolution loop."""

import copy

import pytest

from repro.core.evolution import EvolutionLoop
from repro.corpus.market import MarketStream
from repro.obs import MetricsRegistry, set_default_registry
from repro.serve.registry import ModelRegistry, ShadowPromotionGate

EVO_SEED = 4200


@pytest.fixture()
def loop(sdk):
    stream = MarketStream(sdk, apps_per_month=60, seed=EVO_SEED)
    initial = stream.bootstrap_corpus(200)
    return EvolutionLoop(
        stream, initial, max_pool=800, checker_seed=EVO_SEED + 1
    )


@pytest.fixture()
def models(tmp_path, loop):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(
        loop.checker, metadata={"source": "bootstrap"}, activate=True
    )
    return registry


def test_gate_validation(models):
    with pytest.raises(ValueError):
        ShadowPromotionGate(models, min_agreement=0.0)
    with pytest.raises(ValueError):
        ShadowPromotionGate(models, min_samples=0)
    with pytest.raises(ValueError):
        ShadowPromotionGate(models, min_samples=50, max_replay=10)


def test_gate_requires_active_model(tmp_path, loop):
    empty = ModelRegistry(tmp_path / "empty")
    gate = ShadowPromotionGate(empty)
    with pytest.raises(RuntimeError, match="active model"):
        loop.model_gate = gate
        loop.run_month()


def test_monthly_retrain_publishes_new_version(loop, models):
    loop.model_gate = ShadowPromotionGate(
        models, min_agreement=0.5, min_samples=10
    )
    assert len(models.versions) == 1
    record = loop.run_month()
    # The month's candidate landed in the registry as a new version
    # with evolution provenance.
    assert len(models.versions) == 2
    assert models.versions[2].metadata["source"] == "evolution"
    assert models.versions[2].metadata["month"] == 1
    assert models.versions[2].metadata["n_replay"] == 60
    assert record.promotion is not None
    assert record.promotion.candidate_version == 2


def test_promotion_above_threshold_swaps_active(loop, models):
    # Monthly retrains on a stable stream agree heavily with the prior
    # model; a permissive bar promotes.
    loop.model_gate = ShadowPromotionGate(
        models, min_agreement=0.5, min_samples=10
    )
    record = loop.run_month()
    assert record.promotion.promoted
    assert record.promotion.n_scored == 60
    assert models.active_version == 2
    assert record.n_key_apis == loop.checker.key_api_ids.size
    assert models.metrics.value("serve_promotions_total") == 1


def test_rejection_below_threshold_keeps_active_model(loop, models):
    """A candidate that disagrees too much is rolled back and recorded."""
    gate = ShadowPromotionGate(models, min_agreement=0.95, min_samples=10)
    serving_before = loop.checker

    class _Sabotage:
        """Gate wrapper that poisons the candidate's threshold."""

        def __call__(self, candidate, observations, metadata=None):
            poisoned = copy.copy(candidate)
            poisoned.decision_threshold = 1e-9  # flags everything
            return gate(poisoned, observations, metadata=metadata)

    loop.model_gate = _Sabotage()
    record = loop.run_month()
    assert not record.promotion.promoted
    assert "keeping active model" in record.promotion.reason
    # The loop keeps serving the previous model...
    assert loop.checker is serving_before
    # ...the registry active pointer is unchanged...
    assert models.active_version == 1
    # ...and the rollback is recorded for audit.
    assert models.versions[2].state == "rejected"
    assert models.metrics.value("serve_rollbacks_total") == 1
    assert not models.decisions[-1].promoted

    # The month's data was still absorbed: the next (clean) retrain
    # sees it and can be promoted normally.
    loop.model_gate = ShadowPromotionGate(
        models, min_agreement=0.5, min_samples=10
    )
    record2 = loop.run_month()
    assert record2.promotion.promoted
    assert models.active_version == 3


def test_insufficient_samples_keeps_shadow_staged(loop, models):
    loop.model_gate = ShadowPromotionGate(
        models, min_agreement=0.5, min_samples=500
    )
    record = loop.run_month()
    assert not record.promotion.promoted
    assert "insufficient" in record.promotion.reason
    assert models.active_version == 1
    # Not a rejection: the candidate stays staged to gather samples.
    assert models.shadow_version == 2
    assert models.metrics.value("serve_rollbacks_total") == 0


def test_no_gate_preserves_unconditional_swap(loop):
    before = loop.checker
    record = loop.run_month()
    assert record.promotion is None
    assert loop.checker is not before


def test_max_replay_caps_gate_work(loop, models):
    loop.model_gate = ShadowPromotionGate(
        models, min_agreement=0.5, min_samples=10, max_replay=25
    )
    record = loop.run_month()
    assert record.promotion.n_scored == 25
    assert models.versions[2].metadata["n_replay"] == 25


def test_gate_replays_the_month_as_one_batch(tmp_path, loop, models):
    """One scoring call per model for the whole replay, and the same
    decision a one-app-at-a-time replay of the month reaches."""
    gate = ShadowPromotionGate(models, min_agreement=0.5, min_samples=10)
    reference = ModelRegistry(tmp_path / "reference")
    reference.publish(loop.checker, activate=True)
    seen = {}

    def gate_and_reference(candidate, observations, metadata=None):
        version = reference.publish(candidate).version
        reference.stage_shadow(version)
        for observation in observations:
            reference.score_batch([observation])
        seen["per_app"] = reference.promote(gate.policy)
        seen["timings"] = timings = MetricsRegistry()
        previous = set_default_registry(timings)
        try:
            return gate(candidate, observations, metadata=metadata)
        finally:
            set_default_registry(previous)

    loop.model_gate = gate_and_reference
    record = loop.run_month()
    n_replay = models.versions[2].metadata["n_replay"]
    assert n_replay == 60
    timings = seen["timings"]
    assert timings.histogram_count("ml_predict_seconds") == 2
    batched = timings.histogram(
        "ml_predict_seconds", classifier="rf", batch_size=str(n_replay)
    )
    assert batched is not None and batched.count == 2  # active + shadow
    per_app = seen["per_app"]
    assert record.promotion.agreement == per_app.agreement
    assert record.promotion.n_scored == per_app.n_scored == n_replay
    assert record.promotion.promoted == per_app.promoted
    assert record.promotion.reason == per_app.reason
