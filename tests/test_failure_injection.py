"""Failure-injection tests: the reliability plumbing under stress.

The paper's production system must analyze *every* submitted app
(§5.1): incompatible apps fall back, crashes are detected and retried,
and the operator notices nothing.  These tests inject faults at each
layer and check the system degrades the way the paper describes.
"""

import numpy as np
import pytest

from repro.core.engine import AnalysisFailure, DynamicAnalysisEngine
from repro.core.pipeline import ObservationCache, VettingPipeline
from repro.emulator.backends import (
    EmulatorCrash,
    GoogleEmulator,
    IncompatibleAppError,
    LightweightEmulator,
)


class FlakyBackend(GoogleEmulator):
    """Crashes the first ``n_failures`` attempts, then succeeds."""

    def __init__(self, n_failures):
        self.n_failures = n_failures
        self.attempts = 0

    def crash_probability(self, apk):
        self.attempts += 1
        return 1.0 if self.attempts <= self.n_failures else 0.0


class RefusingBackend(LightweightEmulator):
    """Rejects every app (simulates total Android-x86 incompatibility)."""

    def compatible(self, apk):
        return False


def test_crash_then_success_charges_wasted_time(sdk, generator):
    backend = FlakyBackend(n_failures=1)
    engine = DynamicAnalysisEngine(
        sdk, [], primary=backend, fallback=None, max_retries=2, seed=1
    )
    analysis = engine.analyze(generator.sample_app(malicious=False))
    assert analysis.attempts == 2
    assert analysis.total_minutes > analysis.result.analysis_minutes


def test_primary_crashloop_falls_back(sdk, generator):
    primary = FlakyBackend(n_failures=99)
    engine = DynamicAnalysisEngine(
        sdk, [], primary=primary, fallback=GoogleEmulator(),
        max_retries=1, seed=2,
    )
    analysis = engine.analyze(generator.sample_app(malicious=False))
    assert analysis.fell_back
    assert analysis.result.backend_name == "google-emulator"
    # 2 failed primary attempts + 1 fallback success.
    assert analysis.attempts == 3


def test_every_app_analyzed_despite_refusing_primary(sdk, generator):
    engine = DynamicAnalysisEngine(
        sdk, [], primary=RefusingBackend(), fallback=GoogleEmulator(),
        seed=3,
    )
    apps = [generator.sample_app(malicious=False) for _ in range(10)]
    analyses = engine.analyze_corpus(apps)
    assert len(analyses) == 10
    assert all(a.fell_back for a in analyses)
    assert engine.stats_view.fallbacks == 10


def test_refusing_primary_without_fallback_raises(sdk, generator):
    engine = DynamicAnalysisEngine(
        sdk, [], primary=RefusingBackend(), fallback=None, seed=4
    )
    with pytest.raises(RuntimeError, match="all backends failed"):
        engine.analyze(generator.sample_app(malicious=False))


def test_crash_stats_accumulate(sdk, generator):
    backend = FlakyBackend(n_failures=3)
    engine = DynamicAnalysisEngine(
        sdk, [], primary=backend, fallback=GoogleEmulator(),
        max_retries=2, seed=5,
    )
    engine.analyze(generator.sample_app(malicious=False))
    assert engine.stats_view.crashes == 3


def test_checker_vet_survives_flaky_production_engine(
    fitted_checker, generator
):
    """Swap a flaky primary into a fitted checker; vetting still works."""
    engine = fitted_checker._prod_engine
    original = engine.primary
    try:
        engine.primary = FlakyBackend(n_failures=1)
        verdict = fitted_checker.vet_batch([generator.sample_app(malicious=True)])[0]
        assert verdict.analysis_minutes > 0
    finally:
        engine.primary = original


def test_corrupt_observation_rejected_by_encoder(sdk, fitted_checker):
    """Feature space ignores out-of-universe identifiers rather than
    exploding — logs from newer SDKs must not crash old models."""
    from repro.core.features import AppObservation

    obs = AppObservation(
        apk_md5="corrupt",
        invoked_api_ids=(10**9,),
        permissions=("future.permission.UNKNOWN",),
        intents=("future.intent.UNKNOWN",),
    )
    vec = fitted_checker.feature_space.encode(obs)
    assert vec.sum() == 0


def test_emulator_crash_is_runtime_error_subclass():
    assert issubclass(EmulatorCrash, RuntimeError)
    assert issubclass(IncompatibleAppError, RuntimeError)
    assert issubclass(AnalysisFailure, RuntimeError)


# -- engine stats invariants ----------------------------------------------


def test_stats_invariant_covers_exhausted_apps(sdk, generator):
    """Regression: apps that exhaust every backend vanished from the
    stats entirely; now analyzed + failures == submissions always."""

    class Broken(GoogleEmulator):
        def crash_probability(self, apk):
            return 1.0

    engine = DynamicAnalysisEngine(
        sdk, [], primary=Broken(), fallback=None, max_retries=0, seed=6
    )
    apps = [generator.sample_app(malicious=False) for _ in range(5)]
    failures = 0
    for apk in apps:
        try:
            engine.analyze(apk)
        except AnalysisFailure:
            failures += 1
    assert failures == 5
    assert engine.stats_view.submissions == 5
    assert engine.stats_view.failures == 5
    assert engine.stats_view.analyzed == 0
    assert (
        engine.stats_view.analyzed + engine.stats_view.failures
        == engine.stats_view.submissions
    )


def test_stats_invariant_on_mixed_outcomes(sdk, generator):
    engine = DynamicAnalysisEngine(
        sdk, [], primary=FlakyBackend(n_failures=2), fallback=None,
        max_retries=0, seed=7,
    )
    apps = [generator.sample_app(malicious=False) for _ in range(6)]
    outcomes = []
    for apk in apps:
        try:
            outcomes.append(engine.analyze(apk))
        except AnalysisFailure:
            outcomes.append(None)
    assert engine.stats_view.submissions == 6
    assert (
        engine.stats_view.analyzed + engine.stats_view.failures
        == engine.stats_view.submissions
    )
    assert engine.stats_view.analyzed == sum(
        1 for o in outcomes if o is not None
    )


# -- parallel crash injection ---------------------------------------------


class CrashProneBackend(LightweightEmulator):
    """Every attempt crashes with the forced probability (rng-driven,
    so outcomes are a pure function of the per-app stream)."""

    def __init__(self, rate):
        super().__init__()
        self.rate = rate

    def crash_probability(self, apk):
        return self.rate


class SelectiveBackend(LightweightEmulator):
    """Deterministically rejects a slice of the md5 space."""

    def compatible(self, apk):
        return int(apk.md5[:2], 16) % 3 != 0


class AlwaysCrashing(GoogleEmulator):
    def crash_probability(self, apk):
        return 1.0


@pytest.fixture()
def day(generator):
    return [generator.sample_app(malicious=bool(i % 4 == 0))
            for i in range(24)]


def test_parallel_requeue_matches_sequential_under_crashes(sdk, day):
    def build():
        return DynamicAnalysisEngine(
            sdk,
            [],
            primary=CrashProneBackend(rate=0.5),
            fallback=GoogleEmulator(),
            max_retries=1,
            seed=8,
        )

    sequential = build().analyze_corpus(day)
    engine = build()
    result = VettingPipeline(engine, workers=6).run(day)
    assert not result.failures
    assert [a.observation for a in result.analyses] == [
        a.observation for a in sequential
    ]
    # With a 50% crash rate some apps must have been requeued, and the
    # crash counter agrees between execution modes.
    assert result.requeues > 0
    assert engine.stats_view.crashes > 0
    assert (
        engine.stats_view.analyzed + engine.stats_view.failures
        == engine.stats_view.submissions
        == len(day)
    )


def test_parallel_fallback_on_incompatible_apps(sdk, day):
    engine = DynamicAnalysisEngine(
        sdk, [], primary=SelectiveBackend(), fallback=GoogleEmulator(),
        seed=9,
    )
    result = VettingPipeline(engine, workers=5).run(day)
    assert not result.failures
    rejected = [a for a in day if not SelectiveBackend().compatible(a)]
    fell_back = [r for r in result.analyses if r.fell_back]
    assert len(fell_back) >= len(rejected) > 0
    for apk, analysis in zip(day, result.analyses):
        if not SelectiveBackend().compatible(apk):
            assert analysis.fell_back
            assert analysis.result.backend_name == "google-emulator"


def test_parallel_all_backends_failed_is_isolated(sdk, day):
    """A poisoned app must not take the batch down: the pipeline
    records the failure and every other app still completes."""
    engine = DynamicAnalysisEngine(
        sdk, [], primary=AlwaysCrashing(), fallback=None,
        max_retries=0, seed=10,
    )
    result = VettingPipeline(engine, workers=4).run(day)
    assert len(result.failures) == len(day)
    assert all(a is None for a in result.analyses)
    assert result.observations == []
    assert engine.stats_view.failures == len(day)
    assert (
        engine.stats_view.analyzed + engine.stats_view.failures
        == engine.stats_view.submissions
    )
    for failure in result.failures:
        assert "all backends failed" in failure.reason


def test_failed_duplicates_in_one_batch_emulate_once(sdk, day):
    """Copies of a poisoned md5 run its chain once, yet each copy
    gets its own failure at its own index."""
    engine = DynamicAnalysisEngine(
        sdk, [], primary=AlwaysCrashing(), fallback=None,
        max_retries=0, seed=10,
    )
    registry = engine.registry
    batch = [day[0], day[1], day[0], day[0]]
    result = VettingPipeline(
        engine, workers=4, cache=ObservationCache()
    ).run(batch)
    assert engine.stats_view.submissions == 2
    assert engine.stats_view.failures == 2
    assert [f.app_index for f in result.failures] == [0, 1, 2, 3]
    by_index = {f.app_index: f for f in result.failures}
    assert by_index[2].reason == by_index[3].reason == by_index[0].reason
    assert {by_index[i].apk_md5 for i in (0, 2, 3)} == {day[0].md5}
    assert result.cache_hits == 2 and result.cache_misses == 2
    assert (
        registry.value("pipeline_analyzed_total")
        + registry.value("pipeline_cached_total")
        + registry.value("pipeline_failed_total")
        == registry.value("pipeline_submissions_total")
        == len(batch)
    )


def test_parallel_partial_failures_keep_indices_aligned(sdk, day):
    """Failed apps leave holes at their indices, never shift others."""

    class CrashForSomeApps(GoogleEmulator):
        def crash_probability(self, apk):
            return 1.0 if int(apk.md5[:2], 16) % 4 == 0 else 0.0

    engine = DynamicAnalysisEngine(
        sdk, [], primary=CrashForSomeApps(), fallback=None,
        max_retries=0, seed=11,
    )
    result = VettingPipeline(engine, workers=6).run(day)
    doomed = {i for i, a in enumerate(day)
              if int(a.md5[:2], 16) % 4 == 0}
    assert doomed, "expected at least one doomed app in the sample"
    failed = {f.app_index for f in result.failures}
    assert failed == doomed
    for i, analysis in enumerate(result.analyses):
        if i in doomed:
            assert analysis is None
        else:
            assert analysis is not None
            assert analysis.observation.apk_md5 == day[i].md5
