"""Tests for the dynamic analysis engine and the ApiChecker pipeline."""

import numpy as np
import pytest

from repro.core.checker import ApiChecker
from repro.core.engine import DynamicAnalysisEngine
from repro.core.features import FeatureMode
from repro.emulator.backends import (
    EmulatorCrash,
    GoogleEmulator,
    IncompatibleAppError,
    LightweightEmulator,
)


# -- engine --------------------------------------------------------------


def test_engine_analyzes_everything(sdk, corpus):
    engine = DynamicAnalysisEngine(sdk, sdk.restricted_api_ids, seed=1)
    analyses = engine.analyze_corpus(corpus.subset(range(40)))
    assert len(analyses) == 40
    assert engine.stats_view.analyzed == 40
    for a in analyses:
        assert a.total_minutes > 0
        assert a.observation.apk_md5 == a.result.apk_md5


def test_engine_stats_dict_is_removed(sdk, corpus):
    """The deprecated ``engine.stats`` dict property is gone.

    ``stats_view.as_dict()`` keeps the same shape for callers that
    genuinely need a dict (e.g. JSON rendering).
    """
    engine = DynamicAnalysisEngine(sdk, [], seed=1)
    engine.analyze_corpus(corpus.subset(range(3)))
    assert not hasattr(engine, "stats")
    assert engine.stats_view.as_dict()["analyzed"] == 3


def test_engine_falls_back_on_incompatible(sdk, generator):
    class AlwaysIncompatible(LightweightEmulator):
        def compatible(self, apk):
            return False

    engine = DynamicAnalysisEngine(
        sdk, [], primary=AlwaysIncompatible(), seed=2
    )
    analysis = engine.analyze(generator.sample_app(malicious=False))
    assert analysis.fell_back
    assert analysis.result.backend_name == "google-emulator"
    assert engine.stats_view.fallbacks == 1


def test_engine_retries_on_crash(sdk, generator):
    class CrashOnce(GoogleEmulator):
        def __init__(self):
            self.calls = 0

        def crash_probability(self, apk):
            self.calls += 1
            return 1.0 if self.calls == 1 else 0.0

    engine = DynamicAnalysisEngine(
        sdk, [], primary=CrashOnce(), fallback=None, max_retries=1, seed=3
    )
    analysis = engine.analyze(generator.sample_app(malicious=False))
    assert analysis.attempts == 2
    assert engine.stats_view.crashes == 1
    # Wasted crash time is charged to the analysis.
    assert analysis.total_minutes > analysis.result.analysis_minutes


def test_engine_raises_when_everything_fails(sdk, generator):
    class Broken(GoogleEmulator):
        def crash_probability(self, apk):
            return 1.0

    engine = DynamicAnalysisEngine(
        sdk, [], primary=Broken(), fallback=None, max_retries=0, seed=4
    )
    with pytest.raises(RuntimeError):
        engine.analyze(generator.sample_app(malicious=False))


def test_engine_rejects_negative_retries(sdk):
    with pytest.raises(ValueError):
        DynamicAnalysisEngine(sdk, [], max_retries=-1)


# -- checker --------------------------------------------------------------


def test_checker_requires_fit_before_use(sdk, generator):
    checker = ApiChecker(sdk)
    with pytest.raises(RuntimeError):
        checker.vet_batch([generator.sample_app(malicious=False)])[0]
    with pytest.raises(RuntimeError):
        _ = checker.key_api_ids


def test_checker_fit_selects_and_trains(fitted_checker):
    assert fitted_checker.selection is not None
    assert fitted_checker.key_api_ids.size > 100
    assert fitted_checker.classifier is not None


def test_checker_vet_verdict_fields(fitted_checker, generator):
    apk = generator.sample_app(malicious=True)
    verdict = fitted_checker.vet_batch([apk])[0]
    assert verdict.apk_md5 == apk.md5
    assert 0.0 <= verdict.probability <= 1.0
    assert verdict.malicious == (
        verdict.probability >= fitted_checker.decision_threshold
    )
    assert verdict.analysis_minutes > 0


def test_checker_detects_most_malware(fitted_checker, sdk, catalog):
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=991, catalog=catalog)
    fresh = gen.generate(250)
    report = fitted_checker.evaluate(fresh)
    # Small training corpus (300 apps); the paper-scale operating point
    # is asserted by the integration tests at benchmark scale.
    assert report.precision > 0.6
    assert report.recall > 0.6


def test_checker_explicit_key_set_skips_mining(sdk, corpus, study_observations):
    keys = sdk.restricted_api_ids
    checker = ApiChecker(sdk, seed=5)
    checker.fit(
        corpus,
        study_observations=list(study_observations),
        key_api_ids=keys,
    )
    assert checker.selection is None
    assert np.array_equal(checker.key_api_ids, np.sort(keys))


def test_checker_gini_table(fitted_checker):
    table = fitted_checker.gini_table(15)
    assert len(table) == 15
    scores = [s for _, s in table]
    assert scores == sorted(scores, reverse=True)
    kinds = {name.split(":")[0] for name, _ in table}
    assert "API" in kinds


def test_checker_rejects_bad_threshold(sdk):
    with pytest.raises(ValueError):
        ApiChecker(sdk, decision_threshold=1.5)


def test_checker_rejects_misaligned_labels(sdk, corpus):
    checker = ApiChecker(sdk)
    with pytest.raises(ValueError):
        checker.fit(corpus, labels=np.zeros(3, dtype=bool))


def test_vet_time_is_market_grade(fitted_checker, sdk, catalog):
    """Production vetting should take ~1-2 simulated minutes per app."""
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=313, catalog=catalog)
    apps = [gen.sample_app(malicious=False) for _ in range(30)]
    minutes = [fitted_checker.vet_batch([a])[0].analysis_minutes for a in apps]
    assert 0.5 < float(np.mean(minutes)) < 4.0
