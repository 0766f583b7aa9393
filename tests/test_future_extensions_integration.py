"""Cross-cutting integration tests for the extension features.

Exercises combinations the individual module tests don't: differential
vetting feeding the triage fast path, histogram encoding inside the
evolution loop, fuzzing exploration inside the production engine, and
analysis logs rebuilding a checker from scratch.
"""

import numpy as np
import pytest

from repro.core.diffvet import DiffVetter
from repro.core.reporting import read_observations, write_log
from repro.corpus.generator import CorpusGenerator
from repro.emulator.monkey import FuzzingExerciser


def test_diffvet_fraction_rises_with_update_share(
    fitted_checker, sdk, catalog
):
    """A market dominated by updates should mostly ride the fast path —
    the economics behind §5.2's '90% of flagged apps are updates'."""
    gen = CorpusGenerator(sdk, seed=801, catalog=catalog)
    vetter = DiffVetter(fitted_checker)
    warmup = [gen.sample_app(malicious=False, update_prob=0.0)
              for _ in range(25)]
    vetter.vet_batch(warmup)
    churn = [gen.sample_app(malicious=False, update_prob=0.97)
             for _ in range(120)]
    decisions = vetter.vet_batch(churn)
    fast = sum(d.fast_path for d in decisions)
    assert fast > 0.3 * len(decisions)


def test_diffvet_agrees_with_full_scans(fitted_checker, sdk, catalog):
    """Fast-path verdicts must match what a full scan would say for
    benign unchanged updates (no silent verdict drift)."""
    gen = CorpusGenerator(sdk, seed=802, catalog=catalog)
    vetter = DiffVetter(fitted_checker)
    apps = [gen.sample_app(malicious=False, update_prob=0.9)
            for _ in range(60)]
    decisions = vetter.vet_batch(apps)
    for apk, decision in zip(apps, decisions):
        if decision.fast_path:
            full = fitted_checker.vet_batch([apk])[0]
            assert decision.verdict.malicious == full.malicious


def test_histogram_checker_through_log_roundtrip(
    sdk, corpus, study_observations, tmp_path
):
    """Analysis logs carry invocation counts, so a histogram-encoded
    checker can be rebuilt purely from released logs."""
    from repro.core.checker import ApiChecker

    path = tmp_path / "study.jsonl"
    write_log(path, study_observations)
    restored = read_observations(path)
    checker = ApiChecker(sdk, feature_encoding="histogram", seed=803)
    checker.fit(corpus, study_observations=restored)
    report = checker.evaluate(corpus.subset(range(100)))
    assert report.f1 > 0.6


def test_fuzzing_engine_improves_feature_completeness(sdk, catalog):
    """Deeper UI coverage surfaces more call sites per app, which is the
    §6 motivation for replacing Monkey."""
    from repro.core.engine import DynamicAnalysisEngine

    gen = CorpusGenerator(sdk, seed=804, catalog=catalog)
    apps = [gen.sample_app(malicious=True) for _ in range(25)]
    monkey_engine = DynamicAnalysisEngine(
        sdk, np.arange(len(sdk)), seed=805
    )
    fuzz_engine = DynamicAnalysisEngine(
        sdk, np.arange(len(sdk)), seed=805
    )
    fuzz_engine.monkey = FuzzingExerciser(n_events=5000, seed=805)
    n_monkey = np.mean(
        [len(a.observation.invoked_api_ids)
         for a in monkey_engine.analyze_corpus(apps)]
    )
    n_fuzz = np.mean(
        [len(a.observation.invoked_api_ids)
         for a in fuzz_engine.analyze_corpus(apps)]
    )
    assert n_fuzz >= n_monkey
