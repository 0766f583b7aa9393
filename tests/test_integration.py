"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro.core.checker import ApiChecker
from repro.core.features import FeatureMode
from repro.core.vetting import VettingService
from repro.corpus.generator import AppCorpus, CorpusGenerator
from repro.corpus.market import ReviewPipeline


@pytest.fixture(scope="module")
def fresh_eval(sdk, catalog):
    gen = CorpusGenerator(sdk, seed=2026, catalog=catalog)
    return gen.generate(450)


def test_full_pipeline_train_to_vet(fitted_checker, fresh_eval):
    """Train on the study corpus, vet unseen apps, check the shape of
    the paper's headline result: high precision and recall, ~1-2 minute
    scans."""
    verdicts = fitted_checker.vet_batch(fresh_eval)
    predicted = np.array([v.malicious for v in verdicts])
    from repro.ml.metrics import evaluate

    report = evaluate(fresh_eval.labels, predicted)
    # Qualitative at test scale: the shared world is deliberately tiny
    # (1400 APIs), which makes benign/malware API overlap far denser
    # than at paper scale, so recall here is a weak lower bound.  The
    # BENCH-scale benches assert the paper's 98/96 operating point.
    assert report.precision > 0.7
    assert report.recall > 0.5
    minutes = np.array([v.analysis_minutes for v in verdicts])
    assert 0.5 < minutes.mean() < 4.0


def test_market_labels_close_enough_to_train_on(
    sdk, corpus, study_observations
):
    """Training on the review pipeline's (noisy) labels instead of
    ground truth must not collapse accuracy."""
    review = ReviewPipeline(seed=55)
    market_labels = review.label_corpus(corpus)
    checker = ApiChecker(sdk, seed=56)
    checker.fit(
        corpus,
        labels=market_labels,
        study_observations=list(study_observations),
    )
    report = checker.evaluate(corpus)
    assert report.f1 > 0.8


def test_vetting_service_day_cycle(fitted_checker, fresh_eval):
    service = VettingService(fitted_checker)
    day = fresh_eval.subset(range(80))
    report = service.process_day(day, true_labels=day.labels)
    assert report.n_apps == 80
    # A single 16-slot server comfortably sustains market load.
    assert report.throughput_per_day > 3000
    assert report.fp_report is not None
    # Flagged set should be dominated by true malware.
    if report.n_flagged:
        assert (
            report.fp_report.n_confirmed_malicious
            >= report.fp_report.n_false_positives
        )


def test_feature_mode_ablation_ordering(sdk, corpus, study_observations,
                                        fresh_eval):
    """Fig. 10's qualitative claim: auxiliary features never hurt, and
    the full A+P+I combination is at least as good as API-only (within
    the quantization noise of a small evaluation corpus — the paper's
    operating point is asserted at bench scale)."""
    scores = {}
    for mode in (FeatureMode.A, FeatureMode.API):
        checker = ApiChecker(sdk, feature_mode=mode, seed=57)
        checker.fit(corpus, study_observations=list(study_observations))
        scores[mode] = checker.evaluate(fresh_eval).f1
    assert scores[FeatureMode.API] >= scores[FeatureMode.A] - 0.1


def test_hidden_behaviour_recovered_by_auxiliary_features(
    sdk, catalog, corpus, study_observations
):
    """Reflection-heavy malware evades API features but leaves
    permissions behind — A+P+I must catch more of it than A."""
    gen = CorpusGenerator(sdk, seed=2030, catalog=catalog)
    hiders = []
    while len(hiders) < 25:
        apk = gen.sample_app(malicious=True)
        if len(apk.dex.reflection_api_ids) >= 5:
            hiders.append(apk)
    hider_corpus = AppCorpus(sdk, hiders)

    caught = {}
    for mode in (FeatureMode.A, FeatureMode.API):
        checker = ApiChecker(sdk, feature_mode=mode, seed=58)
        checker.fit(corpus, study_observations=list(study_observations))
        verdicts = checker.vet_batch(hider_corpus)
        caught[mode] = sum(v.malicious for v in verdicts)
    # Within one sample of quantization noise at this corpus size.
    assert caught[FeatureMode.API] >= caught[FeatureMode.A] - 1


def test_update_stream_supports_fast_revetting(sdk, catalog):
    """~90% of flagged apps being updates is what makes FP triage cheap;
    check the update machinery produces md5-linked version chains."""
    gen = CorpusGenerator(sdk, seed=2040, catalog=catalog)
    corpus = gen.generate(400, update_fraction=0.9)
    linked = [a for a in corpus if a.parent_md5 is not None]
    assert len(linked) > 0.4 * len(corpus)
    md5s = {a.md5 for a in corpus}
    with_known_parent = [a for a in linked if a.parent_md5 in md5s]
    assert with_known_parent
