"""Tests for the vetting service and FP/FN triage."""

import numpy as np
import pytest

from repro.core.triage import (
    BARELY_USES_KEYS_MAX,
    TriageCenter,
)
from repro.core.vetting import VettingService
from repro.corpus.generator import CorpusGenerator


@pytest.fixture()
def service(fitted_checker):
    return VettingService(fitted_checker)


def test_service_requires_fitted_checker(sdk):
    from repro.core.checker import ApiChecker

    with pytest.raises(RuntimeError):
        VettingService(ApiChecker(sdk))


def test_process_day_report(service, sdk, catalog):
    gen = CorpusGenerator(sdk, seed=500, catalog=catalog)
    day = gen.generate(60, malware_rate=0.15)
    report = service.process_day(day, true_labels=day.labels)
    assert report.n_apps == 60
    assert report.n_flagged == sum(v.malicious for v in report.verdicts)
    assert report.mean_minutes > 0
    assert report.max_minutes >= report.median_minutes
    assert report.schedule.makespan_minutes > 0
    assert report.fp_report is not None
    assert service.days_processed == 1


def test_process_day_without_labels_skips_triage(service, sdk, catalog):
    gen = CorpusGenerator(sdk, seed=501, catalog=catalog)
    day = gen.generate(20)
    report = service.process_day(day)
    assert report.fp_report is None


def test_process_day_rejects_empty(service, sdk):
    from repro.corpus.generator import AppCorpus

    with pytest.raises(ValueError):
        service.process_day(AppCorpus(sdk, []))


def test_cache_false_disables_the_cache(fitted_checker, sdk, catalog):
    service = VettingService(fitted_checker, cache=False)
    assert service.cache is None
    day = CorpusGenerator(sdk, seed=509, catalog=catalog).generate(12)
    report = service.process_day(day)
    assert report.n_apps == 12
    assert report.cache_hits == report.cache_misses == 0


def test_second_day_served_from_cache(fitted_checker, sdk, catalog):
    """Resubmitted md5s are reported as cache hits and not re-emulated."""
    from repro.corpus.generator import AppCorpus

    service = VettingService(fitted_checker, cache=True)
    gen = CorpusGenerator(sdk, seed=508, catalog=catalog)
    day1 = gen.generate(30)
    report1 = service.process_day(day1)
    assert report1.cache_hits == 0

    engine = fitted_checker.production_engine
    analyzed_before = engine.stats_view.analyzed
    resubmitted = list(day1)[:20]
    novel = [gen.sample_app(malicious=False) for _ in range(5)]
    day2 = AppCorpus(sdk, resubmitted + novel)
    report2 = service.process_day(day2)
    assert report2.cache_hits == 20
    # Only the 5 novel apps touched an emulator.
    assert engine.stats_view.analyzed - analyzed_before == 5
    # Cached verdicts match day 1's for the same apps.
    day1_by_md5 = {v.apk_md5: v for v in report1.verdicts}
    for verdict in report2.verdicts[:20]:
        original = day1_by_md5[verdict.apk_md5]
        assert verdict.malicious == original.malicious
        assert verdict.probability == original.probability


def test_process_day_without_cache_reemulates(service, sdk, catalog):
    gen = CorpusGenerator(sdk, seed=509, catalog=catalog)
    day = gen.generate(10)
    r1 = service.process_day(day)
    r2 = service.process_day(day)
    assert r1.cache_hits == 0 and r2.cache_hits == 0


def test_throughput_scales_with_slots(service, sdk, catalog):
    gen = CorpusGenerator(sdk, seed=502, catalog=catalog)
    day = gen.generate(120)
    report = service.process_day(day)
    assert report.throughput_per_day > 1000


# -- triage ---------------------------------------------------------------


def test_triage_key_usage_counts(fitted_checker, sdk, catalog):
    triage = TriageCenter(fitted_checker.key_api_ids)
    gen = CorpusGenerator(sdk, seed=503, catalog=catalog)
    mal = gen.sample_app(archetype="sms_fraud")
    low = gen.sample_app(archetype="news")
    assert triage.key_api_usage(mal) > triage.key_api_usage(low)


def test_triage_flagged_classifies_fp(fitted_checker, sdk, catalog):
    from repro.core.checker import VetVerdict

    triage = TriageCenter(fitted_checker.key_api_ids)
    gen = CorpusGenerator(sdk, seed=504, catalog=catalog)
    apps = [gen.sample_app(malicious=bool(i % 2)) for i in range(6)]
    verdicts = [
        VetVerdict(a.md5, malicious=True, probability=0.9,
                   analysis_minutes=1.0, fell_back=False)
        for a in apps
    ]
    labels = np.array([a.is_malicious for a in apps])
    report = triage.triage_flagged(apps, verdicts, labels)
    assert report.n_flagged == 6
    assert report.n_false_positives == 3
    assert report.n_confirmed_malicious == 3
    assert report.manual_minutes > 0


def test_triage_alignment_validated(fitted_checker):
    triage = TriageCenter(fitted_checker.key_api_ids)
    with pytest.raises(ValueError):
        triage.triage_flagged([], [], np.array([True]))


def test_fn_triage_reports_barely_using_keys(fitted_checker, sdk, catalog):
    triage = TriageCenter(
        fitted_checker.key_api_ids,
        user_report_prob=1.0,
        seed=9,
        exclude_api_ids=sdk.ubiquitous_api_ids,
    )
    gen = CorpusGenerator(sdk, seed=505, catalog=catalog)
    published = [gen.sample_app(archetype="lowkey_spy") for _ in range(15)]
    published += [gen.sample_app(malicious=False) for _ in range(15)]
    labels = np.array([a.is_malicious for a in published])
    report = triage.triage_user_reports(published, labels)
    assert report.n_reports == 15
    assert report.n_confirmed_malicious == 15
    # Low-key spyware barely touches the key APIs (the paper's 87%).
    assert report.barely_uses_keys_fraction > 0.5


def test_fn_triage_probability_bounds(fitted_checker):
    with pytest.raises(ValueError):
        TriageCenter(fitted_checker.key_api_ids, user_report_prob=1.5)


def test_fn_triage_no_reports_when_probability_zero(fitted_checker, sdk, catalog):
    triage = TriageCenter(
        fitted_checker.key_api_ids, user_report_prob=0.0
    )
    gen = CorpusGenerator(sdk, seed=506, catalog=catalog)
    apps = [gen.sample_app(malicious=True) for _ in range(5)]
    report = triage.triage_user_reports(
        apps, np.ones(5, dtype=bool)
    )
    assert report.n_reports == 0
    assert report.barely_uses_keys_fraction == 0.0


def test_update_fast_path(fitted_checker, sdk, catalog):
    from repro.core.checker import VetVerdict

    triage = TriageCenter(fitted_checker.key_api_ids)
    gen = CorpusGenerator(sdk, seed=507, catalog=catalog)
    # Build a benign app and its update; mark the parent as known benign.
    first = gen.sample_app(archetype="tool", update_prob=0.0)
    triage.known_benign_md5s.add(first.md5)
    update = None
    for _ in range(200):
        candidate = gen.sample_app(archetype="tool", update_prob=0.95)
        if candidate.parent_md5 == first.md5:
            update = candidate
            break
    if update is None:
        pytest.skip("no direct update sampled")
    verdict = VetVerdict(update.md5, True, 0.9, 1.0, False)
    report = triage.triage_flagged(
        [update], [verdict], np.array([False])
    )
    assert report.n_fast_vetted == 1
    assert report.manual_minutes < 10
