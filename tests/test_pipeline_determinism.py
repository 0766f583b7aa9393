"""Determinism battery: parallel execution must not change results.

The pipeline's contract is that worker count is purely an execution
detail: per-app randomness is derived from ``(engine seed, apk md5)``,
so sequential, 1-worker, and N-worker runs of the same corpus produce
bit-identical :class:`AppObservation`s, and a :class:`VettingService`
flags exactly the same apps however many slots it spreads the day over.
"""

import numpy as np
import pytest

from repro.core.engine import DynamicAnalysisEngine
from repro.core.pipeline import EMULATOR_SLOTS, VettingPipeline
from repro.core.vetting import VettingService
from repro.corpus.generator import CorpusGenerator

SEEDS = (11, 12, 13)


def _corpus(sdk, catalog, seed, n=30):
    return CorpusGenerator(sdk, seed=seed, catalog=catalog).generate(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_one_worker_n_worker_identical(sdk, catalog, seed):
    corpus = _corpus(sdk, catalog, seed)
    runs = {}
    sequential = DynamicAnalysisEngine(
        sdk, sdk.restricted_api_ids, seed=seed
    ).analyze_corpus(corpus)
    runs["sequential"] = [a.observation for a in sequential]
    for workers in (1, 7):
        engine = DynamicAnalysisEngine(
            sdk, sdk.restricted_api_ids, seed=seed
        )
        result = VettingPipeline(engine, workers=workers).run(corpus)
        assert not result.failures
        runs[f"{workers}-worker"] = [
            a.observation for a in result.analyses
        ]
    for name, observations in runs.items():
        assert observations == runs["sequential"], (
            f"{name} diverged from sequential (seed {seed})"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_rng_independent_of_order(sdk, catalog, seed):
    """An app's observation must not depend on what ran before it."""
    corpus = list(_corpus(sdk, catalog, seed, n=12))
    forward = DynamicAnalysisEngine(
        sdk, sdk.restricted_api_ids, seed=seed
    ).analyze_corpus(corpus)
    backward = DynamicAnalysisEngine(
        sdk, sdk.restricted_api_ids, seed=seed
    ).analyze_corpus(corpus[::-1])
    assert [a.observation for a in backward[::-1]] == [
        a.observation for a in forward
    ]


def test_daily_report_counts_identical_across_worker_counts(
    fitted_checker, sdk, catalog
):
    corpus = _corpus(sdk, catalog, seed=21, n=40)
    reports = []
    for workers in (1, 4, 16):
        service = VettingService(fitted_checker, workers=workers)
        reports.append(service.process_day(corpus))
    baseline = reports[0]
    for report in reports[1:]:
        assert report.n_apps == baseline.n_apps
        assert report.n_flagged == baseline.n_flagged
        flags = [v.malicious for v in report.verdicts]
        assert flags == [v.malicious for v in baseline.verdicts]
        probs = [v.probability for v in report.verdicts]
        assert probs == [v.probability for v in baseline.verdicts]
        assert report.mean_minutes == pytest.approx(baseline.mean_minutes)


def test_pipeline_repeat_run_identical(sdk, catalog):
    """The same pipeline object re-run gives the same answers."""
    corpus = _corpus(sdk, catalog, seed=31, n=20)
    engine = DynamicAnalysisEngine(sdk, sdk.restricted_api_ids, seed=5)
    pipeline = VettingPipeline(engine, workers=5)
    first = pipeline.run(corpus)
    second = pipeline.run(corpus)
    assert [a.observation for a in first.analyses] == [
        a.observation for a in second.analyses
    ]


def test_worker_pool_is_clamped_to_emulator_slots(sdk):
    engine = DynamicAnalysisEngine(sdk, [], seed=0)
    assert EMULATOR_SLOTS == 16
    pipeline = VettingPipeline(engine, workers=64)
    assert pipeline.workers == 16
    default = VettingPipeline(engine)
    assert default.workers == 16


def test_minutes_distribution_matches_sequential(sdk, catalog):
    """Total simulated minutes agree between execution modes."""
    corpus = _corpus(sdk, catalog, seed=41, n=25)
    sequential = DynamicAnalysisEngine(
        sdk, sdk.restricted_api_ids, seed=9
    ).analyze_corpus(corpus)
    engine = DynamicAnalysisEngine(sdk, sdk.restricted_api_ids, seed=9)
    result = VettingPipeline(engine, workers=6).run(corpus)
    seq_minutes = np.array([a.total_minutes for a in sequential])
    par_minutes = np.array([a.total_minutes for a in result.analyses])
    np.testing.assert_allclose(par_minutes, seq_minutes)
    assert result.schedule.slot_busy_minutes.sum() == pytest.approx(
        seq_minutes.sum()
    )
