"""Observability under concurrency: exact counters at any worker count.

The registry is the measurement backbone for the scaling work; these
tests pin that N-worker pipeline runs produce *exact, deterministic*
counter totals — cache hits + emulations == submissions — and that
histogram counts only ever grow.
"""

import pytest

from repro.core.engine import DynamicAnalysisEngine, EngineStats
from repro.core.pipeline import ObservationCache, VettingPipeline
from repro.obs import MetricsRegistry, SpanSink

N_APPS = 40
DUPLICATES = 10


@pytest.fixture()
def apps(generator):
    batch = [generator.sample_app(malicious=i % 5 == 0)
             for i in range(N_APPS)]
    # Resubmission traffic: the tail repeats the head's md5s.
    return batch + batch[:DUPLICATES]


def _run(sdk, apps, workers, cache=None, sink=None):
    registry = MetricsRegistry()
    engine = DynamicAnalysisEngine(
        sdk, [], seed=9, registry=registry, sink=sink
    )
    pipeline = VettingPipeline(
        engine, workers=workers, cache=cache, registry=registry
    )
    result = pipeline.run(apps)
    return registry, result


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_counters_conserve_submissions(sdk, apps, workers):
    registry, result = _run(sdk, apps, workers,
                            cache=ObservationCache())
    counts = registry.counters()
    assert counts["pipeline_submissions_total"] == len(apps)
    assert (
        counts["pipeline_analyzed_total"]
        + counts.get("pipeline_cached_total", 0)
        + counts.get("pipeline_failed_total", 0)
        == counts["pipeline_submissions_total"]
    )
    # Within-batch duplicates are served from the cache, exactly.
    assert counts["pipeline_analyzed_total"] == N_APPS
    assert counts["pipeline_cached_total"] == DUPLICATES
    # Registry counters agree with the result's own counts.
    d = result.as_dict()
    assert counts["pipeline_analyzed_total"] == d["analyzed"]
    assert counts["pipeline_cached_total"] == d["cached"]
    assert counts["pipeline_cache_hits_total"] == d["cache_hits"]
    assert counts["pipeline_cache_misses_total"] == d["cache_misses"]


def test_counter_totals_identical_across_worker_counts(sdk, apps):
    snapshots = []
    for workers in (1, 2, 5):
        registry, _ = _run(sdk, apps, workers, cache=ObservationCache())
        # Every counter — including the simulated-minute totals — is a
        # pure function of the submissions, never of the pool size.
        snapshots.append(registry.counters())
    # Exact for every integer counter; approx only absorbs float
    # summation order in the *_minutes totals.
    assert snapshots[1] == pytest.approx(snapshots[0])
    assert snapshots[2] == pytest.approx(snapshots[0])


def test_engine_stats_view_matches_registry(sdk, apps):
    registry, result = _run(sdk, apps, 4)
    engine_stats = EngineStats.from_registry(registry)
    assert engine_stats.settled
    assert engine_stats.analyzed == result.n_analyzed
    assert engine_stats.submissions == len(apps)  # no cache: all emulate
    assert engine_stats.as_dict()["analyzed"] == engine_stats.analyzed


def test_histograms_are_monotone_across_runs(sdk, apps):
    registry = MetricsRegistry()
    engine = DynamicAnalysisEngine(sdk, [], seed=9, registry=registry)
    pipeline = VettingPipeline(engine, workers=4, registry=registry)
    counts = []
    for _ in range(3):
        pipeline.run(apps)
        counts.append(
            {
                name: registry.histogram_count(name)
                for name in (
                    "pipeline_task_minutes",
                    "pipeline_queue_wait_seconds",
                    "pipeline_slot_seconds",
                    "engine_attempt_seconds",
                    "engine_emulation_minutes",
                    "pipeline_run_seconds",
                )
            }
        )
    for before, after in zip(counts, counts[1:]):
        for name in before:
            assert after[name] >= before[name], name
    # Every run emulates each app at least once (no cache attached).
    assert counts[-1]["pipeline_task_minutes"] >= 3 * len(apps)
    assert counts[-1]["pipeline_run_seconds"] == 3


def test_parallel_sink_captures_every_task_span(sdk, apps):
    sink = SpanSink(capacity=100_000)
    registry, result = _run(sdk, apps, 6, sink=sink)
    task_events = [e for e in sink.events("pipeline_task")]
    assert len(task_events) == result.n_analyzed
    assert all(e.clock == "sim" for e in task_events)
    # The recorded sim spans cover exactly the executed timeline.
    total_span_minutes = sum(e.duration for e in task_events)
    total_busy = float(result.schedule.slot_busy_minutes.sum())
    assert total_span_minutes == pytest.approx(total_busy)
