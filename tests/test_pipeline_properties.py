"""Property-based invariants for the executed schedule and the pipeline.

Invariants checked (over hypothesis-generated workloads):

* an executed schedule never overlaps two tasks on a slot;
* ``makespan == max(end_minute)`` and busy time is conserved;
* every submitted app appears exactly once in the pipeline's report;
* observation-cache hits never change verdicts;
* ``FeatureBlock.from_observations`` round-trips ``FeatureSpace.encode``
  row for row, for every feature mode and encoding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DynamicAnalysisEngine
from repro.core.features import (
    AppObservation,
    FeatureBlock,
    FeatureMode,
    FeatureSpace,
)
from repro.core.pipeline import (
    ObservationCache,
    ScheduledTask,
    ScheduleReport,
    VettingPipeline,
)
from repro.core.reporting import read_log, write_log


def _assert_no_slot_overlap(report: ScheduleReport) -> None:
    by_slot = {}
    for t in report.tasks:
        by_slot.setdefault(t.slot, []).append(t)
    for tasks in by_slot.values():
        tasks.sort(key=lambda t: t.start_minute)
        for prev, nxt in zip(tasks, tasks[1:]):
            assert nxt.start_minute >= prev.end_minute - 1e-9


def test_from_executed_matches_recorded_tasks():
    tasks = [
        ScheduledTask(app_index=0, slot=0, start_minute=0.0, end_minute=2.0),
        ScheduledTask(app_index=1, slot=1, start_minute=0.0, end_minute=1.0),
        ScheduledTask(app_index=2, slot=1, start_minute=1.0, end_minute=4.0),
    ]
    report = ScheduleReport.from_executed(tasks, n_slots=2)
    assert report.makespan_minutes == 4.0
    assert report.slot_busy_minutes.tolist() == [2.0, 4.0]
    assert report.throughput_per_day() == pytest.approx(3 * 1440 / 4.0)
    assert report.utilization == pytest.approx(3.0 / 4.0)


def test_zero_task_schedule_returns_zero_throughput():
    """Regression: empty batches used to report infinite throughput."""
    report = ScheduleReport.from_executed([], n_slots=16)
    assert report.makespan_minutes == 0.0
    assert report.throughput_per_day() == 0.0
    assert report.utilization == 0.0


# -- executed pipeline schedules ------------------------------------------


@pytest.fixture(scope="module")
def app_pool(sdk, catalog):
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=777, catalog=catalog)
    return [gen.sample_app(malicious=bool(i % 3 == 0)) for i in range(40)]


@given(
    n_apps=st.integers(0, 40),
    workers=st.integers(1, 9),
    seed=st.integers(0, 3),
)
@settings(max_examples=12, deadline=None)
def test_executed_schedule_invariants(sdk, app_pool, n_apps, workers, seed):
    apps = app_pool[:n_apps]
    engine = DynamicAnalysisEngine(sdk, [], seed=seed)
    result = VettingPipeline(engine, workers=workers).run(apps)
    assert not result.failures
    report = result.schedule
    # Every submitted app appears exactly once.
    assert sorted(t.app_index for t in report.tasks) == list(range(n_apps))
    assert len(result.analyses) == n_apps
    assert all(a is not None for a in result.analyses)
    assert report.makespan_minutes == pytest.approx(
        max((t.end_minute for t in report.tasks), default=0.0)
    )
    _assert_no_slot_overlap(report)
    total = sum(a.total_minutes for a in result.analyses)
    assert report.slot_busy_minutes.sum() == pytest.approx(total)
    assert 0.0 <= report.utilization <= 1.0 + 1e-9
    assert report.throughput_per_day() >= 0.0


def test_single_server_handles_10k_apps_per_day(
    fitted_checker, sdk, catalog
):
    # §5.2: one 16-slot server vets ~10K apps/day.  The executed
    # timeline of a 300-app run at the default slot count must carry
    # that pace (shorter runs are dominated by their last app's tail).
    from repro.corpus.generator import CorpusGenerator

    apps = CorpusGenerator(sdk, seed=884, catalog=catalog).generate(300)
    pipeline = VettingPipeline(fitted_checker.production_engine)
    try:
        result = pipeline.run(apps)
    finally:
        pipeline.close()
    assert pipeline.workers == 16
    assert not result.failures
    assert result.schedule.throughput_per_day() > 10_000


def test_cache_hits_never_change_verdicts(fitted_checker, sdk, catalog):
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=881, catalog=catalog)
    day = gen.generate(25)
    cache = ObservationCache()
    engine = fitted_checker.production_engine
    pipeline = VettingPipeline(engine, workers=4, cache=cache)
    first = pipeline.run(day)
    second = pipeline.run(day)
    assert second.cache_hits == len(day)
    assert second.n_analyzed == 0
    for a, b in zip(first.analyses, second.analyses):
        va = fitted_checker.verdicts_from_observations([a.observation])[0]
        vb = fitted_checker.verdicts_from_observations([b.observation])[0]
        assert (va.malicious, va.probability) == (
            vb.malicious,
            vb.probability,
        )


def test_cache_persistence_roundtrip(sdk, catalog, tmp_path):
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=882, catalog=catalog)
    day = gen.generate(10)
    path = tmp_path / "observations.jsonl"
    engine = DynamicAnalysisEngine(sdk, sdk.restricted_api_ids, seed=3)
    first = VettingPipeline(
        engine, workers=3, cache=ObservationCache(path)
    ).run(day)
    assert first.cache_misses == len(day)
    # A fresh cache loaded from disk serves every md5 without emulation.
    reloaded = ObservationCache(path)
    assert len(reloaded) == len(day)
    engine2 = DynamicAnalysisEngine(sdk, sdk.restricted_api_ids, seed=3)
    second = VettingPipeline(engine2, workers=3, cache=reloaded).run(day)
    assert second.cache_hits == len(day)
    assert engine2.stats_view.submissions == 0
    assert [a.observation for a in second.analyses] == [
        a.observation for a in first.analyses
    ]


def _cache_observations(n):
    return [
        AppObservation(
            apk_md5=f"{i:032x}",
            invoked_api_ids=(i, i + 7),
            permissions=("android.permission.INTERNET",),
            intents=(),
            analysis_minutes=1.5 + i,
            invoked_api_counts=((i, 3), (i + 7, 1)),
        )
        for i in range(n)
    ]


def test_cache_file_is_an_analysis_log(tmp_path):
    observations = _cache_observations(3)
    path = tmp_path / "cache.jsonl"
    cache = ObservationCache(path)
    for obs in observations:
        cache.put(obs)
    records = list(read_log(path))
    assert [r.observation for r in records] == observations
    assert all(r.verdict is None for r in records)
    # And a log written without verdicts loads as a cache.
    log = tmp_path / "log.jsonl"
    write_log(log, observations)
    assert log.read_bytes() == path.read_bytes()
    loaded = ObservationCache(log)
    assert [loaded.get(o.apk_md5) for o in observations] == observations


def test_cache_reopens_after_a_torn_final_record(tmp_path):
    """A file cut at any byte of its final record reopens; the next
    append starts a line of its own."""
    observations = _cache_observations(3)
    late = _cache_observations(4)[3]
    full_path = tmp_path / "full.jsonl"
    full = ObservationCache(full_path)
    for obs in observations:
        full.put(obs)
    data = full_path.read_bytes()
    last_start = data.rindex(b"\n", 0, len(data) - 1) + 1
    path = tmp_path / "cut.jsonl"
    for cut in range(last_start, len(data) + 1):
        path.write_bytes(data[:cut])
        cache = ObservationCache(path)
        kept = observations if cut >= len(data) - 1 else observations[:2]
        assert [cache.get(o.apk_md5) for o in kept] == kept
        assert len(cache) == len(kept)
        expected = data if cut >= len(data) - 1 else data[:last_start]
        assert path.read_bytes() == expected, cut
        cache.put(late)
        reopened = ObservationCache(path)
        assert len(reopened) == len(kept) + 1
        assert reopened.get(late.apk_md5) == late


def test_cache_raises_on_mid_file_garbage(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ObservationCache(path)
    for obs in _cache_observations(2):
        cache.put(obs)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0][:20] + b"\n" + lines[1])
    with pytest.raises(ValueError, match="malformed cache line"):
        ObservationCache(path)


# -- FeatureBlock round-trips the encoder ---------------------------------


def _observations(sdk):
    """Arbitrary observations: known and unknown APIs/permissions/intents."""
    api_ids = st.integers(0, len(sdk) - 1)
    perm_names = list(sdk.permissions.names) + ["com.fake.UNKNOWN_PERM"]
    intent_names = list(sdk.intents.names) + ["android.intent.action.FAKE"]
    return st.builds(
        AppObservation,
        apk_md5=st.text("0123456789abcdef", min_size=8, max_size=32),
        invoked_api_ids=st.lists(api_ids, max_size=25).map(tuple),
        permissions=st.lists(
            st.sampled_from(perm_names), max_size=8
        ).map(tuple),
        intents=st.lists(
            st.sampled_from(intent_names), max_size=8
        ).map(tuple),
        invoked_api_counts=st.lists(
            st.tuples(api_ids, st.integers(0, 500_000)), max_size=10
        ).map(tuple),
    )


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_feature_block_roundtrips_encode(sdk, data):
    """block[i] must equal encode(obs_i) bit for bit, any mode/encoding."""
    mode = data.draw(st.sampled_from(list(FeatureMode)))
    encoding = data.draw(st.sampled_from(["binary", "histogram"]))
    tracked = data.draw(
        st.lists(
            st.integers(0, len(sdk) - 1),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    space = FeatureSpace(sdk, tracked, mode, encoding=encoding)
    observations = data.draw(st.lists(_observations(sdk), max_size=6))
    block = FeatureBlock.from_observations(space, observations)
    assert block.n_apps == len(observations)
    assert block.n_features == space.n_features
    assert block.matrix.dtype == np.uint8
    for i, obs in enumerate(observations):
        assert np.array_equal(block[i], space.encode(obs))
        assert block.md5s[i] == obs.apk_md5


def test_duplicate_md5s_in_one_batch_emulate_once(sdk, catalog):
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=883, catalog=catalog)
    apk = gen.sample_app(malicious=False)
    batch = [apk] * 6
    engine = DynamicAnalysisEngine(sdk, [], seed=1)
    result = VettingPipeline(
        engine, workers=4, cache=ObservationCache()
    ).run(batch)
    assert engine.stats_view.submissions == 1
    assert result.n_analyzed == 1
    assert result.n_cached == 5
    # One lookup per app: the later copies hit the first.
    assert result.cache_hits == 5
    assert result.cache_misses == 1
    observations = [a.observation for a in result.analyses]
    assert all(o == observations[0] for o in observations)
