"""Property-based invariants for the scheduler and the vetting pipeline.

Invariants checked (over hypothesis-generated workloads):

* simulated and executed schedules never overlap two tasks on a slot;
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
from repro.core.pipeline import ObservationCache, VettingPipeline
from repro.emulator.cluster import (
    AnalysisServer,
    ScheduleReport,
    ServerCluster,
)


def _assert_no_slot_overlap(report: ScheduleReport) -> None:
    by_slot = {}
    for t in report.tasks:
        by_slot.setdefault((t.server, t.slot), []).append(t)
    for tasks in by_slot.values():
        tasks.sort(key=lambda t: t.start_minute)
        for prev, nxt in zip(tasks, tasks[1:]):
            assert nxt.start_minute >= prev.end_minute - 1e-9


# -- simulated list scheduling -------------------------------------------


@given(
    durations=st.lists(
        st.floats(0.0, 30.0, allow_nan=False), min_size=0, max_size=120
    ),
    slots=st.integers(1, 19),
)
@settings(max_examples=60, deadline=None)
def test_simulated_schedule_invariants(durations, slots):
    cluster = ServerCluster(
        n_servers=1, server=AnalysisServer(cores=20, emulator_slots=slots)
    )
    report = cluster.schedule(durations)
    assert len(report.tasks) == len(durations)
    assert sorted(t.app_index for t in report.tasks) == list(
        range(len(durations))
    )
    assert report.makespan_minutes == pytest.approx(
        max((t.end_minute for t in report.tasks), default=0.0)
    )
    assert report.slot_busy_minutes.sum() == pytest.approx(sum(durations))
    _assert_no_slot_overlap(report)
    assert 0.0 <= report.utilization <= 1.0 + 1e-9
    assert report.throughput_per_day() >= 0.0


def test_zero_task_schedule_returns_zero_throughput():
    """Regression: empty batches used to report infinite throughput."""
    report = ServerCluster().schedule([])
    assert report.throughput_per_day() == 0.0
    assert report.utilization == 0.0
    assert report.makespan_minutes == 0.0
    executed = ScheduleReport.from_executed([], n_slots=16,
                                            slots_per_server=16)
    assert executed.throughput_per_day() == 0.0
    assert executed.utilization == 0.0


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
    assert report.executed
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
