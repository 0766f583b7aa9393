"""Unit tests for span tracing and the JSONL event sink."""

import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    SpanEvent,
    SpanSink,
    record_span,
    set_default_registry,
    span,
)


def test_span_records_histogram_and_event():
    reg = MetricsRegistry()
    sink = SpanSink()
    with span("work", registry=reg, sink=sink, job="x"):
        pass
    snap = reg.histogram("work_seconds")
    assert snap is not None and snap.count == 1
    (event,) = sink.events()
    assert event.name == "work"
    assert event.clock == "wall"
    assert event.parent == "" and event.depth == 0
    assert event.attrs == {"job": "x"}
    assert event.duration >= 0.0


def test_spans_nest_with_parent_and_depth():
    reg = MetricsRegistry()
    sink = SpanSink()
    with span("outer", registry=reg, sink=sink):
        with span("inner", registry=reg, sink=sink):
            pass
    inner, outer = sink.events()  # inner exits first
    assert inner.name == "inner"
    assert inner.parent == "outer" and inner.depth == 1
    assert outer.parent == "" and outer.depth == 0


def test_span_records_error_attribute_on_exception():
    reg = MetricsRegistry()
    sink = SpanSink()
    with pytest.raises(RuntimeError):
        with span("doomed", registry=reg, sink=sink):
            raise RuntimeError("boom")
    (event,) = sink.events()
    assert event.attrs["error"] == "RuntimeError"
    # The duration still lands in the histogram.
    assert reg.histogram("doomed_seconds").count == 1


def test_span_uses_default_registry_when_none_given():
    mine = MetricsRegistry()
    previous = set_default_registry(mine)
    try:
        with span("ambient"):
            pass
    finally:
        set_default_registry(previous)
    assert mine.histogram("ambient_seconds").count == 1


def test_span_stacks_are_per_thread():
    reg = MetricsRegistry()
    sink = SpanSink()
    seen = []

    def other_thread():
        with span("worker_side", registry=reg, sink=sink):
            pass
        seen.extend(sink.events("worker_side"))

    with span("main_side", registry=reg, sink=sink):
        t = threading.Thread(target=other_thread)
        t.start()
        t.join()
    # The worker's span must not see the main thread's open span as
    # its parent.
    (worker_event,) = seen
    assert worker_event.parent == "" and worker_event.depth == 0


def test_record_span_sim_clock_feeds_minutes_histogram():
    reg = MetricsRegistry()
    sink = SpanSink()
    event = record_span(
        "pipeline_task", 10.0, 12.5, registry=reg, sink=sink, slot=3
    )
    assert event.clock == "sim"
    assert event.duration == pytest.approx(2.5)
    snap = reg.histogram("pipeline_task_minutes")
    assert snap.count == 1 and snap.sum == pytest.approx(2.5)
    assert sink.events()[0].attrs == {"slot": 3}


def test_record_span_rejects_negative_interval():
    with pytest.raises(ValueError, match="end at or after"):
        record_span("x", 5.0, 4.0, registry=MetricsRegistry())


def test_sink_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    reg = MetricsRegistry()
    sink = SpanSink(path)
    with span("a", registry=reg, sink=sink, md5="m1"):
        pass
    record_span("b", 0.0, 1.0, registry=reg, sink=sink)
    loaded = SpanSink.read(path)
    assert [e.name for e in loaded] == ["a", "b"]
    assert loaded[0].attrs == {"md5": "m1"}
    assert loaded[1].clock == "sim"
    assert loaded == sink.events()


def test_sink_read_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"name": "ok", "start": 0, "duration": 1}\n{oops\n')
    with pytest.raises(ValueError, match="malformed span line"):
        SpanSink.read(path)


def test_sink_reopened_on_a_torn_trace_stays_readable(tmp_path):
    """A trace cut mid-event by a killed process is repaired when a sink
    reopens it, so the next event does not glue onto the fragment."""
    path = tmp_path / "trace.jsonl"
    reg = MetricsRegistry()
    sink = SpanSink(path)
    record_span("a", 0.0, 1.0, registry=reg, sink=sink)
    record_span("b", 1.0, 2.0, registry=reg, sink=sink)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(ValueError, match=":2: malformed span line"):
        SpanSink.read(path)
    reopened = SpanSink(path)
    record_span("c", 2.0, 3.0, registry=reg, sink=reopened)
    assert [e.name for e in SpanSink.read(path)] == ["a", "c"]


def test_batch_scoring_records_one_labelled_predict_span():
    """One outermost ml_predict_seconds record per batch call, with a
    batch_size label — not one per row and not nested double-counts."""
    import numpy as np

    from repro.ml.logistic import LogisticRegression

    reg = MetricsRegistry()
    rng = np.random.default_rng(11)
    X = (rng.random((40, 12)) < 0.3).astype(np.uint8)
    y = (rng.random(40) < 0.5).astype(np.int8)
    y[:2] = (0, 1)
    clf = LogisticRegression(epochs=5).bind_registry(reg)
    clf.fit(X, y)
    assert reg.histogram_count("ml_predict_seconds") == 0
    clf.predict_proba_batch(X[:17])
    assert reg.histogram_count("ml_predict_seconds") == 1
    snap = reg.histogram(
        "ml_predict_seconds", classifier="lr", batch_size="17"
    )
    assert snap is not None and snap.count == 1


def test_fallback_batch_shim_does_not_double_record():
    """A classifier defining only ``fit`` and ``_proba`` inherits the
    base batch method's timing: exactly one ``ml_predict_seconds``
    observation per call, the unfitted and zero-row calls included."""
    import numpy as np

    from repro.ml.base import Classifier

    class MeanScore(Classifier):
        name = "mean"
        _fitted_attr = "_width"
        _width = None

        def fit(self, X, y):
            self._width = np.asarray(X).shape[1]
            return self

        def _proba(self, X):
            return X.mean(axis=1, dtype=np.float64)

    reg = MetricsRegistry()
    clf = MeanScore().bind_registry(reg)
    with pytest.raises(RuntimeError, match="fitted"):
        clf.predict_proba_batch(np.zeros((0, 4), dtype=np.uint8))
    assert reg.histogram_count("ml_predict_seconds") == 1
    clf.fit(np.zeros((3, 4), dtype=np.uint8), None)
    clf.predict_proba_batch(np.zeros((0, 4), dtype=np.uint8))
    assert reg.histogram_count("ml_predict_seconds") == 2
    clf.predict_proba_batch(np.zeros((9, 4), dtype=np.uint8))
    assert reg.histogram_count("ml_predict_seconds") == 3
    snap = reg.histogram(
        "ml_predict_seconds", classifier="mean", batch_size="9"
    )
    assert snap is not None and snap.count == 1


def test_sink_buffer_is_bounded_but_counts_all():
    sink = SpanSink(capacity=4)
    for i in range(10):
        sink.emit(SpanEvent(name=f"s{i}", start=0.0, duration=0.0))
    assert len(sink) == 4
    assert sink.emitted == 10
    assert [e.name for e in sink.events()] == ["s6", "s7", "s8", "s9"]
