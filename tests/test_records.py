"""Tests for the durable-record module (``repro.records``) and the
owners that write through it: framing, torn-tail repair, one write per
append, fsync, and whole-file replacement."""

import os
import pickle

import pytest

from repro.obs import MetricsRegistry, SpanSink, record_span
from repro.records import RecordLog, TornRecord, atomic_write, read_records
from repro.serve.queue import SubmissionQueue


@pytest.fixture()
def apps(generator):
    return [generator.sample_app() for _ in range(3)]


def _count_calls(monkeypatch, name):
    """Count calls of ``os.<name>`` (still performing them)."""
    calls = []
    real = getattr(os, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(os, name, counting)
    return calls


def test_read_records_yields_line_numbers_and_skips_blank_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n\n  \n{"b": 2}\n')
    assert list(read_records(path, "test")) == [(1, {"a": 1}), (4, {"b": 2})]


def test_read_records_names_the_malformed_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{oops\n{"b": 2}\n')
    with pytest.raises(ValueError, match=r":2: malformed thing line") as exc:
        list(read_records(path, "thing"))
    assert not isinstance(exc.value, TornRecord)


def test_read_records_reports_a_torn_final_line_with_its_offset(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": ')
    with pytest.raises(TornRecord, match=":2: malformed thing line") as exc:
        list(read_records(path, "thing"))
    assert exc.value.offset == len(b'{"a": 1}\n')


def test_record_log_creates_its_file_and_directory(tmp_path):
    log = RecordLog(tmp_path / "deep" / "er" / "log.jsonl", "test")
    assert log.path.read_bytes() == b""
    assert list(log.replay()) == []
    assert log.torn == 0


@pytest.mark.parametrize(
    "data, kept, torn, repaired",
    [
        (b'{"a": 1}\n{"b": 2}\n', 2, 0, b'{"a": 1}\n{"b": 2}\n'),
        (b'{"a": 1}\n{"b": 2}', 2, 0, b'{"a": 1}\n{"b": 2}\n'),
        (b'{"a": 1}\n{"b": ', 1, 1, b'{"a": 1}\n'),
        (b'{"a": 1}\n  ', 1, 0, b'{"a": 1}\n  \n'),
    ],
    ids=["intact", "unterminated", "torn", "blank-tail"],
)
def test_replay_repairs_the_tail(tmp_path, data, kept, torn, repaired):
    records = [{"a": 1}, {"b": 2}][:kept]
    path = tmp_path / "log.jsonl"
    path.write_bytes(data)
    log = RecordLog(path, "test")
    assert [record for _, record in log.replay()] == records
    assert log.torn == torn
    assert path.read_bytes() == repaired
    log.append(b'{"c": 3}\n')
    reopened = RecordLog(path, "test")
    assert [r for _, r in reopened.replay()] == records + [{"c": 3}]
    assert reopened.torn == 0


def test_replay_raises_on_mid_file_garbage(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_bytes(b'{oops\n{"a": 1}')
    with pytest.raises(ValueError, match=":1: malformed test line"):
        list(RecordLog(path, "test").replay())
    assert path.read_bytes() == b'{oops\n{"a": 1}'


def test_record_log_is_picklable_and_holds_no_handle(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl", "test", fsync=True)
    log.append(b'{"a": 1}\n')
    clone = pickle.loads(pickle.dumps(log))
    clone.append(b'{"b": 2}\n')
    assert [r for _, r in log.replay()] == [{"a": 1}, {"b": 2}]


def test_a_pickled_span_sink_keeps_appending(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = SpanSink(path)
    clone = pickle.loads(pickle.dumps(sink))
    record_span("a", 0.0, 1.0, registry=MetricsRegistry(), sink=clone)
    assert [e.name for e in SpanSink.read(path)] == ["a"]


def test_wal_submit_is_one_write(tmp_path, apps, monkeypatch):
    q = SubmissionQueue(tmp_path / "spool")
    writes = _count_calls(monkeypatch, "write")
    q.submit(apps[0])
    assert len(writes) == 1
    entry = q.take(timeout=0)
    q.mark_done(entry, {"status": "done"})
    assert len(writes) == 2
    q.close()


@pytest.mark.parametrize("fsync", [False, True])
def test_wal_fsyncs_once_per_append_when_asked(tmp_path, apps, monkeypatch,
                                               fsync):
    q = SubmissionQueue(tmp_path / "spool", fsync=fsync)
    syncs = _count_calls(monkeypatch, "fsync")
    for apk in apps[:3]:
        q.submit(apk)
    for entry in q.take_batch(3, timeout=0):
        q.mark_done(entry, {"status": "done"})
    assert len(syncs) == (6 if fsync else 0)
    q.close()
    reopened = SubmissionQueue(tmp_path / "spool")
    assert set(reopened.completed) == {apk.md5 for apk in apps[:3]}


def test_an_opened_queue_has_an_empty_wal(tmp_path):
    spool = tmp_path / "spool"
    SubmissionQueue(spool)
    assert (spool / "queue.wal").read_bytes() == b""


def test_atomic_write_replaces_whole_and_syncs_file_and_directory(
    tmp_path, monkeypatch
):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")
    (tmp_path / "artifact.bin.tmp").write_bytes(b"stale leftover, longer")
    syncs = _count_calls(monkeypatch, "fsync")
    atomic_write(path, b"new")
    assert path.read_bytes() == b"new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.bin"]
    assert len(syncs) == 2  # the file, then its directory


def test_atomic_write_crash_before_rename_keeps_the_old_bytes(
    tmp_path, monkeypatch
):
    path = tmp_path / "artifact.bin"
    path.write_bytes(b"old")

    class Crash(Exception):
        pass

    def crash(*args):
        raise Crash

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(Crash):
        atomic_write(path, b"new")
    assert path.read_bytes() == b"old"
