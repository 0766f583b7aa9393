"""Tests for the durable submission queue (WAL, lanes, admission)."""

import json

import pytest

from repro.android.apk import Apk
from repro.android.components import Activity
from repro.android.dex import CallSites, DexCode
from repro.android.manifest import AndroidManifest
from repro.obs import MetricsRegistry
from repro.serve.queue import (
    LANE_BULK,
    LANE_ESCALATED,
    LANE_RESUBMIT,
    QueueFullError,
    SubmissionQueue,
    parse_lane,
)


@pytest.fixture()
def apps(generator):
    return [generator.sample_app() for _ in range(8)]


def test_parse_lane_names_and_numbers():
    assert parse_lane("escalated") == LANE_ESCALATED
    assert parse_lane("resubmit") == LANE_RESUBMIT
    assert parse_lane("bulk") == LANE_BULK
    assert parse_lane(0) == LANE_ESCALATED
    with pytest.raises(ValueError, match="unknown lane"):
        parse_lane("express")
    with pytest.raises(ValueError, match="unknown lane"):
        parse_lane(7)
    for not_a_lane in (True, False, None, [1], 1.0):
        with pytest.raises(ValueError, match="unknown lane"):
            parse_lane(not_a_lane)


def test_priority_order_and_fifo_within_lane(apps):
    with SubmissionQueue() as q:
        q.submit(apps[0], "bulk")
        q.submit(apps[1], "bulk")
        q.submit(apps[2], "escalated")
        q.submit(apps[3], "resubmit")
        order = [q.take(timeout=0).md5 for _ in range(4)]
    assert order == [
        apps[2].md5, apps[3].md5, apps[0].md5, apps[1].md5
    ]


def test_take_timeout_returns_none():
    with SubmissionQueue() as q:
        assert q.take(timeout=0.01) is None


def test_take_batch_blocks_only_for_first(apps):
    with SubmissionQueue() as q:
        for apk in apps[:5]:
            q.submit(apk)
        batch = q.take_batch(3, timeout=0.01)
        assert len(batch) == 3
        assert q.pending == 2 and q.inflight == 3
        assert q.take_batch(10, timeout=0.01) and q.pending == 0
        with pytest.raises(ValueError):
            q.take_batch(0)


def test_admission_control_rejects_past_max_depth(apps):
    registry = MetricsRegistry()
    with SubmissionQueue(max_depth=2, registry=registry) as q:
        q.submit(apps[0])
        q.submit(apps[1])
        with pytest.raises(QueueFullError, match="max depth"):
            q.submit(apps[2])
    assert registry.value("serve_admission_rejects_total") == 1
    # In-flight entries still count against the bound: taking one does
    # not free a slot until it is terminal.
    with SubmissionQueue(max_depth=2) as q:
        q.submit(apps[0])
        q.submit(apps[1])
        entry = q.take(timeout=0)
        with pytest.raises(QueueFullError):
            q.submit(apps[2])
        q.mark_done(entry, {"status": "done"})
        q.submit(apps[2])


def test_pending_resubmission_is_idempotent(apps):
    registry = MetricsRegistry()
    with SubmissionQueue(registry=registry) as q:
        first = q.submit(apps[0])
        again = q.submit(apps[0], "escalated")
        assert again is first
        assert q.depth == 1
    assert registry.value("serve_submissions_coalesced_total") == 1


def test_terminal_md5_is_not_deduplicated(apps):
    # Markets resubmit previously vetted content on purpose; those get
    # a fresh acceptance (the observation cache absorbs the re-scan).
    with SubmissionQueue() as q:
        entry = q.submit(apps[0])
        taken = q.take(timeout=0)
        q.mark_done(taken, {"status": "done"})
        fresh = q.submit(apps[0])
        assert fresh.seq != entry.seq
        assert q.status(apps[0].md5) == "done"  # result already served


def test_status_transitions(apps):
    with SubmissionQueue() as q:
        assert q.status(apps[0].md5) == "unknown"
        q.submit(apps[0])
        assert q.status(apps[0].md5) == "pending"
        entry = q.take(timeout=0)
        assert q.status(apps[0].md5) == "in_flight"
        q.mark_done(entry, {"status": "done"})
        assert q.status(apps[0].md5) == "done"


def test_requeue_puts_entry_at_lane_head(apps):
    with SubmissionQueue() as q:
        q.submit(apps[0])
        q.submit(apps[1])
        entry = q.take(timeout=0)
        q.requeue(entry)
        assert q.take(timeout=0).md5 == entry.md5


def test_depth_gauge_tracks_queue(apps):
    registry = MetricsRegistry()
    with SubmissionQueue(registry=registry) as q:
        q.submit(apps[0])
        q.submit(apps[1])
        assert registry.value("serve_queue_depth") == 2
        entry = q.take(timeout=0)
        assert registry.value("serve_queue_depth") == 2  # in flight
        q.mark_done(entry, {"status": "done"})
        assert registry.value("serve_queue_depth") == 1


def test_per_lane_depth_gauges(apps):
    """Lane-labelled gauges expose per-lane pending backlogs.

    The unlabelled series stays the total (pending + in flight); the
    labelled ones count each lane's *pending* entries, so a dashboard
    can see escalated-lane headroom during a bulk flood.
    """
    registry = MetricsRegistry()
    with SubmissionQueue(registry=registry) as q:
        q.submit(apps[0], "bulk")
        q.submit(apps[1], "bulk")
        q.submit(apps[2], "escalated")
        q.submit(apps[3], "resubmit")
        assert registry.value("serve_queue_depth") == 4
        assert registry.value("serve_queue_depth", lane="bulk") == 2
        assert registry.value("serve_queue_depth", lane="escalated") == 1
        assert registry.value("serve_queue_depth", lane="resubmit") == 1
        entry = q.take(timeout=0)  # pops the escalated entry
        assert registry.value("serve_queue_depth") == 4  # still in flight
        assert registry.value("serve_queue_depth", lane="escalated") == 0
        q.mark_done(entry, {"status": "done"})
        assert registry.value("serve_queue_depth") == 3
        assert registry.value("serve_queue_depth", lane="bulk") == 2


def test_wal_replay_restores_uncompleted_entries(tmp_path, apps):
    spool = tmp_path / "spool"
    q = SubmissionQueue(spool)
    for apk in apps[:5]:
        q.submit(apk)
    done = q.take(timeout=0)
    q.mark_done(done, {"status": "done", "malicious": False})
    # Simulate a kill: drop the queue without any graceful shutdown.

    registry = MetricsRegistry()
    q2 = SubmissionQueue(spool, registry=registry)
    assert q2.depth == 4
    assert registry.value("serve_wal_replayed_total") == 4
    assert q2.completed[done.md5]["status"] == "done"
    replayed = q2.take_batch(10, timeout=0)
    assert all(entry.replayed for entry in replayed)
    assert {e.md5 for e in replayed} == {
        a.md5 for a in apps[1:5]
    }
    # Replayed entries keep their lane and original content.
    for entry in replayed:
        assert entry.apk.md5 == entry.md5
    q2.close()


def test_wal_replay_preserves_in_flight_entries(tmp_path, apps):
    # An entry taken but never marked done has an uncompleted acceptance
    # record; a restart must re-enqueue it (crash between take and done).
    spool = tmp_path / "spool"
    q = SubmissionQueue(spool)
    q.submit(apps[0])
    q.take(timeout=0)
    q2 = SubmissionQueue(spool)
    assert q2.depth == 1
    assert q2.take(timeout=0).md5 == apps[0].md5
    q2.close()


def test_wal_replay_survives_multiple_restarts(tmp_path, apps):
    spool = tmp_path / "spool"
    q = SubmissionQueue(spool)
    q.submit(apps[0], "escalated")
    q2 = SubmissionQueue(spool)
    assert q2.depth == 1
    q3 = SubmissionQueue(spool)
    entry = q3.take(timeout=0)
    assert entry.md5 == apps[0].md5 and entry.lane == 0
    q3.mark_done(entry, {"status": "done"})
    q3.close()
    q4 = SubmissionQueue(spool)
    assert q4.depth == 0 and apps[0].md5 in q4.completed
    q4.close()


def test_seq_continues_after_replay(tmp_path, apps):
    spool = tmp_path / "spool"
    q = SubmissionQueue(spool)
    first = q.submit(apps[0])
    q2 = SubmissionQueue(spool)
    fresh = q2.submit(apps[1])
    assert fresh.seq > first.seq
    q2.close()


def test_malformed_wal_line_is_rejected(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "queue.wal").write_text("{not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed WAL"):
        SubmissionQueue(spool)


def _tiny_apk(name: str) -> Apk:
    """A hand-built app whose WAL record is small enough to cut at
    every byte."""
    return Apk(
        manifest=AndroidManifest(
            package_name=f"com.example.{name}",
            version_code=1,
            activities=(Activity("Main", referenced=True),),
        ),
        dex=DexCode(call_sites=CallSites([3, 7], [1.5, 0.25], [0.0, 0.5])),
        is_malicious=False,
        family="tool",
    )


@pytest.mark.parametrize("final", ["done", "submit"])
def test_torn_final_wal_record_is_dropped_at_every_offset(tmp_path, final):
    a, b, c = (_tiny_apk(name) for name in ("alpha", "beta", "gamma"))
    spool = tmp_path / "spool"
    with SubmissionQueue(spool) as q:
        q.submit(a)
        if final == "done":
            q.submit(b)
        q.mark_done(q.take(timeout=0), {"status": "done"})
        if final == "submit":
            q.submit(b)
    wal = spool / "queue.wal"
    full = wal.read_bytes()
    start = full.rindex(b"\n", 0, len(full) - 1) + 1
    for cut in range(start, len(full) + 1):
        wal.write_bytes(full[:cut])
        kept = cut >= len(full) - 1  # whole record, newline or not
        torn = start < cut < len(full) - 1
        registry = MetricsRegistry()
        q = SubmissionQueue(spool, registry=registry)
        assert registry.value("serve_wal_torn_records_total") == torn
        # Exactly once: every acknowledged md5 is either terminal or
        # pending, never both; a torn submit was never acknowledged.
        if final == "done":
            done = {a.md5} if kept else set()
            pending = {a.md5, b.md5} - done
        else:
            done = {a.md5}
            pending = {b.md5} if kept else set()
        assert set(q.completed) == done, cut
        assert q.pending_md5s() == pending, cut
        # seq continues after the last intact acceptance record.
        fresh = q.submit(c)
        assert fresh.seq == (3 if final == "done" or kept else 2), cut
        q.close()
        registry = MetricsRegistry()
        with SubmissionQueue(spool, registry=registry) as q:
            assert registry.value("serve_wal_torn_records_total") == 0
            assert set(q.completed) == done
            assert q.pending_md5s() == pending | {c.md5}
        assert wal.read_bytes().endswith(b"\n")


def test_mid_file_wal_garbage_is_rejected(tmp_path, apps):
    spool = tmp_path / "spool"
    with SubmissionQueue(spool) as q:
        q.submit(apps[0])
    wal = spool / "queue.wal"
    good = wal.read_bytes()
    wal.write_bytes(b"{not json\n" + good[:-1])
    with pytest.raises(ValueError, match=":1: malformed WAL"):
        SubmissionQueue(spool)


def test_unknown_wal_record_type_is_rejected(tmp_path):
    spool = tmp_path / "spool"
    spool.mkdir()
    (spool / "queue.wal").write_text(
        json.dumps({"type": "mystery"}) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="unknown WAL record"):
        SubmissionQueue(spool)


def test_future_wal_format_version_is_rejected(tmp_path, apps):
    spool = tmp_path / "spool"
    q = SubmissionQueue(spool)
    q.submit(apps[0])
    q.close()
    wal = spool / "queue.wal"
    record = json.loads(wal.read_text().strip())
    record["v"] = 99
    wal.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported WAL"):
        SubmissionQueue(spool)


def test_closed_queue_rejects_submissions(apps):
    q = SubmissionQueue()
    q.close()
    with pytest.raises(RuntimeError, match="closed"):
        q.submit(apps[0])
