"""Every crash state at the one durable-write seam.

A serving run writes its queue WAL and observation cache only through
:meth:`repro.records.RecordLog.append`, and its model artifacts and
manifests only through :func:`repro.records.atomic_write`.  Recording
the appends of a real run and rebuilding the files as they stood after
every prefix of them, and after every prefix plus half of the next one,
gives every state a killed process can leave behind: the process-crash
half of ALICE's crash-state enumeration (Pillai et al., "All File
Systems Are Not Created Equal", OSDI 2014).
"""

import json
import os
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.core.pipeline import ObservationCache
from repro.obs import MetricsRegistry
from repro.records import RecordLog, read_records
from repro.serve.queue import SubmissionQueue
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService

WAL = Path("spool") / "queue.wal"
CACHE = Path("cache.jsonl")


class _Crash(Exception):
    """A simulated kill at a chosen durable boundary."""


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(fitted_checker, activate=True)
    return registry


def _record_run(root, models, generator, monkeypatch):
    """Take 50 submissions to done through one service with a durable
    queue and a persistent cache; return every append as (file, bytes).

    The traffic has duplicates while pending (coalesced, no record),
    escalated submissions, and resubmissions of terminal md5s (a new
    acceptance record each).
    """
    writes = []
    append = RecordLog.append

    def recording(log, data):
        writes.append((log.path.relative_to(root), bytes(data)))
        append(log, data)

    monkeypatch.setattr(RecordLog, "append", recording)
    fresh = [generator.sample_app() for _ in range(42)]
    service = OnlineVettingService(
        models,
        spool_dir=root / "spool",
        cache=root / CACHE,
        workers=2,
        batch_size=4,
    )
    for i, apk in enumerate(fresh[:36]):
        service.submit(apk, "escalated" if i % 5 == 0 else "bulk")
    for apk in fresh[:6]:
        service.submit(apk)  # still pending: coalesced
    with service:
        assert service.drain(60.0)
        for i, apk in enumerate(fresh[:8]):
            service.submit(apk, "escalated" if i % 2 else "resubmit")
        for apk in fresh[36:]:
            service.submit(apk)
        assert service.drain(60.0)
    monkeypatch.undo()
    return writes


def _rebuild(state, writes, n, half):
    """Write the files as they stood after ``writes[:n]`` (plus half of
    ``writes[n]`` when ``half``)."""
    shutil.rmtree(state, ignore_errors=True)
    files = {WAL: b"", CACHE: b""}
    for rel, data in writes[:n]:
        files[rel] += data
    if half:
        rel, data = writes[n]
        files[rel] += data[: len(data) // 2]
    for rel, data in files.items():
        (state / rel).parent.mkdir(parents=True, exist_ok=True)
        (state / rel).write_bytes(data)


def _check_state(state, writes, n, half):
    acked: dict[int, str] = {}  # seq -> md5 of whole submit records
    done: set[int] = set()
    cached: set[str] = set()
    for rel, data in writes[:n]:
        record = json.loads(data)
        if rel == CACHE:
            cached.add(record["md5"])
        elif record["type"] == "submit":
            acked[record["seq"]] = record["md5"]
        else:
            done.add(record["seq"])
    where = f"after {n} writes" + (" and half of the next" if half else "")
    torn_wal = half and writes[n][0] == WAL

    registry = MetricsRegistry()
    queue = SubmissionQueue(state / "spool", registry=registry)
    assert registry.value("serve_wal_torn_records_total") == torn_wal, where
    # No acknowledged submission is lost: each one without its done
    # record is pending again.
    pending = {md5 for seq, md5 in acked.items() if seq not in done}
    assert queue.pending_md5s() == pending, where
    while batch := queue.take_batch(64, timeout=0):
        for entry in batch:
            queue.mark_done(
                entry, {"md5": entry.md5, "status": "done", "malicious": False}
            )
    queue.close()
    submits, dones = set(), Counter()
    for _, record in read_records(state / WAL, "WAL"):
        if record["type"] == "submit":
            submits.add(record["seq"])
        else:
            dones[record["seq"]] += 1
    # A torn submit was never acknowledged and does not appear; every
    # acknowledged one ends with exactly one done.
    assert submits == set(acked), where
    assert dones == {seq: 1 for seq in acked}, where
    assert set(queue.completed) == set(acked.values()), where

    cache = ObservationCache(state / CACHE)
    assert len(cache) == len(cached), where
    assert all(md5 in cache for md5 in cached), where


def test_every_crash_state_of_a_serving_run_reopens_exactly_once(
    tmp_path, models, generator, monkeypatch
):
    writes = _record_run(tmp_path / "run", models, generator, monkeypatch)
    kinds = Counter(
        "cache" if rel == CACHE else json.loads(data)["type"]
        for rel, data in writes
    )
    assert kinds["submit"] == kinds["done"] == 50
    assert kinds["cache"] == 42  # resubmissions hit the cache
    # The recorded appends are the files, byte for byte.
    _rebuild(tmp_path / "state", writes, len(writes), half=False)
    for rel in (WAL, CACHE):
        assert (tmp_path / "state" / rel).read_bytes() == (
            tmp_path / "run" / rel
        ).read_bytes()
    for n in range(len(writes) + 1):
        for half in (False, True) if n < len(writes) else (False,):
            _rebuild(tmp_path / "state", writes, n, half)
            _check_state(tmp_path / "state", writes, n, half)


def test_publish_survives_a_crash_at_every_rename(
    tmp_path, fitted_checker, monkeypatch
):
    """``publish(..., activate=True)`` renames three files (artifact,
    manifest, manifest again).  A kill just before or just after each
    rename reopens with a hash-verified active version, and the next
    publish succeeds."""
    real_replace = os.replace
    point = 0
    while True:
        root = tmp_path / f"crash-{point}"
        ModelRegistry(root).publish(fitted_checker, activate=True)
        registry = ModelRegistry(root)
        renames = []

        def crashing(src, dst):
            renames.append(dst)
            if len(renames) == point // 2 + 1:
                if point % 2:
                    real_replace(src, dst)
                raise _Crash
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", crashing)
        try:
            registry.publish(fitted_checker, activate=True)
        except _Crash:
            crashed = True
        else:
            crashed = False
        monkeypatch.undo()
        if not crashed:
            break
        reopened = ModelRegistry(root)
        active = reopened.active_version
        assert active == (2 if point == 5 else 1), point
        reopened.load(active)  # raises IntegrityError on a hash mismatch
        published = reopened.publish(fitted_checker, activate=True)
        again = ModelRegistry(root)
        assert again.active_version == published.version, point
        again.load(published.version)
        point += 1
    assert point == 6 and len(renames) == 3
