"""Durable submission queue: JSONL write-ahead log + priority lanes.

The online service must never lose an accepted submission (§6's
operational loop vets ~10K daily submissions within hours), so every
accepted APK is appended to a write-ahead log *before* the submitter is
acknowledged.  A service killed mid-batch replays the WAL on restart:
entries with a matching completion record land directly in the result
store (never re-scored), entries without one are re-enqueued — each
accepted submission reaches a terminal result exactly once.

Three priority lanes order the dispatch queue: triage-escalated apps
first, resubmissions/updates next, bulk traffic last (FIFO within a
lane).  Queue depth is bounded; submissions past the bound are rejected
with :class:`QueueFullError` — explicit backpressure, counted as
``serve_admission_rejects_total`` — rather than buffered without limit.

WAL records are one JSON object per line.  A version-2 acceptance
record carries the submission body exactly as it arrived::

    {"type": "submit", "v": 2, "seq": 7, "md5": "...", "lane": 2,
     "body": <the request body's JSON text, spliced in verbatim>}

The body has already passed the codec's md5 check when it is written,
and it is never parsed and re-serialized on the way: only its raw CR
and LF bytes — which in JSON that parsed can only be insignificant
whitespace — become spaces, so one record stays one line.  The body
may be in any codec version :func:`~repro.serve.codec.apk_from_dict`
reads (2 or 3), and one segment may mix them; replay rejects a record
whose rebuilt md5 differs from its header's.  Version-1 records, which
carried a version-1 wire dict under ``"apk"``, are no longer read:
replay stops at one with its ``file:line``.  Every record is encoded
before the queue lock is taken, so the lock covers only the sequence
number, the bookkeeping and the one ``write`` of a
:class:`repro.records.RecordLog`, which holds no file handle.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.android.apk import Apk
from repro.obs import MetricsRegistry
from repro.records import RecordLog
from repro.serve.codec import apk_from_dict, apk_to_json, submission_apk

__all__ = [
    "LANES",
    "LANE_ESCALATED",
    "LANE_RESUBMIT",
    "LANE_BULK",
    "QueueFullError",
    "WrongShardError",
    "SubmissionRecord",
    "SubmissionQueue",
    "shard_of",
]

#: Priority lanes, most urgent first.  Lower number = dispatched first.
LANE_ESCALATED = 0
LANE_RESUBMIT = 1
LANE_BULK = 2

LANES = {
    "escalated": LANE_ESCALATED,
    "resubmit": LANE_RESUBMIT,
    "bulk": LANE_BULK,
}

_LANE_NAMES = {v: k for k, v in LANES.items()}

#: WAL format marker written on acceptance records.
WAL_FORMAT_VERSION = 2

#: Acceptance-record versions replay reads.
READABLE_WAL_VERSIONS = (2,)


class QueueFullError(RuntimeError):
    """Admission control rejected a submission (queue at max depth)."""


class WrongShardError(RuntimeError):
    """A submission was routed to a shard that does not own its md5.

    Raised by a shard-scoped service when ``shard_of(md5, n_shards)``
    disagrees with the shard's identity; the HTTP layer maps it to
    ``409 Conflict`` so a misconfigured router or direct-to-shard client
    fails loudly instead of splitting one md5's history across WALs.
    """

    def __init__(self, md5: str, owner: int, shard_id: int, n_shards: int):
        super().__init__(
            f"submission {md5} belongs to shard {owner}/{n_shards}, "
            f"not shard {shard_id}"
        )
        self.md5 = md5
        self.owner = owner
        self.shard_id = shard_id
        self.n_shards = n_shards


def shard_of(md5: str, n_shards: int) -> int:
    """The shard that owns one md5 (stable content-hash routing).

    The low 64 bits of the md5 taken modulo ``n_shards``: deterministic
    across processes and runs (no PYTHONHASHSEED dependence), uniform
    because md5 output is, and independent of submission order — the
    same APK always lands on the same shard, which is what keeps one
    md5's WAL history, coalescing, and observation cache shard-local.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return int(md5[-16:], 16) % n_shards


def lane_name(lane: int) -> str:
    return _LANE_NAMES.get(lane, str(lane))


def parse_lane(value: int | str) -> int:
    """Accept a lane by number or by name.

    Raises:
        ValueError: an unknown name or number, or anything else — a
            bool, float, list or None is not a lane.
    """
    if isinstance(value, str):
        try:
            return LANES[value]
        except KeyError:
            raise ValueError(
                f"unknown lane {value!r}; expected one of {sorted(LANES)}"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"unknown lane {value!r}; expected a name or 0, 1, or 2"
        )
    if value not in _LANE_NAMES:
        raise ValueError(f"unknown lane {value}; expected 0, 1, or 2")
    return value


@dataclass
class SubmissionRecord:
    """One accepted submission moving through the queue.

    Attributes:
        seq: monotonically increasing acceptance sequence number (the
            WAL ordering key; ties in a lane dispatch FIFO by seq).
        md5: content hash of the submitted APK.
        lane: priority lane (see :data:`LANES`).
        apk: the submission itself.
        replayed: True when this record was recovered from the WAL
            rather than accepted live.
    """

    seq: int
    md5: str
    lane: int
    apk: Apk
    replayed: bool = field(default=False, compare=False)


class SubmissionQueue:
    """Bounded, durable, priority-ordered submission queue.

    Thread-safe.  All mutation goes through the WAL first: ``submit``
    appends an acceptance record before the entry becomes visible to
    consumers, ``mark_done`` appends a completion record carrying the
    terminal outcome.  Reopening a queue on the same spool directory
    replays the log (see :attr:`completed` for recovered outcomes).

    Args:
        spool_dir: directory holding ``queue.wal``; created on demand.
            ``None`` keeps the queue purely in memory (tests, benches
            that measure dispatch overhead without fsync noise).
        max_depth: admission bound on pending entries; 0 disables the
            bound.
        registry: metrics registry for queue telemetry.
        fsync: force an ``os.fsync`` after every WAL append (durability
            against power loss, not just process crash).  Defaults to
            False: a written record survives a killed process, which
            is the failure mode the replay tests exercise.
    """

    def __init__(
        self,
        spool_dir: str | Path | None = None,
        max_depth: int = 10_000,
        registry: MetricsRegistry | None = None,
        fsync: bool = False,
    ):
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.max_depth = max_depth
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._lanes: dict[int, list[SubmissionRecord]] = {
            lane: [] for lane in sorted(_LANE_NAMES)
        }
        #: md5 -> live record, for idempotent resubmission while pending
        #: or in flight.
        self._pending: dict[str, SubmissionRecord] = {}
        #: seq of records handed to a consumer but not yet marked done.
        self._inflight: dict[int, SubmissionRecord] = {}
        #: md5 -> terminal outcome dict (from live completion or replay);
        #: the service's one outcome store.
        self.completed: dict[str, dict] = {}
        self._seq = 0
        self._closed = False
        self._wal: RecordLog | None = None
        if self.spool_dir is not None:
            self._wal = RecordLog(self.spool_dir / "queue.wal", "WAL", fsync)
            self._replay()

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        """Rebuild queue state from the WAL (crash recovery).

        A torn final record was never acknowledged: the log drops it and
        it is counted in ``serve_wal_torn_records_total``.
        """
        accepted: dict[int, SubmissionRecord] = {}
        for line_no, record in self._wal.replay():
            kind = record.get("type")
            if kind == "submit":
                entry = self._replay_submit(record, line_no)
                accepted[entry.seq] = entry
                self._seq = max(self._seq, entry.seq)
            elif kind == "done":
                seq = int(record["seq"])
                entry = accepted.pop(seq, None)
                md5 = record.get("md5") or (
                    entry.md5 if entry is not None else None
                )
                if md5 is not None:
                    self.completed[md5] = record.get("outcome", {})
            else:
                raise ValueError(
                    f"{self._wal.path}:{line_no}: unknown WAL record "
                    f"type {kind!r}"
                )
        if self._wal.torn:
            self.registry.inc("serve_wal_torn_records_total", self._wal.torn)
        replayed = 0
        for seq in sorted(accepted):
            entry = accepted[seq]
            # Pending as before the crash, even when an earlier
            # submission of the md5 has an outcome in `completed`.
            if entry.md5 in self._pending:
                continue  # coalesce duplicate pending submissions
            self._lanes[entry.lane].append(entry)
            self._pending[entry.md5] = entry
            replayed += 1
        if replayed:
            self.registry.inc("serve_wal_replayed_total", replayed)
        self._update_depth_gauge()

    def _replay_submit(self, record: dict, line_no: int) -> SubmissionRecord:
        """Rebuild one acceptance record (WAL version 2)."""
        where = f"{self._wal.path}:{line_no}"
        version = record.get("v")
        if type(version) is not int or version not in READABLE_WAL_VERSIONS:
            raise ValueError(f"{where}: unsupported WAL version {version!r}")
        try:
            apk = apk_from_dict(submission_apk(record["body"]))
            entry = SubmissionRecord(
                seq=int(record["seq"]),
                md5=record["md5"],
                lane=parse_lane(record["lane"]),
                apk=apk,
                replayed=True,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: bad submit record: {exc}") from exc
        if apk.md5 != entry.md5:
            raise ValueError(
                f"{where}: submit record md5 {entry.md5} does not match "
                f"its body's content hash {apk.md5}"
            )
        return entry

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(
        self,
        apk: Apk,
        lane: int | str = LANE_BULK,
        body: str | None = None,
    ) -> SubmissionRecord:
        """Accept one submission (durable once this returns).

        ``body`` is the submission's JSON text as it arrived (``{"apk":
        ..., "lane": ...}`` or a bare wire dict) and must already have
        decoded to ``apk`` with its md5 checked; it goes into the WAL
        verbatim.  Without one, the codec encodes ``apk`` once, before
        the lock is taken.

        Resubmitting an md5 that is already pending or in flight is
        idempotent and returns the existing record.  An md5 that already
        reached a terminal outcome is *not* deduplicated — markets see
        deliberate resubmissions of previously vetted content and those
        are served from the observation cache downstream.

        Raises:
            QueueFullError: the queue is at ``max_depth``.
        """
        lane = parse_lane(lane)
        if self._wal is not None:
            if body is None:
                body = apk_to_json(apk)
            # Raw CR/LF in JSON that parsed can only be whitespace; as
            # spaces they keep the record on one line.
            body = body.replace("\r", " ").replace("\n", " ").encode()
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            existing = self._pending.get(apk.md5)
            if existing is not None:
                self.registry.inc("serve_submissions_coalesced_total")
                return existing
            if self.max_depth and self.depth_locked() >= self.max_depth:
                self.registry.inc("serve_admission_rejects_total")
                raise QueueFullError(
                    f"queue at max depth {self.max_depth}; retry later"
                )
            self._seq += 1
            entry = SubmissionRecord(
                seq=self._seq, md5=apk.md5, lane=lane, apk=apk
            )
            if self._wal is not None:
                header = (
                    f'{{"type": "submit", "v": {WAL_FORMAT_VERSION}, '
                    f'"seq": {entry.seq}, "md5": "{entry.md5}", '
                    f'"lane": {lane}, "body": '
                )
                self._wal.append(b"".join((header.encode(), body, b"}\n")))
            self._lanes[lane].append(entry)
            self._pending[apk.md5] = entry
            self.registry.inc(
                "serve_submissions_total", lane=lane_name(lane)
            )
            self._update_depth_gauge()
            self._not_empty.notify()
            return entry

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------

    def take(self, timeout: float | None = None) -> SubmissionRecord | None:
        """Pop the highest-priority pending entry (None on timeout).

        The entry stays in the pending (md5-coalescing) set and moves to
        the in-flight set until :meth:`mark_done`; a crash between the
        two leaves its acceptance record uncompleted in the WAL, so a
        restart re-enqueues it.
        """
        with self._not_empty:
            if not self._wait_for_entry(timeout):
                return None
            for lane in sorted(self._lanes):
                if self._lanes[lane]:
                    entry = self._lanes[lane].pop(0)
                    self._inflight[entry.seq] = entry
                    self._update_depth_gauge()
                    return entry
            return None  # pragma: no cover - guarded by _wait_for_entry

    def take_batch(
        self, max_entries: int, timeout: float | None = None
    ) -> list[SubmissionRecord]:
        """Pop up to ``max_entries`` (blocking only for the first)."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        first = self.take(timeout)
        if first is None:
            return []
        batch = [first]
        while len(batch) < max_entries:
            entry = self.take(timeout=0)
            if entry is None:
                break
            batch.append(entry)
        return batch

    def _wait_for_entry(self, timeout: float | None) -> bool:
        def has_entry() -> bool:
            return self._closed or any(
                self._lanes[lane] for lane in self._lanes
            )

        if not has_entry():
            self._not_empty.wait_for(has_entry, timeout)
        return any(self._lanes[lane] for lane in self._lanes)

    def mark_done(self, entry: SubmissionRecord, outcome: dict) -> None:
        """Record a terminal outcome for an in-flight entry (durable)."""
        line = json.dumps(
            {
                "type": "done",
                "seq": entry.seq,
                "md5": entry.md5,
                "outcome": outcome,
            },
            sort_keys=True,
        )
        line = (line + "\n").encode()
        with self._lock:
            if self._wal is not None:
                self._wal.append(line)
            self._inflight.pop(entry.seq, None)
            live = self._pending.get(entry.md5)
            if live is not None and live.seq == entry.seq:
                del self._pending[entry.md5]
            self.completed[entry.md5] = outcome
            self.registry.inc("serve_completed_total")
            self._update_depth_gauge()

    def requeue(self, entry: SubmissionRecord) -> None:
        """Put an in-flight entry back at the head of its lane.

        Used on graceful shutdown mid-batch; no WAL record is needed
        (the acceptance record is still uncompleted).
        """
        with self._lock:
            self._inflight.pop(entry.seq, None)
            self._lanes[entry.lane].insert(0, entry)
            self._update_depth_gauge()
            self._not_empty.notify()

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def depth_locked(self) -> int:
        """Pending + in-flight count (callers must hold the lock)."""
        return (
            sum(len(entries) for entries in self._lanes.values())
            + len(self._inflight)
        )

    @property
    def depth(self) -> int:
        """Entries accepted but not yet terminal (pending + in flight)."""
        with self._lock:
            return self.depth_locked()

    @property
    def pending(self) -> int:
        """Entries waiting for a consumer (excludes in-flight)."""
        with self._lock:
            return sum(len(entries) for entries in self._lanes.values())

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def pending_md5s(self) -> frozenset[str]:
        """md5s accepted but not yet terminal (pending + in flight).

        A shutdown snapshot: everything in this set still has an
        uncompleted acceptance record in the WAL and will be replayed
        by the next open on the same spool.
        """
        with self._lock:
            md5s = set(self._pending)
            md5s.update(e.md5 for e in self._inflight.values())
            return frozenset(md5s)

    def status(self, md5: str) -> str:
        """``pending`` / ``in_flight`` / ``done`` / ``unknown``."""
        with self._lock:
            return "done" if md5 in self.completed else self._live_status(md5)

    def result(self, md5: str) -> dict:
        """The terminal outcome, else ``{md5, status}``: one read under
        the lock, so never ``done`` without the outcome."""
        with self._lock:
            outcome = self.completed.get(md5)
            if outcome is not None:
                return outcome
            return {"md5": md5, "status": self._live_status(md5)}

    def _live_status(self, md5: str) -> str:  # lock held
        entry = self._pending.get(md5)
        if entry is None:
            return "unknown"
        if entry.seq in self._inflight:
            return "in_flight"
        return "pending"

    def _update_depth_gauge(self) -> None:
        # The unlabelled series is the total (pending + in flight); the
        # lane-labelled series expose per-lane *pending* backlogs so
        # dashboards can show escalated-lane headroom during a bulk
        # flood (in-flight entries have left their lane already).
        self.registry.set_gauge("serve_queue_depth", self.depth_locked())
        for lane, entries in self._lanes.items():
            self.registry.set_gauge(
                "serve_queue_depth", len(entries), lane=lane_name(lane)
            )

    def close(self) -> None:
        """Stop accepting and wake blocked consumers."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __enter__(self) -> "SubmissionQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
