"""Open-loop load against a ``/v1`` front door: one process, two threads.

The calling thread sends ``POST /v1/submit`` on one keep-alive
connection at fixed due times; a poller thread sends
``GET /v1/result/<md5>`` for every acknowledged, not yet terminal md5
on a second connection, each md5 at most once per poll cadence.
With ``phased`` polling an md5's first poll comes at a stratified phase
of the cadence after its ack (:func:`stats.poll_phase`), so the wait
from its verdict being ready to the poll that sees it is spread evenly
over one cadence whatever the in-server time, and verdict latencies
move one for one with the time the server spends after the ack;
otherwise it comes one cadence after the ack.

Every latency is measured from the request's *due* time, so a stall
also charges the requests queued behind it.  How late the generator
itself sent (beyond waiting for its connection) is recorded as lag.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

from httpclient import Connection, HttpError
from stats import lag_ms, poll_phase

TERMINAL = ("done", "failed")


def is_verdict(payload: dict) -> bool:
    """A terminal outcome that carries its verdict.

    ``GET /v1/result`` can answer ``{"status": "done"}`` without the
    verdict fields for an instant after the WAL completion record is
    written and before the outcome is published; such an answer is
    counted and polled again.
    """
    status = payload.get("status")
    return status == "failed" or (status == "done" and "malicious" in payload)


@dataclass
class Sub:
    """One scheduled submission and what happened to it."""

    md5: str
    body: bytes
    lane: str
    due: float = 0.0
    sent: float | None = None
    acked: float | None = None
    status: int | None = None
    verdict_at: float | None = None
    outcome: dict | None = None
    poll_times: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.status == 202

    @property
    def submit_s(self) -> float:
        return self.acked - self.due

    @property
    def verdict_s(self) -> float:
        return self.verdict_at - self.due


@dataclass
class Rung:
    """One offered rate held for a fixed schedule."""

    rate: float
    subs: list[Sub]
    lag_ms: list[float] = field(default_factory=list)
    last_due: float = 0.0

    def backlog_at_end(self) -> int:
        """Submissions without a verdict when the schedule ended."""
        return sum(
            1 for s in self.subs
            if s.verdict_at is None or s.verdict_at > self.last_due
        )

    def completion_rate(self) -> float:
        """Verdicts per second, from the first due time to the last verdict.

        At a rate the tier sustains this is about the offered rate; above
        it, the rate at which verdicts actually came back.
        """
        done = [s.verdict_at for s in self.subs if s.verdict_at is not None]
        if not done:
            return 0.0
        return len(done) / (max(done) - self.subs[0].due)


class OpenLoop:
    """The two-connection open-loop client."""

    def __init__(self, host: str, port: int, poll_cadence_s: float,
                 phased: bool):
        self.submit_conn = Connection(host, port)
        self.poll_conn = Connection(host, port)
        self.cadence = poll_cadence_s
        self.phased = phased
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int, Sub]] = []
        self._ticket = itertools.count()
        self._stopping = False
        self._lag_sink: list[float] = []
        self._poller = threading.Thread(
            target=self._poll_loop, name="perfbench-poller", daemon=True
        )
        self.poll_errors = 0
        self.verdictless_done = 0

    def start(self) -> "OpenLoop":
        self._poller.start()
        return self

    def close(self) -> None:
        with self._cond:
            self._stopping = True
            self._heap.clear()
            self._cond.notify_all()
        self._poller.join(30.0)
        self.submit_conn.close()
        self.poll_conn.close()

    # -- submitting (calling thread) -----------------------------------

    def run(self, rung: Rung, start_at: float | None = None) -> Rung:
        """Send one rung's schedule, then wait for its verdicts."""
        t0 = start_at if start_at is not None else time.perf_counter()
        for i, sub in enumerate(rung.subs):
            sub.due = t0 + i / rung.rate
        rung.last_due = rung.subs[-1].due
        with self._cond:
            self._lag_sink = rung.lag_ms
        free_at = t0
        for i, sub in enumerate(rung.subs):
            wait = sub.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sub.sent = time.perf_counter()
            rung.lag_ms.append(lag_ms(sub.sent, sub.due, free_at))
            try:
                sub.status, _ = self.submit_conn.request(
                    "POST", "/v1/submit", sub.body
                )
            except HttpError:
                sub.status = 0
            sub.acked = free_at = time.perf_counter()
            if sub.accepted:
                first = (poll_phase(i, self.cadence) if self.phased
                         else self.cadence)
                self._watch(sub, sub.acked + first)
        return rung

    def wait(self, subs: list[Sub], timeout: float) -> bool:
        """Block until every accepted sub has a verdict (False on timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if all(s.verdict_at is not None for s in subs if s.accepted):
                    return True
                left = deadline - time.monotonic()
                if left <= 0:
                    return False
                self._cond.wait(min(left, 0.1))

    # -- polling (poller thread) ---------------------------------------

    def _watch(self, sub: Sub, at: float) -> None:
        with self._cond:
            heapq.heappush(self._heap, (at, next(self._ticket), sub))
            self._cond.notify_all()

    def _poll_loop(self) -> None:
        free_at = time.perf_counter()
        while True:
            with self._cond:
                while True:
                    if self._stopping:
                        return
                    if not self._heap:
                        self._cond.wait()
                        continue
                    due = self._heap[0][0]
                    left = due - time.perf_counter()
                    if left <= 0:
                        _, _, sub = heapq.heappop(self._heap)
                        lags = self._lag_sink
                        break
                    self._cond.wait(left)
            sent = time.perf_counter()
            lags.append(lag_ms(sent, due, free_at))
            try:
                status, data = self.poll_conn.request(
                    "GET", f"/v1/result/{sub.md5}"
                )
                payload = json.loads(data) if status in (200, 202) else {}
            except (HttpError, ValueError):
                status, payload = 0, {}
                self.poll_errors += 1
            received = free_at = time.perf_counter()
            sub.poll_times.append((sent, received))
            if status == 200 and payload.get("status") in TERMINAL \
                    and not is_verdict(payload):
                self.verdictless_done += 1
            if status == 200 and is_verdict(payload):
                with self._cond:
                    sub.outcome = payload
                    sub.verdict_at = received
                    self._cond.notify_all()
            else:
                self._watch(sub, max(sent + self.cadence, received))
