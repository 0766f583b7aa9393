"""Spans around the calls into each layer's public functions.

The benchmark measures layers from its own files: :class:`Recorder`
replaces selected public functions of the ``repro`` package with timed
wrappers, keeps the spans in memory, and hands them back (or writes
them to a file when the process exits).  Nothing under ``src/`` knows
it is being traced.

A span is ``(stage, key, start, end, batch)``: ``key`` ties it to a
submission (its md5, the trace id) or carries a row count, and
``batch`` numbers the dispatcher micro-batch the span ran in.  The
dispatcher's micro-batch starts when ``SubmissionQueue.take_batch``
returns work; every span its thread records until the next one belongs
to that batch.  Times are ``time.perf_counter()``, which on Linux is
the system-wide monotonic clock, so spans from a server process line up
with the load generator's own timestamps.

A stage nested inside itself (a subclass method calling its base, a
forest fitting its trees) records only the outermost call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from pathlib import Path


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.batches: dict[int, dict] = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._next_batch = 0

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, stage: str, key=None, after=None):
        """Time every call of ``owner.attr`` as ``stage``.

        ``key(args, kwargs, result)`` names the span's submission or
        size; ``after(args, result)`` runs once the call returned.
        """
        original = owner.__dict__[attr]
        local = self._local
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if getattr(local, stage, False):
                return original(*args, **kwargs)
            setattr(local, stage, True)
            result, returned = None, False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                setattr(local, stage, False)
                spans.append((
                    stage,
                    key(args, kwargs, result) if key and returned else None,
                    start, end, getattr(local, "batch", None),
                ))
                if after is not None and returned:
                    after(args, result)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def begin_batch(self, md5s: list[str]) -> None:
        """Open a micro-batch on the calling (dispatcher) thread."""
        self._next_batch += 1
        self._local.batch = self._next_batch
        self.batches[self._next_batch] = {
            "md5s": md5s, "taken": time.perf_counter(),
        }

    # -- layers ----------------------------------------------------------

    def install_scoring(self) -> None:
        """Encode, score and rules: the layers every workload runs."""
        import repro.ml  # noqa: F401 - binds every bundled classifier
        from repro.core.features import FeatureSpace
        from repro.core.pipeline import VettingPipeline
        from repro.ml.base import Classifier
        from repro.rules.evaluator import RuleEvaluator

        rows = _rows
        self.wrap(VettingPipeline, "run", "pipeline.run", key=rows)
        self.wrap(FeatureSpace, "encode_block", "features.encode", key=rows)
        for cls in _subclasses(Classifier):
            if "predict_proba_batch" in cls.__dict__:
                self.wrap(cls, "predict_proba_batch", "ml.score",
                          key=lambda a, k, r: len(r))
        self.wrap(RuleEvaluator, "evaluate", "rules.evaluate", key=rows)

    def install_server(self) -> None:
        """Front door, codec, queue and dispatcher of a serving process."""
        import repro.serve.http as http
        import repro.serve.shard as shard
        from repro.serve.queue import SubmissionQueue

        self.install_scoring()
        self.wrap(http.ServiceApi, "submit", "http.submit", key=_ticket_md5)
        self.wrap(http.ServiceApi, "result", "http.result", key=_md5_arg)
        for module in (http, shard):
            self.wrap(module, "parse_submission", "codec.decode",
                      key=lambda a, k, r: r[0].md5)
        self.wrap(shard.RouterApi, "submit", "router.submit",
                  key=_ticket_md5)
        self.wrap(shard.RouterApi, "result", "router.result", key=_md5_arg)
        self.wrap(shard.ShardRouter, "proxy", "router.proxy",
                  key=lambda a, k, r: f"{a[2]} {k.get('md5')}")
        self.wrap(SubmissionQueue, "submit", "queue.admit",
                  key=lambda a, k, r: r.md5)
        self.wrap(SubmissionQueue, "take_batch", "queue.take",
                  key=lambda a, k, r: len(r),
                  after=lambda a, r: r and self.begin_batch(
                      [entry.md5 for entry in r]))
        self.wrap(SubmissionQueue, "mark_done", "queue.done",
                  key=lambda a, k, r: a[1].md5)

    def install_vetting(self) -> None:
        """Daily batch, triage and the month-end retrain, in process."""
        import repro.core.checker as checker
        from repro.core.triage import TriageCenter
        from repro.core.vetting import VettingService
        from repro.ml.base import Classifier

        self.install_scoring()
        self.wrap(VettingService, "process_day", "vetting.process_day")
        self.wrap(TriageCenter, "triage_flagged", "vetting.triage")
        self.wrap(checker.ApiChecker, "fit", "retrain.fit")
        self.wrap(checker, "select_key_apis", "selection.select")
        for cls in _subclasses(Classifier):
            if "fit" in cls.__dict__:
                self.wrap(cls, "fit", "ml.fit")

    # -- output ----------------------------------------------------------

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "batches": self.batches}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def load(path: Path) -> tuple[list[tuple], dict[int, dict]]:
    payload = json.loads(path.read_text())
    batches = {int(k): v for k, v in payload["batches"].items()}
    return [tuple(span) for span in payload["spans"]], batches


def _rows(args, kwargs, result) -> int | None:
    """Row count of a batch call: its first sequence argument."""
    for arg in args[1:]:
        if hasattr(arg, "__len__"):
            return len(arg)
    return None


def _md5_arg(args, kwargs, result) -> str | None:
    """The md5 a ``result(md5)`` handler was called with."""
    return kwargs["md5"] if "md5" in kwargs else args[1]


def _ticket_md5(args, kwargs, response) -> str | None:
    """The md5 of an accepted submission, from its 202 ticket."""
    if response.status != 202:
        return None
    if response.payload is not None:
        return response.payload.get("md5")
    return json.loads(response.text).get("md5")


def _subclasses(cls) -> list[type]:
    found, stack = [], [cls]
    while stack:
        current = stack.pop()
        found.append(current)
        stack.extend(current.__subclasses__())
    return found
