"""Nested timing spans with a structured JSONL event sink.

``with span("engine_analyze", md5=apk.md5):`` times a region on the
wall clock, records the duration into a registry histogram named
``<name>_seconds``, and (when a sink is attached) emits one structured
:class:`SpanEvent` per exit.  Spans nest per thread: each event carries
its parent span's name and its depth, so the JSONL stream reconstructs
the call tree of a vetting day.

The pipeline also deals in *simulated* minutes (emulator occupancy
time), which no wall clock can measure; :func:`record_span` emits the
same event shape for an explicitly-timed interval with
``clock="sim"``, feeding a ``<name>_minutes`` histogram instead.  The
executed slot timeline of a pipeline run is recorded this way, which
is what lets throughput and crash-waste figures be *derived from
recorded spans* rather than re-estimated.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.registry import (
    DEFAULT_MINUTES_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.records import RecordLog, read_records

__all__ = ["SpanEvent", "SpanSink", "span", "record_span"]


@dataclass(frozen=True)
class SpanEvent:
    """One completed span.

    Attributes:
        name: span name (also the histogram prefix).
        start: start time — ``time.time()`` epoch seconds for wall
            spans, simulated minutes for ``clock="sim"`` spans.
        duration: seconds (wall) or minutes (sim).
        clock: ``"wall"`` or ``"sim"``.
        parent: enclosing span's name ("" at the root).
        depth: nesting depth (0 at the root).
        thread: name of the recording thread.
        attrs: free-form attributes supplied at span creation.
    """

    name: str
    start: float
    duration: float
    clock: str = "wall"
    parent: str = ""
    depth: int = 0
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "clock": self.clock,
            "parent": self.parent,
            "depth": self.depth,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SpanEvent":
        return cls(
            name=record["name"],
            start=float(record["start"]),
            duration=float(record["duration"]),
            clock=record.get("clock", "wall"),
            parent=record.get("parent", ""),
            depth=int(record.get("depth", 0)),
            thread=record.get("thread", ""),
            attrs=dict(record.get("attrs", {})),
        )


class SpanSink:
    """Collects span events in memory and optionally appends JSONL.

    Thread-safe.  The in-memory buffer is bounded (``capacity``) so a
    long-running service cannot grow without limit; the JSONL file, when
    given, is a :class:`repro.records.RecordLog`: opening a sink cuts
    off an event torn by a killed process, so new ones never glue on.
    """

    def __init__(
        self, path: str | Path | None = None, capacity: int = 4096
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.path = Path(path) if path is not None else None
        self._events: deque[SpanEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.emitted = 0
        self._log = RecordLog(path, "span") if path is not None else None
        if self._log is not None:
            for _ in self._log.replay():  # repairs a torn tail
                pass

    def emit(self, event: SpanEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.emitted += 1
            if self._log is not None:
                line = json.dumps(event.to_dict(), sort_keys=True) + "\n"
                self._log.append(line.encode())

    def __getstate__(self) -> dict:
        """Pickle support (mirrors :meth:`MetricsRegistry.__getstate__`)."""
        with self._lock:
            state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def events(self, name: str | None = None) -> list[SpanEvent]:
        """Buffered events, optionally filtered by span name."""
        with self._lock:
            events = list(self._events)
        if name is not None:
            events = [e for e in events if e.name == name]
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @staticmethod
    def read(path: str | Path) -> list[SpanEvent]:
        """Load span events back from a JSONL trace file."""
        records = read_records(path, "span")
        return [SpanEvent.from_dict(record) for _, record in records]


_stack = threading.local()


def _current_stack() -> list[str]:
    stack = getattr(_stack, "names", None)
    if stack is None:
        stack = _stack.names = []
    return stack


class span:
    """Context manager timing one region on the wall clock.

    Args:
        name: metric/span name; the duration lands in a histogram
            called ``<name>_seconds``.
        registry: registry to record into (default: the process-wide
            default registry).
        sink: optional :class:`SpanSink` receiving the structured event.
        **attrs: attributes attached to the emitted event (not used as
            histogram labels, to keep metric cardinality bounded).
    """

    __slots__ = ("name", "registry", "sink", "attrs", "_t0", "_wall0")

    def __init__(
        self,
        name: str,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
        **attrs,
    ):
        self.name = name
        self.registry = registry
        self.sink = sink
        self.attrs = attrs
        self._t0 = 0.0
        self._wall0 = 0.0

    def __enter__(self) -> "span":
        _current_stack().append(self.name)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._t0
        stack = _current_stack()
        stack.pop()
        registry = self.registry if self.registry is not None \
            else default_registry()
        registry.observe(f"{self.name}_seconds", duration)
        if self.sink is not None:
            attrs = dict(self.attrs)
            if exc_type is not None:
                attrs["error"] = exc_type.__name__
            self.sink.emit(
                SpanEvent(
                    name=self.name,
                    start=self._wall0,
                    duration=duration,
                    clock="wall",
                    parent=stack[-1] if stack else "",
                    depth=len(stack),
                    thread=threading.current_thread().name,
                    attrs=attrs,
                )
            )


def record_span(
    name: str,
    start: float,
    end: float,
    registry: MetricsRegistry | None = None,
    sink: SpanSink | None = None,
    clock: str = "sim",
    **attrs,
) -> SpanEvent:
    """Record an explicitly-timed span (simulated clocks, replays).

    The duration lands in a ``<name>_minutes`` histogram for
    ``clock="sim"`` spans (the pipeline's simulated emulator-occupancy
    timeline) and in ``<name>_seconds`` otherwise.
    """
    if end < start:
        raise ValueError("span must end at or after its start")
    duration = end - start
    registry = registry if registry is not None else default_registry()
    unit = "minutes" if clock == "sim" else "seconds"
    buckets = DEFAULT_MINUTES_BUCKETS if clock == "sim" else None
    registry.observe(f"{name}_{unit}", duration, buckets=buckets)
    event = SpanEvent(
        name=name,
        start=start,
        duration=duration,
        clock=clock,
        thread=threading.current_thread().name,
        attrs=dict(attrs),
    )
    if sink is not None:
        sink.emit(event)
    return event
