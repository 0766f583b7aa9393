"""Parallel vetting pipeline: crash-aware dispatch over emulator slots.

The deployed APICHECKER vets ~10K submissions/day on one 16-emulator
server (§5.2).  :class:`VettingPipeline` reproduces that executor shape:
a long-lived worker pool of :data:`EMULATOR_SLOTS` slots, where each
worker holds one slot for one app's whole
:meth:`DynamicAnalysisEngine.analyze` — crash detection, bounded retry
and fallback to the full emulator, the engine's one retry/fallback
chain.  Every attempt after an app's first is a requeue that waits out
a bounded (capped, exponential) simulated backoff before its slot
interval starts.  The per-slot timeline is recorded as apps actually
complete, so the resulting :class:`ScheduleReport` reflects real
execution order rather than post-hoc list scheduling.

Determinism: every analysis draws randomness from a fresh
:meth:`DynamicAnalysisEngine.rng_for` generator — a pure function of
the engine seed and the APK md5 — so an app's attempt sequence is the
same regardless of worker count.  Sequential, 1-worker, and N-worker
runs produce bit-identical observations.

:class:`ObservationCache` short-circuits re-emulation for resubmitted
and repackaged APKs (md5-keyed), the dominant share of daily market
traffic; entries optionally persist as JSON lines compatible with
:mod:`repro.core.reporting`.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path

import numpy as np

from repro.android.apk import Apk
from repro.core.engine import (
    AnalysisFailure,
    AppAnalysis,
    DynamicAnalysisEngine,
)
from repro.core.features import AppObservation
from repro.core.reporting import LogRecord
from repro.corpus.generator import AppCorpus
from repro.obs import (
    DEFAULT_MINUTES_BUCKETS,
    MetricsRegistry,
    SpanSink,
    record_span,
)
from repro.records import RecordLog

#: Emulator slots of the one analysis server: 16 of its 20 cores run
#: emulators, the other 4 schedule, monitor and log (§4.2), and the
#: production deployment is that single server (§5.2).
EMULATOR_SLOTS = 16

#: Simulated delay before a requeued app's next attempt, doubled per
#: requeue up to the cap (the "bounded" part of bounded backoff).
BASE_BACKOFF_MINUTES = 0.25
MAX_BACKOFF_MINUTES = 4.0

#: Keys of the unified counts schema shared by :meth:`PipelineResult.as_dict`
#: and :meth:`repro.core.vetting.DailyReport.as_dict` — one shape for every
#: stats surface, sourced from the run's registry counters.
UNIFIED_COUNT_KEYS = (
    "submissions",
    "analyzed",
    "cached",
    "failures",
    "requeues",
    "cache_hits",
    "cache_misses",
    "workers",
    "makespan_minutes",
    "throughput_per_day",
    "wall_seconds",
)


def unified_counts(**values) -> dict:
    """Build the unified stats dict, enforcing the shared schema."""
    missing = [k for k in UNIFIED_COUNT_KEYS if k not in values]
    extra = [k for k in values if k not in UNIFIED_COUNT_KEYS]
    if missing or extra:
        raise ValueError(
            f"unified counts schema mismatch: missing={missing} "
            f"extra={extra}"
        )
    return {key: values[key] for key in UNIFIED_COUNT_KEYS}


def render_summary(counts: dict) -> str:
    """One-line operational summary of a unified counts dict."""
    return (
        f"{counts['submissions']} submissions: "
        f"{counts['analyzed']} analyzed, {counts['cached']} cached, "
        f"{counts['failures']} failed | {counts['requeues']} requeues | "
        f"cache {counts['cache_hits']}/"
        f"{counts['cache_hits'] + counts['cache_misses']} hits | "
        f"{counts['workers']} workers, "
        f"makespan {counts['makespan_minutes']:.1f} sim-min, "
        f"{counts['throughput_per_day']:.0f} apps/day, "
        f"wall {counts['wall_seconds']:.2f}s"
    )


@dataclass(frozen=True)
class ScheduledTask:
    """One app's executed interval on an emulator slot (pool index)."""

    app_index: int
    slot: int
    start_minute: float
    end_minute: float


@dataclass
class ScheduleReport:
    """The per-slot timeline a pipeline run actually executed.

    Attributes:
        tasks: per-app slot intervals, in completion order.
        makespan_minutes: when the last analysis finishes.
        slot_busy_minutes: total busy time per emulator slot.
    """

    tasks: list[ScheduledTask]
    makespan_minutes: float
    slot_busy_minutes: np.ndarray

    @property
    def utilization(self) -> float:
        """Mean slot utilization over the makespan (0.0 when empty)."""
        if self.makespan_minutes <= 0:
            return 0.0
        return float(
            self.slot_busy_minutes.mean() / self.makespan_minutes
        )

    def throughput_per_day(self) -> float:
        """Apps per 24h at the observed pace (0.0 for empty batches)."""
        if self.makespan_minutes <= 0:
            return 0.0
        return len(self.tasks) * (24 * 60) / self.makespan_minutes

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Record this schedule's slot-occupancy figures into a registry.

        Emits ``cluster_tasks_total`` / ``cluster_busy_minutes_total``
        counters, per-slot busy-time observations into a
        ``cluster_slot_busy_minutes`` histogram, and makespan /
        utilization gauges — the occupancy surface the 16-emulator
        server is operated by.
        """
        registry.inc("cluster_tasks_total", len(self.tasks))
        registry.inc(
            "cluster_busy_minutes_total",
            float(self.slot_busy_minutes.sum()),
        )
        for slot_busy in self.slot_busy_minutes:
            registry.observe(
                "cluster_slot_busy_minutes",
                float(slot_busy),
                buckets=DEFAULT_MINUTES_BUCKETS,
            )
        registry.set_gauge("cluster_makespan_minutes", self.makespan_minutes)
        registry.set_gauge("cluster_slot_utilization", self.utilization)
        registry.set_gauge("cluster_slots", len(self.slot_busy_minutes))

    @classmethod
    def from_executed(
        cls, tasks: list[ScheduledTask], n_slots: int
    ) -> "ScheduleReport":
        """Build a report from tasks as a pipeline ran them: each
        task's slot and start/end were recorded when a worker completed
        it."""
        if n_slots <= 0:
            raise ValueError("n_slots must be positive")
        busy = np.zeros(n_slots)
        for t in tasks:
            busy[t.slot] += t.end_minute - t.start_minute
        makespan = max((t.end_minute for t in tasks), default=0.0)
        return cls(list(tasks), makespan, busy)


class ObservationCache:
    """md5-keyed observation store with optional JSON-lines persistence.

    The daily vetting loop sees heavy resubmission traffic (updates,
    repackaged APKs retried by developers); an app whose md5 was already
    analyzed skips re-emulation entirely and replays the stored
    observation.  Thread-safe.

    The file is an analysis log (:mod:`repro.core.reporting`) without
    verdicts: one :class:`~repro.core.reporting.LogRecord` per line.

    Args:
        path: a :class:`repro.records.RecordLog` to load and append
            to, created now (an unwritable location fails before a day
            of emulation); ``None`` keeps the cache purely in memory.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._entries: dict[str, AppObservation] = {}
        self._lock = threading.Lock()
        self._log = RecordLog(path, "cache") if path is not None else None
        if self._log is not None:
            for _, record in self._log.replay():
                obs = LogRecord.from_dict(record).observation
                self._entries[obs.apk_md5] = obs

    def get(self, md5: str) -> AppObservation | None:
        """Look up an observation (None on a miss)."""
        with self._lock:
            return self._entries.get(md5)

    def put(self, obs: AppObservation) -> None:
        """Store an observation (idempotent per md5) and persist it."""
        with self._lock:
            if obs.apk_md5 in self._entries:
                return
            self._entries[obs.apk_md5] = obs
            if self._log is not None:
                line = json.dumps(LogRecord(obs).to_dict()) + "\n"
                self._log.append(line.encode())

    def __contains__(self, md5: str) -> bool:
        with self._lock:
            return md5 in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def observation_cache(
    cache: ObservationCache | str | Path | bool | None,
) -> ObservationCache | None:
    """Resolve a service's ``cache`` option: an :class:`ObservationCache`
    as-is, a path for a persistent one, ``True`` for a fresh in-memory
    one, ``False``/``None`` for none."""
    if cache is True:
        return ObservationCache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, (str, Path)):
        return ObservationCache(cache)
    return cache


@dataclass(frozen=True)
class PipelineFailure:
    """One app that exhausted every backend under pipeline execution."""

    app_index: int
    apk_md5: str
    reason: str


@dataclass
class PipelineResult:
    """Everything one :meth:`VettingPipeline.run` produced.

    Attributes:
        analyses: per-app outcomes in submission order (None at indices
            that failed every backend; see ``failures``).
        schedule: per-slot timeline derived from actual execution order.
        cache_hits / cache_misses: observation-cache lookups this run,
            one per app (a later copy of an md5 already in the batch
            is a hit), so they sum to the batch size with a cache.
        requeues: attempts after each app's first (crash retries +
            backend fallbacks).
        failures: apps no backend could analyze.
        wall_seconds: real elapsed time of the run.
        workers: worker-pool size used.
    """

    analyses: list[AppAnalysis | None]
    schedule: ScheduleReport
    cache_hits: int
    cache_misses: int
    requeues: int
    failures: tuple[PipelineFailure, ...]
    wall_seconds: float
    workers: int

    @property
    def observations(self) -> list[AppObservation]:
        """Successful observations in submission order."""
        return [a.observation for a in self.analyses if a is not None]

    @property
    def n_analyzed(self) -> int:
        return sum(
            1 for a in self.analyses if a is not None and not a.from_cache
        )

    @property
    def n_cached(self) -> int:
        return sum(1 for a in self.analyses if a is not None and a.from_cache)

    def as_dict(self) -> dict:
        """Unified counts (same schema as ``DailyReport.as_dict``)."""
        return unified_counts(
            submissions=len(self.analyses),
            analyzed=self.n_analyzed,
            cached=self.n_cached,
            failures=len(self.failures),
            requeues=self.requeues,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            workers=self.workers,
            makespan_minutes=self.schedule.makespan_minutes,
            throughput_per_day=self.schedule.throughput_per_day(),
            wall_seconds=self.wall_seconds,
        )

    def summary(self) -> str:
        """One-line operational summary (same shape as DailyReport's)."""
        return render_summary(self.as_dict())


def _cached_analysis(obs: AppObservation) -> AppAnalysis:
    """An analysis served from the cache: no emulation, no sim time."""
    return AppAnalysis(
        observation=obs,
        result=None,
        attempts=0,
        fell_back=False,
        total_minutes=0.0,
        from_cache=True,
    )


class VettingPipeline:
    """Runs analyses on a long-lived worker pool of emulator slots.

    Args:
        engine: the analysis engine (shared by all workers; its per-app
            rng derivation is what makes sharing safe).
        workers: override the pool size (clamped to
            :data:`EMULATOR_SLOTS`; default: all slots).
        cache: md5-keyed observation cache; hits skip emulation.
        pace_seconds_per_minute: real seconds a worker holds its slot
            per simulated emulation minute.  0.0 (default) runs the
            simulation flat out; benchmarks set it >0 to reproduce the
            emulator-occupancy-bound regime the production server
            operates in, where parallel slots buy real wall-clock time.
        registry: metrics registry the pipeline records into (default:
            the engine's registry, so engine and pipeline telemetry
            land in one place).
        sink: optional span sink for structured trace events (default:
            the engine's sink).

    The pool lives as long as the pipeline; :meth:`close` shuts it.
    """

    def __init__(
        self,
        engine: DynamicAnalysisEngine,
        workers: int | None = None,
        cache: ObservationCache | None = None,
        pace_seconds_per_minute: float = 0.0,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
    ):
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        if pace_seconds_per_minute < 0:
            raise ValueError("pace must be non-negative")
        self.engine = engine
        self.workers = (
            EMULATOR_SLOTS if workers is None
            else min(workers, EMULATOR_SLOTS)
        )
        self.cache = cache
        self.pace_seconds_per_minute = pace_seconds_per_minute
        self.registry = registry if registry is not None else engine.registry
        self.sink = sink if sink is not None else engine.sink
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="vetting-slot"
        )

    def close(self) -> None:
        """Shut the slot pool down once its running analyses finish."""
        self._pool.shutdown(wait=True)

    def _vet(self, apk: Apk, enqueued: float) -> AppAnalysis | AnalysisFailure:
        """Worker side: one app's whole retry/fallback chain on a slot."""
        started = time.perf_counter()
        self.registry.observe("pipeline_queue_wait_seconds", started - enqueued)
        try:
            outcome = self.engine.analyze(apk)
            minutes = outcome.total_minutes
        except AnalysisFailure as exc:
            outcome = exc
            minutes = exc.wasted_minutes
        except Exception as exc:
            # Content the emulator cannot run at all (say, a call rate
            # near float max that overflows the invocation count) fails
            # this app alone; its batch-mates and the caller carry on.
            # The reason names the error and the frame that raised it.
            where = traceback.extract_tb(exc.__traceback__)[-1]
            outcome = AnalysisFailure(
                f"analysis of {apk.package_name} raised "
                f"{type(exc).__name__} at {Path(where.filename).name}:"
                f"{where.lineno}: {exc}",
                apk_md5=apk.md5,
                attempts=1,
            )
            minutes = 0.0
        if self.pace_seconds_per_minute:
            time.sleep(minutes * self.pace_seconds_per_minute)
        # Slot-occupancy wall time of the app (pace included).
        self.registry.observe(
            "pipeline_slot_seconds", time.perf_counter() - started
        )
        return outcome

    def run(self, corpus: AppCorpus | list[Apk]) -> PipelineResult:
        """Vet a batch, recording each slot interval as its app finishes."""
        apks = list(corpus)
        started = time.perf_counter()
        n = len(apks)
        registry = self.registry
        registry.inc("pipeline_submissions_total", n)
        analyses: list[AppAnalysis | None] = [None] * n
        failures: list[PipelineFailure] = []
        requeues = hits = misses = 0

        # With a cache, each md5 emulates once per batch: later copies
        # wait on the first (md5 -> their indices) and count as hits.
        copies: dict[str, list[int]] = {}
        futures: dict[Future, int] = {}
        for i, apk in enumerate(apks):
            if self.cache is not None:
                cached = self.cache.get(apk.md5)
                if cached is not None or apk.md5 in copies:
                    hits += 1
                    registry.inc("pipeline_cache_hits_total")
                    if cached is None:
                        copies[apk.md5].append(i)
                        continue
                    registry.inc("pipeline_cached_total")
                    analyses[i] = _cached_analysis(cached)
                    continue
                misses += 1
                registry.inc("pipeline_cache_misses_total")
                copies[apk.md5] = []
            futures[self._pool.submit(self._vet, apk, started)] = i

        # Simulated per-slot clocks for the executed timeline.
        slot_heap: list[tuple[float, int]] = [
            (0.0, s) for s in range(self.workers)
        ]
        timeline: list[ScheduledTask] = []
        for future in as_completed(futures):
            index = futures[future]
            outcome = future.result()
            md5 = apks[index].md5
            # Every attempt after the first was a requeue that waited
            # out its backoff before the app's next start.
            retried = outcome.attempts - 1
            backoff = sum(
                min(MAX_BACKOFF_MINUTES, BASE_BACKOFF_MINUTES * 2**r)
                for r in range(retried)
            )
            if retried:
                requeues += retried
                registry.inc("pipeline_requeues_total", retried)
                registry.inc("pipeline_backoff_minutes_total", backoff)
            if isinstance(outcome, AnalysisFailure):
                for j in (index, *copies.get(md5, ())):
                    registry.inc("pipeline_failed_total")
                    failures.append(PipelineFailure(j, md5, str(outcome)))
                continue
            analyses[index] = outcome
            avail, slot = heappop(slot_heap)
            start = max(avail, backoff)
            end = start + outcome.total_minutes
            heappush(slot_heap, (end, slot))
            timeline.append(
                ScheduledTask(
                    app_index=index,
                    slot=slot,
                    start_minute=start,
                    end_minute=end,
                )
            )
            registry.inc("pipeline_analyzed_total")
            # The executed slot interval, recorded as a simulated-clock
            # span: throughput and occupancy figures derive from these
            # records rather than from post-hoc estimates.
            record_span(
                "pipeline_task",
                start,
                end,
                registry=registry,
                sink=self.sink,
                app_index=index,
                slot=slot,
                attempts=outcome.attempts,
            )
            if self.cache is not None:
                self.cache.put(outcome.observation)
                for j in copies[md5]:
                    registry.inc("pipeline_cached_total")
                    analyses[j] = _cached_analysis(outcome.observation)

        schedule = ScheduleReport.from_executed(timeline, self.workers)
        schedule.register_metrics(registry)
        registry.set_gauge("pipeline_workers", self.workers)
        registry.observe(
            "pipeline_run_seconds", time.perf_counter() - started
        )
        return PipelineResult(
            analyses=analyses,
            schedule=schedule,
            cache_hits=hits,
            cache_misses=misses,
            requeues=requeues,
            failures=tuple(sorted(failures, key=lambda f: f.app_index)),
            wall_seconds=time.perf_counter() - started,
            workers=self.workers,
        )
