"""Daily market vetting service (§5.2 production operation).

One :class:`VettingService` instance is "the single commodity server"
running APICHECKER at T-Market: it takes a day's submissions, runs their
analyses through the parallel :class:`VettingPipeline` (a worker pool
sized to the 16 emulator slots, with crash requeue and an md5-keyed
observation cache for resubmission traffic), classifies each app, and
runs the FP triage workflow on everything flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.core.checker import ApiChecker, VetVerdict
from repro.core.pipeline import (
    ObservationCache,
    ScheduleReport,
    VettingPipeline,
    observation_cache,
    render_summary,
    unified_counts,
)
from repro.core.triage import FalsePositiveReport, TriageCenter
from repro.corpus.generator import AppCorpus
from repro.obs import MetricsRegistry, SpanSink, span
from repro.rules import BehaviorReport, RuleEvaluator


@dataclass(frozen=True)
class DailyReport:
    """Operational summary of one vetting day.

    Attributes:
        n_apps: submissions processed.
        n_flagged: apps APICHECKER marked malicious.
        verdicts: per-app outcomes.
        schedule: per-slot timeline of the day's analyses, recorded from
            actual pipeline execution order.
        mean_minutes / median_minutes / max_minutes: per-app analysis
            time distribution (cache hits cost ~0 minutes).
        fp_report: outcome of the flagged-app triage (None when no
            ground truth was supplied).
        cache_hits: submissions served from the observation cache
            without re-emulation.
        requeues: crash/incompatibility requeues the pipeline handled.
        n_analyzed: submissions that went through emulation.
        n_cached: submissions served from the cache.
        cache_misses: observation-cache misses this day.
        wall_seconds: real elapsed time of the day's pipeline run.
        workers: pipeline worker-pool size used.
        behavior_reports: one rule-evidence report per *flagged* app
            (submission order) when the service runs with a rule
            evaluator; empty otherwise.
    """

    n_apps: int
    n_flagged: int
    verdicts: tuple[VetVerdict, ...]
    schedule: ScheduleReport
    mean_minutes: float
    median_minutes: float
    max_minutes: float
    fp_report: FalsePositiveReport | None = None
    cache_hits: int = 0
    requeues: int = 0
    n_analyzed: int = 0
    n_cached: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    workers: int = 0
    behavior_reports: tuple[BehaviorReport, ...] = ()

    def explanation_for(self, md5: str) -> BehaviorReport | None:
        """The rule-evidence report for one flagged app, if any."""
        for report in self.behavior_reports:
            if report.apk_md5 == md5:
                return report
        return None

    @property
    def throughput_per_day(self) -> float:
        return self.schedule.throughput_per_day()

    @property
    def flagged_fraction(self) -> float:
        return self.n_flagged / self.n_apps if self.n_apps else 0.0

    def as_dict(self) -> dict:
        """Unified counts (same schema as ``PipelineResult.as_dict``).

        A day's report and a raw pipeline run print through one shape,
        so the CLI, the docs examples, and offline tooling all read the
        same keys (plus a ``flagged`` entry only a classified day has).
        """
        counts = unified_counts(
            submissions=self.n_apps,
            analyzed=self.n_analyzed,
            cached=self.n_cached,
            failures=0,  # process_day raises when any backend fails
            requeues=self.requeues,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            workers=self.workers,
            makespan_minutes=self.schedule.makespan_minutes,
            throughput_per_day=self.schedule.throughput_per_day(),
            wall_seconds=self.wall_seconds,
        )
        counts["flagged"] = self.n_flagged
        return counts

    def summary(self) -> str:
        """One-line operational summary (same shape as the pipeline's)."""
        counts = self.as_dict()
        return render_summary(counts) + f" | {counts['flagged']} flagged"


class VettingService:
    """APICHECKER in production: vet, schedule, triage, repeat.

    Args:
        checker: a fitted :class:`ApiChecker`.
        triage: FP/FN triage center (default: one keyed to the
            checker's key-API set).
        workers: pipeline worker-pool size (default: all 16 emulator
            slots of the deployed server).
        cache: observation cache shared across days — an
            :class:`ObservationCache`, a persistence path, or ``True``
            for a fresh in-memory cache.  ``None`` or ``False`` disables
            caching and re-emulates every submission.
        registry: metrics registry service/pipeline telemetry lands in
            (default: the production engine's registry, so the whole
            stack reports through one surface).
        sink: optional span sink for per-day trace events (default:
            the production engine's sink).
        rules: behavioral rule evaluation for flagged apps — ``True``
            (default) compiles the bundled ruleset against the
            checker's key-API hook set, a :class:`~repro.rules.RuleEvaluator`
            is used as-is, and ``False``/``None`` disables it.
    """

    def __init__(
        self,
        checker: ApiChecker,
        triage: TriageCenter | None = None,
        workers: int | None = None,
        cache: ObservationCache | str | Path | bool | None = None,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
        rules: RuleEvaluator | bool | None = True,
    ):
        checker._require_fitted()
        self.checker = checker
        self.registry = (
            registry
            if registry is not None
            else checker.production_engine.registry
        )
        self.sink = sink if sink is not None else checker.production_engine.sink
        if triage is None:
            # Frequent keys (invoked by most apps, e.g. the negative-SRC
            # common-operation APIs) say nothing about attack capability
            # and are excluded from the "barely uses keys" count.
            exclude = None
            if checker.selection is not None:
                usage = checker.selection.usage_fraction
                exclude = np.flatnonzero(usage >= 0.5)
            triage = TriageCenter(
                checker.key_api_ids, exclude_api_ids=exclude
            )
        self.triage = triage
        self.cache = observation_cache(cache)
        self.pipeline = VettingPipeline(
            checker.production_engine,
            workers=workers,
            cache=self.cache,
            registry=self.registry,
            sink=self.sink,
        )
        if rules is True:
            rules = RuleEvaluator.builtin(
                checker.sdk,
                tracked_api_ids=checker.key_api_ids,
                registry=self.registry,
                sink=self.sink,
            )
        elif rules is False:
            rules = None
        self.rules = rules
        self.days_processed = 0

    def process_day(
        self,
        submissions: AppCorpus,
        true_labels: np.ndarray | None = None,
    ) -> DailyReport:
        """Vet one day of submissions.

        Args:
            submissions: the day's APKs.
            true_labels: review-process labels; when given, flagged apps
                go through FP triage.
        """
        if len(submissions) == 0:
            raise ValueError("a vetting day needs at least one submission")
        with span(
            "service_process_day",
            registry=self.registry,
            sink=self.sink,
            day=self.days_processed,
            submissions=len(submissions),
        ):
            result = self.pipeline.run(submissions)
            if result.failures:
                detail = "; ".join(f.reason for f in result.failures[:3])
                raise RuntimeError(
                    f"{len(result.failures)} submissions could not be "
                    f"analyzed by any backend: {detail}"
                )
            # One blocked scoring call for the whole day — the columnar
            # batch path, not a per-app loop.
            verdicts = self.checker.verdicts_from_observations(
                [a.observation for a in result.analyses],
                analysis_minutes=[a.total_minutes for a in result.analyses],
                fell_back=[a.fell_back for a in result.analyses],
            )
        minutes = np.array([v.analysis_minutes for v in verdicts])
        observations = [a.observation for a in result.analyses]
        behavior_reports: tuple[BehaviorReport, ...] = ()
        if self.rules is not None:
            flagged_obs = [
                obs
                for obs, verdict in zip(observations, verdicts)
                if verdict.malicious
            ]
            behavior_reports = tuple(self.rules.evaluate(flagged_obs))
        fp_report = None
        if true_labels is not None:
            fp_report = self.triage.triage_flagged(
                list(submissions), verdicts, np.asarray(true_labels)
            )
            if behavior_reports:
                # Share the one evaluation already done above instead of
                # scoring the same flagged observations twice.
                fp_report = replace(
                    fp_report, behavior_reports=behavior_reports
                )
        self.days_processed += 1
        n_flagged = sum(v.malicious for v in verdicts)
        self.registry.inc("service_days_total")
        self.registry.inc("service_submissions_total", len(submissions))
        self.registry.inc("service_flagged_total", n_flagged)
        self.registry.set_gauge(
            "service_throughput_per_day",
            result.schedule.throughput_per_day(),
        )
        return DailyReport(
            n_apps=len(submissions),
            n_flagged=n_flagged,
            verdicts=tuple(verdicts),
            schedule=result.schedule,
            mean_minutes=float(minutes.mean()),
            median_minutes=float(np.median(minutes)),
            max_minutes=float(minutes.max()),
            fp_report=fp_report,
            cache_hits=result.cache_hits,
            requeues=result.requeues,
            n_analyzed=result.n_analyzed,
            n_cached=result.n_cached,
            cache_misses=result.cache_misses,
            wall_seconds=result.wall_seconds,
            workers=result.workers,
            behavior_reports=behavior_reports,
        )
