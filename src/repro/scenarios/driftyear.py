"""Replay a drifting year through the live serving tier.

:class:`DriftYearRunner` is the drift counterpart of
:class:`~repro.scenarios.runner.CampaignRunner`: instead of an
adversarial campaign spec it takes a
:class:`~repro.drift.market.DriftingMarket` and pushes its day slices —
SDK releases, signature mutations, emergent families, benign fashion
shifts and all — through a real
:class:`~repro.serve.service.OnlineVettingService` with the online
drift monitors switched on.  Each day's market review labels are fed
back through :meth:`~repro.serve.service.OnlineVettingService.record_feedback`
(the labeled-lag stream), so the rolling-F1 and PSI monitors see
exactly what production would see, and the per-day report snapshots the
``drift`` block that ``/v1/healthz`` serves.

The serving model is deliberately *frozen* at its bootstrap fit: the
runner demonstrates detection of drift, not recovery from it (recovery
is :class:`~repro.core.evolution.EvolutionLoop` with a
:class:`~repro.drift.policy.RetrainPolicy`; see
``benchmarks/bench_drift.py`` for the two side by side).
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.checker import ApiChecker
from repro.drift.market import DriftingMarket
from repro.ml.metrics import evaluate
from repro.obs import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.service import OnlineVettingService

__all__ = ["DriftDayReport", "DriftYearReport", "DriftYearRunner",
           "replay_drift_year"]

#: Statuses that mean a submission has left the queue for good.
_TERMINAL = ("done", "failed")


@dataclass
class DriftDayReport:
    """One market day served and fed back."""

    day: int
    n_submitted: int = 0
    n_flagged: int = 0
    precision: float = 1.0
    recall: float = 1.0
    f1: float = 1.0
    drift_score: float = 0.0
    alarmed: bool = False
    events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "n_submitted": self.n_submitted,
            "n_flagged": self.n_flagged,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "drift_score": self.drift_score,
            "alarmed": self.alarmed,
            "events": list(self.events),
        }


@dataclass
class DriftYearReport:
    """Everything one drifting replay produced."""

    days: list = field(default_factory=list)
    drift: dict | None = None
    alarms_total: int = 0
    events: list = field(default_factory=list)

    @property
    def n_days(self) -> int:
        return len(self.days)

    @property
    def first_alarm_day(self) -> int | None:
        """First day the monitor bank was alarmed (None = never)."""
        for record in self.days:
            if record.alarmed:
                return record.day
        return None

    def to_dict(self) -> dict:
        return {
            "n_days": self.n_days,
            "first_alarm_day": self.first_alarm_day,
            "alarms_total": self.alarms_total,
            "drift": self.drift,
            "events": list(self.events),
            "days": [record.to_dict() for record in self.days],
        }


class DriftYearRunner:
    """Replay ``days`` slices of a drifting market through serving.

    Args:
        market: the drifting market to replay.  Must be fresh (its
            bootstrap snapshot is drawn here, before any slice).
        days: how many days to serve, from day 0 (default: the whole
            market horizon).
        bootstrap: bootstrap corpus size for the frozen serving model.
        workers / batch_size: service dispatch configuration.
        checker_seed: seed for the bootstrap fit.
        workdir: spool + model root (a temp dir when None).
        verdict_timeout: max seconds to wait for one day's verdicts.
    """

    def __init__(
        self,
        market: DriftingMarket,
        *,
        days: int | None = None,
        bootstrap: int = 300,
        workers: int = 2,
        batch_size: int = 8,
        checker_seed: int = 0,
        workdir: str | Path | None = None,
        verdict_timeout: float = 300.0,
    ):
        self.market = market
        self.days = market.days if days is None else int(days)
        if not 1 <= self.days <= market.days:
            raise ValueError(
                f"days must be in [1, {market.days}], got {self.days}"
            )
        self.bootstrap = bootstrap
        self.workers = workers
        self.batch_size = batch_size
        self.checker_seed = checker_seed
        self.workdir = Path(
            workdir
            if workdir is not None
            else tempfile.mkdtemp(prefix="drift-year-")
        )
        self.verdict_timeout = verdict_timeout

    def run(self) -> DriftYearReport:
        boot = self.market.bootstrap(self.bootstrap)
        checker = ApiChecker(
            self.market.sdk, seed=self.checker_seed
        ).fit(boot)
        models = ModelRegistry(
            self.workdir / "models", metrics=MetricsRegistry()
        )
        models.publish(
            checker, metadata={"source": "drift-year"}, activate=True
        )
        report = DriftYearReport()
        with OnlineVettingService(
            models,
            spool_dir=self.workdir / "spool",
            workers=self.workers,
            batch_size=self.batch_size,
            metrics=models.metrics,
            drift_monitors=True,
        ) as service:
            for day in range(self.days):
                report.days.append(self._run_day(day, service))
            report.drift = service.healthz().get("drift")
            if report.drift is not None:
                report.alarms_total = int(report.drift["alarms_total"])
            report.events = [
                {"day": e.day, "kind": e.kind, "detail": e.detail}
                for e in self.market.events
            ]
        return report

    def _run_day(
        self, day: int, service: OnlineVettingService
    ) -> DriftDayReport:
        """Serve one day slice, then feed its review labels back."""
        sl = self.market.day_slice(day)
        record = DriftDayReport(
            day=day,
            events=[
                {"kind": e.kind, "detail": e.detail} for e in sl.events
            ],
        )
        truth: dict[str, bool] = {}
        for apk, label in zip(sl.corpus, sl.market_labels):
            if apk.md5 in truth:
                continue  # duplicate content coalesces in the queue
            truth[apk.md5] = bool(label)
            service.submit(apk)
        record.n_submitted = len(truth)
        outcomes = self._await_verdicts(list(truth), service, day)

        truths, preds = [], []
        for md5, actual in truth.items():
            outcome = outcomes[md5]
            malicious = (
                bool(outcome.get("malicious", False))
                and outcome["status"] == "done"
            )
            truths.append(actual)
            preds.append(malicious)
            if malicious:
                record.n_flagged += 1
            # Labeled-lag feedback: the market's review label lands
            # once the day closes, updating the rolling-F1 monitor.
            service.record_feedback(md5, actual)
        day_report = evaluate(
            np.asarray(truths, dtype=bool), np.asarray(preds, dtype=bool)
        )
        record.precision = day_report.precision
        record.recall = day_report.recall
        record.f1 = day_report.f1
        drift = service.healthz().get("drift")
        if drift is not None:
            record.alarmed = bool(drift["alarmed"])
            record.drift_score = max(
                (m["drift_score"] for m in drift["monitors"].values()),
                default=0.0,
            )
        return record

    def _await_verdicts(
        self, md5s: list[str], service: OnlineVettingService, day: int
    ) -> dict[str, dict]:
        outcomes: dict[str, dict] = {}
        outstanding = list(md5s)
        deadline = time.monotonic() + self.verdict_timeout
        while outstanding:
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"day {day}: {len(outstanding)} submissions never "
                    "reached a terminal outcome"
                )
            still = []
            for md5 in outstanding:
                outcome = service.result(md5)
                if outcome.get("status") in _TERMINAL:
                    outcomes[md5] = outcome
                else:
                    still.append(md5)
            outstanding = still
            if outstanding:
                time.sleep(0.02)
        return outcomes


def replay_drift_year(
    market: DriftingMarket, **kwargs
) -> DriftYearReport:
    """Convenience wrapper: build a runner, run it, return the report."""
    return DriftYearRunner(market, **kwargs).run()
