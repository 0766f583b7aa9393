"""Structured results of a campaign replay.

A :class:`CampaignReport` is what the runner hands back: per-day
detection quality and serving health (plus the drift monitors' state
when they ran), the model-evolution decisions taken at day boundaries,
and the raw verdict map the determinism test compares across shard
counts.  Everything is plain data —
``to_dict()``/``to_json()`` round the whole report into the JSON the
bench gate and the CLI ``--out`` flag write.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.ml.metrics import confusion_counts

__all__ = ["DayReport", "CampaignReport", "percentile", "precision_recall_f1"]


def percentile(values: list[float], q: float) -> float:
    """``q``-th percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def precision_recall_f1(
    truths: list[bool], predictions: list[bool]
) -> tuple[float, float, float]:
    """Precision, recall and F1 of served verdicts against labels.

    An empty denominator reads 1.0: a day with nothing flagged has no
    false alarm, a day without malware has nothing to miss.  (This is
    where it departs from :func:`repro.ml.metrics.evaluate`, which
    reads 0.0 for degenerate folds.)
    """
    tp, fp, _, fn = confusion_counts(truths, predictions)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


@dataclass
class DayReport:
    """Detection quality and serving health for one campaign day."""

    day: int
    n_submitted: int = 0
    n_unique: int = 0
    rejected_429: int = 0
    unavailable_503: int = 0
    peak_queue_depth: int = 0
    n_flagged: int = 0
    n_explained: int = 0
    n_failed: int = 0
    precision: float = 1.0
    recall: float = 1.0
    f1: float = 1.0
    latency_p50_s: float = 0.0
    latency_p95_s: float = 0.0
    wave_recall: dict[str, float] = field(default_factory=dict)
    #: The ``drift`` block of ``healthz()`` after the day's feedback
    #: (None when the run had no drift monitors).
    drift: dict | None = None

    @property
    def explanation_coverage(self) -> float:
        """Share of flagged apps carrying a non-empty rules explanation."""
        return self.n_explained / self.n_flagged if self.n_flagged else 1.0

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "n_submitted": self.n_submitted,
            "n_unique": self.n_unique,
            "rejected_429": self.rejected_429,
            "unavailable_503": self.unavailable_503,
            "peak_queue_depth": self.peak_queue_depth,
            "n_flagged": self.n_flagged,
            "n_explained": self.n_explained,
            "n_failed": self.n_failed,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "explanation_coverage": self.explanation_coverage,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "wave_recall": dict(self.wave_recall),
            "drift": self.drift,
        }


@dataclass
class CampaignReport:
    """Everything a campaign replay produced.

    Attributes:
        campaign: the spec that ran, as a plain dict.
        shards: serving topology (0 = single in-process service).
        days: one :class:`DayReport` per campaign day.
        evolution: model-evolution decisions taken at day boundaries
            (each a dict with at least ``day``/``decision``).
        verdicts: md5 -> served malicious verdict (failed analyses are
            recorded as ``False`` — a lost detection, not a lost app).
        truths: md5 -> ground-truth malice.
        waves: md5 -> wave name (None for baseline traffic).
        first_day: md5 -> the day the app was first submitted.
        latencies_s: md5 -> client-observed submit-to-terminal seconds.
    """

    campaign: dict
    shards: int
    days: list[DayReport] = field(default_factory=list)
    evolution: list[dict] = field(default_factory=list)
    verdicts: dict[str, bool] = field(default_factory=dict)
    truths: dict[str, bool] = field(default_factory=dict)
    waves: dict[str, str | None] = field(default_factory=dict)
    first_day: dict[str, int] = field(default_factory=dict)
    latencies_s: dict[str, float] = field(default_factory=dict)
    lost: int = 0

    # -- aggregate views ----------------------------------------------

    def verdict_set(self) -> tuple[tuple[str, bool], ...]:
        """Canonical (md5, malicious) set for determinism comparisons."""
        return tuple(sorted(self.verdicts.items()))

    def wave_recall(self, wave: str, min_day: int = 0) -> float:
        """Recall over one wave's submissions from ``min_day`` onward.

        ``min_day`` lets gates measure post-feedback detection: e.g.
        repackaging_wave retrains after day 0, so the acceptance gate
        asks for recall over the wave's day >= 1 submissions only.
        """
        hits = total = 0
        for md5, wave_name in self.waves.items():
            if wave_name != wave:
                continue
            if self.first_day.get(md5, 0) < min_day:
                continue
            if not self.truths.get(md5, False):
                continue
            total += 1
            if self.verdicts.get(md5, False):
                hits += 1
        return hits / total if total else 1.0

    def _overall(self) -> tuple[float, float, float]:
        return precision_recall_f1(
            [self.truths[m] for m in self.verdicts],
            list(self.verdicts.values()),
        )

    @property
    def overall_precision(self) -> float:
        return self._overall()[0]

    @property
    def overall_recall(self) -> float:
        return self._overall()[1]

    @property
    def first_alarm_day(self) -> int | None:
        """First day that closed with the drift bank alarmed (None =
        never, or no drift monitors)."""
        for day in self.days:
            if day.drift is not None and day.drift["alarmed"]:
                return day.day
        return None

    @property
    def alarms_total(self) -> int | None:
        """Drift alarms raised over the run (None without monitors)."""
        if not self.days or self.days[-1].drift is None:
            return None
        return int(self.days[-1].drift["alarms_total"])

    @property
    def latency_p50_s(self) -> float:
        return percentile(list(self.latencies_s.values()), 50)

    @property
    def latency_p95_s(self) -> float:
        return percentile(list(self.latencies_s.values()), 95)

    @property
    def rejected_429(self) -> int:
        return sum(d.rejected_429 for d in self.days)

    @property
    def unavailable_503(self) -> int:
        return sum(d.unavailable_503 for d in self.days)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "shards": self.shards,
            "days": [d.to_dict() for d in self.days],
            "evolution": list(self.evolution),
            "totals": {
                "n_unique": len(self.verdicts),
                "lost": self.lost,
                "rejected_429": self.rejected_429,
                "unavailable_503": self.unavailable_503,
                "precision": self.overall_precision,
                "recall": self.overall_recall,
                "latency_p50_s": self.latency_p50_s,
                "latency_p95_s": self.latency_p95_s,
                "first_alarm_day": self.first_alarm_day,
                "alarms_total": self.alarms_total,
            },
            "verdicts": dict(self.verdicts),
            "truths": dict(self.truths),
            "waves": dict(self.waves),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
