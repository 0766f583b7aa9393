"""Replay planned days of traffic through the real online serving tier.

:class:`CampaignRunner` is the one scenario runner: an adversarial
campaign and a drifting market year both reach it as a day-by-day
schedule of :class:`~repro.scenarios.traffic.PlannedSubmission` s
(:func:`~repro.scenarios.traffic.plan_traffic` /
:func:`~repro.scenarios.traffic.plan_market_days`).  It is
deliberately *not* a simulator shortcut: it
publishes the trained model into a real
:class:`~repro.serve.registry.ModelRegistry`, stands up either a single
in-process :class:`~repro.serve.service.OnlineVettingService`
(``shards=1``) or a multi-process :class:`~repro.serve.shard.ShardRouter`
(``shards>=2``), and pushes every planned submission through the same
admission control, WAL, micro-batch dispatcher, rules evaluator, and
model-lease machinery production traffic takes.  Backpressure is
handled the way a well-behaved client handles it — bounded retry with
backoff on 429/503, never dropping a submission — so the burst_flood
acceptance gate ("zero lost under flood") measures the tier, not the
harness.

Day boundaries are where model evolution happens: when the campaign
sets ``retrain_day``, triage feedback (ground truth, optionally
label-poisoned) on everything served so far is folded into the training
set, a candidate is fitted and gated against the live model, and a
promoted candidate is rolled out — a hot swap in-process, a rolling
kill/replay/restart across shards.

With ``drift_monitors`` on, the in-process service runs a
:class:`~repro.drift.detectors.DriftMonitorBank` whose PSI reference is
the training observations under the serving model's feature space;
after each day the runner replays the day's review labels through
``record_feedback`` (the labeled-lag stream) and snapshots the
``drift`` block of ``healthz()`` into the day report.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.checker import ApiChecker
from repro.corpus.generator import AppCorpus, CorpusGenerator
from repro.corpus.market import poison_labels
from repro.drift.detectors import DriftMonitorBank
from repro.emulator.device import DeviceEnvironment
from repro.ml.metrics import evaluate
from repro.obs import MetricsRegistry
from repro.scenarios.campaign import Campaign
from repro.scenarios.report import (
    CampaignReport,
    DayReport,
    percentile,
    precision_recall_f1,
)
from repro.scenarios.traffic import PlannedSubmission, plan_traffic
from repro.serve.queue import QueueFullError
from repro.serve.registry import ModelRegistry, PromotionPolicy
from repro.serve.service import OnlineVettingService
from repro.serve.shard import ShardRouter, ShardUnavailableError

__all__ = ["CampaignRunner", "run_campaign"]

#: Statuses that mean a submission has left the queue for good.
_TERMINAL = ("done", "failed")

#: Admission bound when the campaign sets no ``max_depth`` of its own.
MAX_DEPTH = 10_000
#: Multiprocessing start method for shard workers.
MP_START = "spawn"
#: Max seconds to keep retrying one submission through 429/503
#: backpressure before declaring it lost (which raises — losing
#: submissions is a harness failure).
SUBMIT_TIMEOUT_S = 60.0
#: Max seconds to wait for one day's verdicts.
VERDICT_TIMEOUT_S = 600.0
#: Seconds between result polls while a day's verdicts are outstanding.
POLL_S = 0.05


class CampaignRunner:
    """Replay one :class:`Campaign` and produce a
    :class:`~repro.scenarios.report.CampaignReport`.

    Args:
        campaign: the spec to run.
        checker: a *fitted* checker; its model is published into a fresh
            registry and served (re-homed to the campaign's device
            environment via :meth:`ApiChecker.with_env`).
        catalog: archetype catalog for traffic planning.  Pass the
            catalog the training corpus came from so campaign traffic
            and the trained model share one behaviour world; defaults
            to the fresh generator's own.
        schedule: the days to replay, one list of submissions per day
            (e.g. :func:`~repro.scenarios.traffic.plan_market_days`);
            must hold ``campaign.days`` days.  ``None`` (default) plans
            the campaign's own traffic with
            :func:`~repro.scenarios.traffic.plan_traffic`.
        shards: 1 = in-process service, >= 2 = multi-process router.
        workers / batch_size: per-service dispatch configuration.
        train_corpus / train_labels / train_observations: the original
            training set (and optionally its precomputed study
            observations).  Required for ``retrain_day`` campaigns —
            day-boundary retraining folds triage feedback into this
            base; without it the retrain is recorded as skipped.
        drift_monitors: serve with the default drift monitor bank, its
            PSI reference fixed from ``train_observations``, and feed
            each day's labels back through ``record_feedback``.  In
            process only (``shards=1``).
        workdir: spool + model-artifact root (a temp dir when None).
    """

    def __init__(
        self,
        campaign: Campaign,
        checker: ApiChecker,
        *,
        catalog=None,
        schedule: list[list[PlannedSubmission]] | None = None,
        shards: int = 1,
        workers: int = 2,
        batch_size: int = 4,
        train_corpus: AppCorpus | None = None,
        train_labels: np.ndarray | None = None,
        train_observations: list | None = None,
        drift_monitors: bool = False,
        workdir: str | Path | None = None,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if schedule is not None and len(schedule) != campaign.days:
            raise ValueError(
                f"schedule holds {len(schedule)} day(s); campaign "
                f"{campaign.name!r} has {campaign.days}"
            )
        if drift_monitors and shards > 1:
            raise ValueError(
                "drift monitors run on the in-process service only "
                "(shards=1)"
            )
        if drift_monitors and train_observations is None:
            raise ValueError(
                "drift monitors need train_observations for the PSI "
                "reference"
            )
        self.campaign = campaign
        self.checker = checker
        self.catalog = catalog
        self.schedule = schedule
        self.shards = shards
        self.workers = workers
        self.batch_size = batch_size
        self.max_depth = (
            campaign.max_depth
            if campaign.max_depth is not None
            else MAX_DEPTH
        )
        self.train_corpus = train_corpus
        self.train_labels = (
            np.asarray(train_labels, dtype=bool)
            if train_labels is not None
            else (train_corpus.labels if train_corpus is not None else None)
        )
        self.train_observations = train_observations
        self.drift_monitors = drift_monitors
        self.workdir = Path(
            workdir
            if workdir is not None
            else tempfile.mkdtemp(prefix=f"campaign-{campaign.name}-")
        )

    # ------------------------------------------------------------------

    def run(self) -> CampaignReport:
        campaign = self.campaign
        env = (
            DeviceEnvironment.hardened_emulator()
            if campaign.hardened
            else DeviceEnvironment.stock_emulator()
        )
        serving = self.checker.with_env(env)
        models = ModelRegistry(
            self.workdir / "models", metrics=MetricsRegistry()
        )
        models.publish(
            serving,
            metadata={"campaign": campaign.name, "env": "hardened"
                      if campaign.hardened else "stock"},
            activate=True,
        )

        schedule = self.schedule
        if schedule is None:
            generator = CorpusGenerator(
                self.checker.sdk, seed=campaign.seed, catalog=self.catalog
            )
            schedule = plan_traffic(campaign, generator)

        report = CampaignReport(
            campaign=campaign.to_dict(), shards=self.shards
        )
        config = dict(
            spool_dir=self.workdir / "spool",
            workers=self.workers,
            batch_size=self.batch_size,
            max_depth=self.max_depth,
        )
        if self.shards >= 2:
            backend = ShardRouter(
                models.root, n_shards=self.shards, mp_start=MP_START, **config
            )
        else:
            monitors = None
            if self.drift_monitors:
                # A fixed training reference, as EvolutionLoop sets it:
                # baselining on the first scored micro-batch would make
                # the PSI (and every alarm) depend on batch timing.
                monitors = DriftMonitorBank.default(registry=models.metrics)
                monitors.set_psi_reference(
                    serving.feature_space.encode_batch(
                        self.train_observations
                    )
                )
            backend = OnlineVettingService(
                models,
                metrics=models.metrics,
                drift_monitors=monitors,
                **config,
            )
        history: list[PlannedSubmission] = []
        with backend:
            for day, planned in enumerate(schedule):
                day_report = self._run_day(day, planned, backend, report)
                report.days.append(day_report)
                history.extend(planned)
                if campaign.retrain_day == day:
                    decision = self._retrain(
                        day, history, env, models, backend, report
                    )
                    report.evolution.append(decision)
        return report

    # -- one day -------------------------------------------------------

    def _run_day(
        self,
        day: int,
        planned: list[PlannedSubmission],
        backend,
        report: CampaignReport,
    ) -> DayReport:
        day_report = DayReport(day=day, n_submitted=len(planned))
        fresh: list[PlannedSubmission] = []
        for sub in planned:
            md5 = sub.apk.md5
            if md5 in report.truths:
                continue  # resubmission of known content; coalesced
            fresh.append(sub)
            report.truths[md5] = sub.label
            report.waves[md5] = sub.wave
            report.first_day[md5] = day
        day_report.n_unique = len(fresh)

        accepted_at: dict[str, float] = {}
        for sub in fresh:
            self._submit_with_backoff(sub, backend, day_report)
            accepted_at[sub.apk.md5] = time.perf_counter()
            day_report.peak_queue_depth = max(
                day_report.peak_queue_depth, backend.healthz()["queue_depth"]
            )

        outcomes = self._await_verdicts(
            [sub.apk.md5 for sub in fresh], backend, day_report, accepted_at,
            report,
        )

        truths, preds = [], []
        wave_hits: dict[str, int] = {}
        wave_totals: dict[str, int] = {}
        for sub in fresh:
            md5 = sub.apk.md5
            outcome = outcomes[md5]
            failed = outcome["status"] == "failed"
            malicious = bool(outcome.get("malicious", False)) and not failed
            report.verdicts[md5] = malicious
            truths.append(report.truths[md5])
            preds.append(malicious)
            if failed:
                day_report.n_failed += 1
            if malicious:
                day_report.n_flagged += 1
                explanation = outcome.get("explanation") or {}
                if explanation.get("hits"):
                    day_report.n_explained += 1
            if sub.wave is not None and report.truths[md5]:
                wave_totals[sub.wave] = wave_totals.get(sub.wave, 0) + 1
                if malicious:
                    wave_hits[sub.wave] = wave_hits.get(sub.wave, 0) + 1

        day_report.precision, day_report.recall, day_report.f1 = (
            precision_recall_f1(truths, preds)
        )
        day_report.wave_recall = {
            wave: wave_hits.get(wave, 0) / total
            for wave, total in wave_totals.items()
        }
        day_latencies = [
            report.latencies_s[sub.apk.md5]
            for sub in fresh
            if sub.apk.md5 in report.latencies_s
        ]
        day_report.latency_p50_s = percentile(day_latencies, 50)
        day_report.latency_p95_s = percentile(day_latencies, 95)
        if self.drift_monitors:
            # Labeled-lag feedback: the day's review labels land once
            # it closes, updating the rolling-F1 monitor.
            for sub in fresh:
                backend.record_feedback(sub.apk.md5, sub.label)
            day_report.drift = backend.healthz()["drift"]
        return day_report

    def _submit_with_backoff(
        self, sub: PlannedSubmission, backend, day_report: DayReport
    ) -> None:
        """Submit one app, absorbing 429/503 backpressure via retry.

        Every rejection is counted; giving up raises — a lost
        submission is a harness failure, never silently absorbed into
        the detection numbers.
        """
        deadline = time.monotonic() + SUBMIT_TIMEOUT_S
        backoff = 0.05
        while True:
            try:
                backend.submit(sub.apk, sub.lane)
                return
            except QueueFullError:
                day_report.rejected_429 += 1
            except ShardUnavailableError:
                day_report.unavailable_503 += 1
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"submission {sub.apk.md5} lost: backpressure did "
                    f"not clear within {SUBMIT_TIMEOUT_S}s"
                )
            time.sleep(backoff)
            backoff = min(backoff * 2, 1.0)

    def _await_verdicts(
        self,
        md5s: list[str],
        backend,
        day_report: DayReport,
        accepted_at: dict[str, float],
        report: CampaignReport,
    ) -> dict[str, dict]:
        """Poll every submission to a terminal outcome."""
        outcomes: dict[str, dict] = {}
        outstanding = list(md5s)
        deadline = time.monotonic() + VERDICT_TIMEOUT_S
        while outstanding:
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"day {day_report.day}: {len(outstanding)} "
                    "submissions never reached a terminal outcome"
                )
            day_report.peak_queue_depth = max(
                day_report.peak_queue_depth, backend.healthz()["queue_depth"]
            )
            still = []
            for md5 in outstanding:
                outcome = backend.result(md5)
                if outcome.get("status") in _TERMINAL:
                    outcomes[md5] = outcome
                    report.latencies_s[md5] = (
                        time.perf_counter() - accepted_at[md5]
                    )
                else:
                    still.append(md5)
            outstanding = still
            if outstanding:
                time.sleep(POLL_S)
        return outcomes

    # -- model evolution -----------------------------------------------

    def _retrain(
        self,
        day: int,
        history: list[PlannedSubmission],
        env: DeviceEnvironment,
        models: ModelRegistry,
        backend,
        report: CampaignReport,
    ) -> dict:
        """Fold triage feedback into a candidate; gate; maybe roll out."""
        campaign = self.campaign
        if self.train_corpus is None:
            return {
                "day": day,
                "decision": "skipped",
                "reason": "no training corpus supplied to the runner",
            }
        seen = set()
        feedback: list[PlannedSubmission] = []
        for sub in history:
            if sub.apk.md5 in seen:
                continue
            seen.add(sub.apk.md5)
            feedback.append(sub)
        truth = np.array(
            [report.truths[s.apk.md5] for s in feedback], dtype=bool
        )
        labels = poison_labels(
            truth,
            campaign.label_flip_rate,
            np.random.default_rng(campaign.seed + 9001),
        )
        n_flipped = int(np.sum(labels != truth))

        feedback_corpus = AppCorpus(
            self.checker.sdk, [s.apk for s in feedback]
        )
        combined = AppCorpus(
            self.checker.sdk,
            list(self.train_corpus) + list(feedback_corpus),
        )
        combined_labels = np.concatenate(
            [self.train_labels.astype(bool), labels]
        )
        candidate = ApiChecker(
            self.checker.sdk,
            feature_mode=self.checker.feature_mode,
            feature_encoding=self.checker.feature_encoding,
            monkey_events=self.checker.monkey_events,
            env=env,
            decision_threshold=self.checker.decision_threshold,
            seed=self.checker.seed,
        )
        study_observations = None
        if self.train_observations is not None:
            study_observations = list(self.train_observations) + list(
                candidate.study_engine().observations(feedback_corpus)
            )
        candidate.fit(
            combined, combined_labels, study_observations=study_observations
        )

        # Gate on the feedback set as the market labelled it: the live
        # model's verdicts came off the serving tier, the candidate's
        # from a local batch — both judged against the same (possibly
        # poisoned) labels, which is exactly the blind spot label_noise
        # probes.
        active_pred = np.array(
            [report.verdicts[s.apk.md5] for s in feedback], dtype=bool
        )
        active_f1 = evaluate(labels, active_pred).f1
        candidate_pred = np.array(
            [v.malicious for v in candidate.vet_batch(feedback_corpus)],
            dtype=bool,
        )
        candidate_f1 = evaluate(labels, candidate_pred).f1

        decision = {
            "day": day,
            "n_feedback": len(feedback),
            "n_flipped": n_flipped,
            "active_f1": active_f1,
            "candidate_f1": candidate_f1,
        }
        version = models.publish(
            candidate,
            metadata={"campaign": campaign.name, "feedback_day": day},
        ).version
        models.stage_shadow(version)
        models.record_shadow_results(active_pred == candidate_pred)
        promoted = models.promote(
            PromotionPolicy(metric="f1", min_samples=0),
            f1=(active_f1, candidate_f1),
            rollout=backend.roll_model,
        ).promoted
        decision["decision"] = "promoted" if promoted else "rejected"
        if promoted:
            decision["model_version"] = version
        return decision


def run_campaign(
    campaign: Campaign, checker: ApiChecker, **kwargs
) -> CampaignReport:
    """Convenience wrapper: build a runner, run it, return the report."""
    return CampaignRunner(campaign, checker, **kwargs).run()
