"""The online vetting service: queue in, verdicts out, models hot-swapped.

:class:`OnlineVettingService` is the deployed shape of APICHECKER (§6):
submissions arrive continuously (HTTP or direct calls), are made
durable by the :class:`~repro.serve.queue.SubmissionQueue` WAL, and a
dispatcher thread drains them in priority order through one long-lived
:class:`~repro.core.pipeline.VettingPipeline` (the engine's crash
retry/fallback chain on a slot pool, observation cache) in
micro-batches.  Each batch is analyzed and scored under a single
model-registry read lease, so a concurrent model promotion can never
hand one request a mixed-version answer.  Terminal
outcomes are WAL-recorded, which is what makes kill-and-restart
loss-free and exactly-once.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.android.apk import Apk
from repro.core.pipeline import (
    ObservationCache,
    VettingPipeline,
    observation_cache,
)
from repro.obs import MetricsRegistry, SpanSink
from repro.rules import RuleCompileError, RuleEvaluator, lint_ruleset
from repro.serve.queue import (
    QueueFullError,
    SubmissionQueue,
    SubmissionRecord,
    WrongShardError,
    lane_name,
    shard_of,
)
from repro.serve.registry import (
    ModelRegistry,
    RulesetRegistry,
    score_with_shadow,
)

__all__ = ["DrainStatus", "OnlineVettingService"]

#: End-to-end latency buckets (accept -> terminal outcome, seconds).
E2E_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class DrainStatus:
    """Outcome of :meth:`OnlineVettingService.drain`.

    Truthy exactly when the queue fully drained (so existing
    ``assert service.drain(...)`` call sites keep their meaning);
    :attr:`pending` names the md5s that had not reached a terminal
    outcome when the wait ended, so a caller that timed out knows
    precisely which submissions to log or requeue.
    """

    __slots__ = ("drained", "pending")

    def __init__(self, drained: bool, pending: frozenset[str]):
        self.drained = drained
        self.pending = pending

    def __bool__(self) -> bool:
        return self.drained

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DrainStatus(drained={self.drained}, "
            f"pending={len(self.pending)} md5s)"
        )


class OnlineVettingService:
    """Durable online vetting over a hot-swappable model registry.

    Args:
        models: the model registry; must have (or be given) an active
            version before :meth:`start`.
        queue: the durable submission queue; built over ``spool_dir``
            when not supplied.
        spool_dir: where the queue WAL lives (used only when ``queue``
            is None); ``None`` runs non-durably in memory.
        workers: size of the pipeline's slot pool, which lives as long
            as the served model's engine (a model swap rebuilds it).
        batch_size: max submissions drained per dispatch cycle.  Small
            batches keep the accept-to-verdict latency low; large ones
            keep more of the slot pool busy and amortize the per-batch
            lease, scoring and rules calls.
        max_depth: admission bound for a queue built here.
        cache: md5-keyed observation cache shared across batches
            (``True`` for a fresh in-memory one, a path for a persistent
            one, ``False``/``None`` to disable).
        metrics: unified metrics registry (shared with the queue and
            model registry unless those were built with their own).
        sink: optional span sink.
        poll_seconds: dispatcher wait per idle cycle.
        rules: behavioral rule evaluation for flagged submissions —
            ``True`` (default) compiles the active ruleset against
            each model version's key-API hook set (cached per
            model/ruleset version pair), ``False`` disables it.
            Explanations are embedded in the WAL-recorded outcome, so
            they survive restart and are served by
            ``GET /explain/<md5>``.
        rulesets: the versioned ruleset registry the evaluator reads
            from — a :class:`RulesetRegistry`, a directory path for a
            persistent one, or ``None`` to build one automatically
            (under ``<spool_dir>/rulesets`` when the queue is durable,
            in memory otherwise).  ``POST /v1/admin/ruleset`` /
            :meth:`push_ruleset` hot-swap it atomically.
        shard: ``(shard_id, n_shards)`` when this service is one shard
            of a sharded tier; :meth:`submit` then rejects md5s owned
            by another shard with :class:`WrongShardError` (HTTP 409),
            keeping each md5's WAL history strictly shard-local.
            ``None`` (default) accepts everything.
        pace_seconds_per_minute: slot-occupancy pacing forwarded to the
            :class:`VettingPipeline` (see its docstring).
        drift_monitors: online drift detection over the live traffic —
            a :class:`~repro.drift.detectors.DriftMonitorBank`,
            ``True`` for the default bank (shadow agreement, labeled-lag
            rolling F1, PSI), or ``None``/``False`` (default) to
            disable.  The dispatcher feeds the shadow and PSI monitors
            per scored batch (the PSI reference baselines itself from
            the first scored traffic unless
            :meth:`DriftMonitorBank.set_psi_reference` was called);
            operators feed the rolling-F1 monitor by replaying market
            review labels through :meth:`record_feedback`.  Status is
            exported in :meth:`healthz` and the drift gauges/counters
            land in the metrics exposition.
    """

    def __init__(
        self,
        models: ModelRegistry,
        queue: SubmissionQueue | None = None,
        spool_dir: str | Path | None = None,
        workers: int = 4,
        batch_size: int = 8,
        max_depth: int = 10_000,
        cache: ObservationCache | str | Path | bool | None = True,
        metrics: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
        poll_seconds: float = 0.05,
        rules: bool = True,
        rulesets: RulesetRegistry | str | Path | None = None,
        shard: tuple[int, int] | None = None,
        pace_seconds_per_minute: float = 0.0,
        drift_monitors=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if shard is not None:
            shard = (int(shard[0]), int(shard[1]))
            if not 0 <= shard[0] < shard[1]:
                raise ValueError(
                    f"shard id {shard[0]} out of range for "
                    f"{shard[1]} shard(s)"
                )
        self.shard = shard
        self.pace_seconds_per_minute = pace_seconds_per_minute
        self.models = models
        self.metrics = metrics if metrics is not None else models.metrics
        self.queue = queue if queue is not None else SubmissionQueue(
            spool_dir=spool_dir,
            max_depth=max_depth,
            registry=self.metrics,
        )
        self.workers = workers
        self.batch_size = batch_size
        self.sink = sink
        self.poll_seconds = poll_seconds
        self.cache = observation_cache(cache)
        #: The pipeline for the engine the dispatcher last ran; built,
        #: and closed on a model swap, by the dispatcher thread only.
        self._pipeline: VettingPipeline | None = None
        self.rules_enabled = bool(rules)
        if isinstance(rulesets, RulesetRegistry):
            self.rulesets = rulesets
        else:
            root = rulesets
            if root is None and spool_dir is not None:
                root = Path(spool_dir) / "rulesets"
            self.rulesets = RulesetRegistry(root, metrics=self.metrics)
        #: (model version, ruleset version) -> compiled evaluator;
        #: populated lazily by the dispatcher thread (the only writer).
        self._evaluators: dict[tuple[int, int], RuleEvaluator] = {}
        if drift_monitors is True:
            from repro.drift.detectors import DriftMonitorBank

            drift_monitors = DriftMonitorBank.default(registry=self.metrics)
        elif drift_monitors is False:
            drift_monitors = None
        self.drift_monitors = drift_monitors
        self._accept_wall: dict[int, float] = {}
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._idle = threading.Condition()
        self._processing = 0
        self.started_at: float | None = None

    # ------------------------------------------------------------------
    # Submission-facing API
    # ------------------------------------------------------------------

    def submit(
        self, apk: Apk, lane: int | str = "bulk", body: str | None = None
    ) -> dict:
        """Accept one submission (durable before return).

        ``body`` is the md5-checked JSON text ``apk`` was decoded from;
        the queue writes it to the WAL as it is (see
        :meth:`SubmissionQueue.submit`).

        Returns an acceptance ticket ``{md5, seq, lane, status}``.

        Raises:
            QueueFullError: admission control rejected the submission.
            WrongShardError: this service is shard-scoped and another
                shard owns the submission's md5.
        """
        if self.shard is not None:
            shard_id, n_shards = self.shard
            owner = shard_of(apk.md5, n_shards)
            if owner != shard_id:
                self.metrics.inc("serve_wrong_shard_rejects_total")
                raise WrongShardError(apk.md5, owner, shard_id, n_shards)
        entry = self.queue.submit(apk, lane, body)
        self._accept_wall.setdefault(entry.seq, time.perf_counter())
        return {
            "md5": entry.md5,
            "seq": entry.seq,
            "lane": lane_name(entry.lane),
            "status": self.queue.status(entry.md5),
        }

    def result(self, md5: str) -> dict:
        """Current state of one submission: terminal outcome or status."""
        return self.queue.result(md5)

    def explain(self, md5: str) -> dict:
        """Behavior-rule evidence for one submission.

        Returns ``{md5, status, explanation}`` where ``explanation`` is
        a :meth:`~repro.rules.BehaviorReport.to_dict` payload for
        flagged submissions scored with rules enabled, and ``None`` for
        clean, failed, or pre-rules outcomes.  Non-terminal submissions
        report their queue status with no explanation yet.
        """
        outcome = self.queue.result(md5)
        if outcome["status"] not in ("done", "failed"):
            return outcome
        keys = ("status", "malicious", "explanation", "ruleset_version")
        return {"md5": md5} | {key: outcome.get(key) for key in keys}

    def push_ruleset(self, source, metadata: dict | None = None) -> dict:
        """Validate, publish, and atomically activate a new ruleset.

        ``source`` is raw JSON bytes/text or a parsed artifact — the
        same shapes :func:`repro.rules.load_ruleset` accepts.  The
        ruleset is parsed, linted, and compiled against the active
        model's key-API hook set *before* it is published, so a bad
        push can never take over explanations; swap is atomic under
        the registry's write lock (in-flight micro-batches finish
        under the old version).

        Returns ``{ruleset_version, n_rules, sha256}``.

        Raises:
            ValueError: the ruleset failed parsing, linting, or
                compilation.
        """
        if isinstance(source, bytearray):
            source = bytes(source)
        blob, _ = RulesetRegistry.encode(source)
        specs = RulesetRegistry.decode(blob)
        errors = [
            issue
            for issue in lint_ruleset(specs)
            if issue.severity == "error"
        ]
        if errors:
            raise ValueError(
                "ruleset failed lint: "
                + "; ".join(str(issue) for issue in errors)
            )
        checker = self.models.active_checker()
        try:
            RuleEvaluator.from_specs(
                specs, checker.sdk, tracked_api_ids=checker.key_api_ids
            )
        except RuleCompileError as exc:
            raise ValueError(f"ruleset failed compilation: {exc}") from exc
        rv = self.rulesets.publish(blob, metadata=metadata, activate=True)
        return {
            "ruleset_version": rv.version,
            "n_rules": rv.n_rules,
            "sha256": rv.sha256,
        }

    def record_feedback(self, md5: str, malicious: bool) -> dict:
        """Replay one market review label against a recorded verdict.

        The labeled-lag feedback stream: review labels arrive
        hours-to-days after the service's verdict.  For a terminal
        ``done`` outcome the (predicted, actual) pair feeds the
        rolling-F1 drift monitor; other states record nothing.

        Returns ``{md5, recorded, predicted, actual}`` (``predicted``
        is None when nothing was recorded).
        """
        actual = bool(malicious)
        outcome = self.queue.completed.get(md5)
        if outcome is None or outcome.get("status") != "done":
            return {
                "md5": md5,
                "recorded": False,
                "predicted": None,
                "actual": actual,
            }
        self.metrics.inc("serve_feedback_total")
        predicted = bool(outcome["malicious"])
        if self.drift_monitors is not None:
            self.drift_monitors.record_feedback(predicted, actual)
        return {
            "md5": md5,
            "recorded": True,
            "predicted": predicted,
            "actual": actual,
        }

    def healthz(self) -> dict:
        """Liveness/readiness summary for ``GET /v1/healthz``."""
        n_scored, n_agree, rate = self.models.shadow_agreement()
        rolling = None
        if (
            self.drift_monitors is not None
            and self.drift_monitors.shadow is not None
        ):
            rolling = self.drift_monitors.shadow.rolling_agreement()
        health = {
            "status": "ok" if self.running else "stopped",
            "active_model_version": self.models.active_version,
            "shadow_model_version": self.models.shadow_version,
            "ruleset_version": self.rulesets.active_version,
            "queue_depth": self.queue.depth,
            "completed": len(self.queue.completed),
            "workers": self.workers,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "shadow_agreement": {
                "n_scored": n_scored,
                "n_agree": n_agree,
                "rate": rate,
                "rolling": rolling,
            },
            "drift": (
                self.drift_monitors.status()
                if self.drift_monitors is not None else None
            ),
        }
        if self.shard is not None:
            health["shard"] = self.shard[0]
            health["n_shards"] = self.shard[1]
        return health

    def metrics_text(self) -> str:
        """Prometheus text exposition for ``GET /metrics``."""
        return self.metrics.to_prometheus()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return (
            self._dispatcher is not None and self._dispatcher.is_alive()
        )

    def start(self) -> "OnlineVettingService":
        """Start the dispatcher (idempotent)."""
        if self.running:
            return self
        self.models.active_checker()  # fail fast when nothing is active
        self._stop.clear()
        self.started_at = time.time()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def stop(self, timeout: float = 10.0) -> frozenset[str]:
        """Stop draining; the in-flight batch completes first.

        Returns the md5s abandoned mid-queue — accepted submissions
        that never reached a terminal outcome.  Their acceptance
        records are still uncompleted in the WAL, so a restart on the
        same spool replays them; a shard router logs (or requeues)
        exactly this set on shutdown.
        """
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)
            self._dispatcher = None
        return self.queue.pending_md5s()

    def close(self) -> frozenset[str]:
        """Stop, then shut the slot pool and close the queue."""
        abandoned = self.stop()
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None
        self.queue.close()
        return abandoned

    def drain(self, timeout: float = 30.0) -> DrainStatus:
        """Block until every accepted submission is terminal.

        Returns a :class:`DrainStatus`: truthy when the queue fully
        drained, falsy on timeout — with the still-pending md5 set
        attached either way.  The service must be running.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while True:
                if self.queue.depth == 0 and self._processing == 0:
                    return DrainStatus(True, frozenset())
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self.running:
                    drained = (
                        self.queue.depth == 0 and self._processing == 0
                    )
                    return DrainStatus(drained, self.queue.pending_md5s())
                self._idle.wait(min(remaining, 0.25))

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self.queue.take_batch(
                self.batch_size, timeout=self.poll_seconds
            )
            if not batch:
                continue
            with self._idle:
                self._processing += len(batch)
            try:
                self._process_batch(batch)
            finally:
                with self._idle:
                    self._processing -= len(batch)
                    self._idle.notify_all()

    def _pipeline_for(self, engine) -> VettingPipeline:
        """The pipeline over ``engine``, rebuilt when a model swap
        leases a different production engine."""
        pipeline = self._pipeline
        if pipeline is None or pipeline.engine is not engine:
            if pipeline is not None:
                pipeline.close()
            pipeline = self._pipeline = VettingPipeline(
                engine,
                workers=self.workers,
                cache=self.cache,
                pace_seconds_per_minute=self.pace_seconds_per_minute,
                registry=self.metrics,
                sink=self.sink,
            )
        return pipeline

    def _evaluator_for(
        self,
        version: int,
        checker,
        ruleset_version: int,
        specs,
    ) -> RuleEvaluator:
        """The evaluator compiled for one (model, ruleset) version pair.

        Key-API sets differ per fitted checker and rule evidence per
        ruleset version, so each pair gets its own compilation; a
        ruleset hot swap therefore invalidates the cache by key, never
        in place.  Only the dispatcher thread touches the cache.
        """
        key = (version, ruleset_version)
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = RuleEvaluator.from_specs(
                specs,
                checker.sdk,
                tracked_api_ids=checker.key_api_ids,
                registry=self.metrics,
                sink=self.sink,
            )
            self._evaluators[key] = evaluator
            # Bound the cache: superseded (model, ruleset) compilations
            # are never read again once both pointers move on.
            while len(self._evaluators) > 8:
                stale = next(
                    k for k in self._evaluators if k != key
                )
                del self._evaluators[stale]
        return evaluator

    def _process_batch(self, batch: list[SubmissionRecord]) -> None:
        """Analyze and score one micro-batch under one model lease.

        The ruleset lease is held for the whole batch alongside the
        model lease, so every submission in it is explained by exactly
        one ruleset version — a concurrent ruleset push waits for the
        batch to finish.
        """
        if not batch:
            return
        self.metrics.inc("serve_batches_total")
        with self.models.lease() as (
            version,
            checker,
            shadow,
        ), self.rulesets.lease() as (ruleset_version, ruleset_specs):
            pipeline = self._pipeline_for(checker.production_engine)
            result = pipeline.run([entry.apk for entry in batch])
            # One blocked scoring call for the whole micro-batch (and
            # one more for the shadow model), all under this lease.
            analyzed = [
                analysis
                for analysis in result.analyses
                if analysis is not None
            ]
            verdicts, agreed = score_with_shadow(
                checker,
                shadow,
                [a.observation for a in analyzed],
                analysis_minutes=[a.total_minutes for a in analyzed],
                fell_back=[a.fell_back for a in analyzed],
            )
            shadow_version = shadow[0] if shadow is not None else None
            # Drift monitoring input: the batch's encoded feature rows
            # under the serving model's space.  Encoded inside the
            # lease (the space belongs to the leased checker), consumed
            # outside it.
            drift_matrix = None
            if (
                self.drift_monitors is not None
                and self.drift_monitors.psi is not None
                and analyzed
            ):
                drift_matrix = checker.feature_space.encode_batch(
                    [a.observation for a in analyzed]
                )
            reasons = {f.app_index: f.reason for f in result.failures}
            # One rules call for every flagged app of the batch.
            explanations: list[dict | None] = [None] * len(analyzed)
            flagged = [
                i for i, verdict in enumerate(verdicts) if verdict.malicious
            ]
            if self.rules_enabled and flagged:
                reports = self._evaluator_for(
                    version, checker, ruleset_version, ruleset_specs
                ).evaluate([analyzed[i].observation for i in flagged])
                for i, report in zip(flagged, reports):
                    explanations[i] = report.to_dict()
            outcomes: list[tuple[SubmissionRecord, dict, bool | None]] = []
            scored = 0
            for i, (entry, analysis) in enumerate(
                zip(batch, result.analyses)
            ):
                if analysis is None:
                    outcomes.append(
                        (
                            entry,
                            {
                                "md5": entry.md5,
                                "status": "failed",
                                "reason": reasons[i],
                                "model_version": version,
                                "ruleset_version": ruleset_version,
                                "lane": lane_name(entry.lane),
                            },
                            None,
                        )
                    )
                    continue
                verdict = verdicts[scored]
                explanation = explanations[scored]
                agreement = agreed[scored] if agreed is not None else None
                scored += 1
                outcomes.append(
                    (
                        entry,
                        {
                            "md5": entry.md5,
                            "status": "done",
                            "malicious": verdict.malicious,
                            "probability": verdict.probability,
                            "analysis_minutes": verdict.analysis_minutes,
                            "fell_back": verdict.fell_back,
                            "from_cache": analysis.from_cache,
                            "model_version": version,
                            "shadow_model_version": shadow_version,
                            "ruleset_version": ruleset_version,
                            "lane": lane_name(entry.lane),
                            "explanation": explanation,
                        },
                        agreement,
                    )
                )
        # Outside the lease: durably record outcomes and update tallies
        # (the shadow tally takes the registry's mutate lock, which must
        # never be acquired while holding a read lease).
        if drift_matrix is not None:
            psi = self.drift_monitors.psi
            reference = psi._reference  # noqa: SLF001 - dispatcher-only
            if reference is None or reference.size != drift_matrix.shape[1]:
                # No operator-supplied training reference (or a model
                # swap changed the feature space): baseline on the
                # first traffic scored under this space.
                psi.set_reference(drift_matrix)
            self.drift_monitors.record_block(drift_matrix)
        if agreed is not None:
            self.models.record_shadow_results(agreed)
        for entry, outcome, agreement in outcomes:
            self.metrics.inc("serve_scored_total")
            if agreement is not None and self.drift_monitors is not None:
                self.drift_monitors.record_shadow(agreement)
            if outcome["status"] == "failed":
                self.metrics.inc("serve_failed_total")
            elif outcome.get("malicious"):
                self.metrics.inc("serve_flagged_total")
            self.queue.mark_done(entry, outcome)
            accepted = self._accept_wall.pop(entry.seq, None)
            if accepted is not None:
                self.metrics.observe(
                    "serve_e2e_seconds",
                    time.perf_counter() - accepted,
                    buckets=E2E_BUCKETS,
                )

    def roll_model(self, version: int) -> None:
        """Hot-swap the served model to ``version``; in-flight
        micro-batches finish under their lease."""
        self.models.activate(version)

    def __enter__(self) -> "OnlineVettingService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


# Re-exported for convenience: callers catching admission rejects at the
# service layer shouldn't need to import the queue module.
OnlineVettingService.QueueFullError = QueueFullError
OnlineVettingService.WrongShardError = WrongShardError
