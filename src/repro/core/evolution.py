"""Monthly model evolution (§5.3).

APICHECKER retrains every month: the training pool absorbs the month's
newly reviewed submissions, the key-API selection is re-run (the SDK
itself gains APIs every few months), and the classifier is refit.  The
paper observes the key-API count drifting only slightly (425–432,
Fig. 14) while online precision/recall stay above 98%/96% (Fig. 12).

Online metrics are measured *prospectively*: each month's submissions
are vetted with the model trained on prior months only, then folded
into the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.checker import ApiChecker
from repro.core.engine import DynamicAnalysisEngine
from repro.core.features import AppObservation
from repro.corpus.generator import AppCorpus
from repro.corpus.market import MarketStream
from repro.emulator.backends import GoogleEmulator
from repro.ml.metrics import ClassificationReport, evaluate


@dataclass(frozen=True)
class MonthlyRecord:
    """One month of online operation.

    Attributes:
        month: 1-based month index.
        report: prospective precision/recall for the month's traffic.
        n_key_apis: size of the key set after the month's retraining
            (of the *serving* model: a gate-rejected candidate leaves
            the previous model's key set in place).
        sdk_size: SDK API count that month.
        pool_size: training-pool size after absorption.
        promotion: the gate's decision for the month's retrained
            candidate (None when no ``model_gate`` is installed and the
            swap was unconditional).  Carries ``promoted``,
            ``agreement``, and ``reason`` when a
            :class:`repro.serve.registry.ShadowPromotionGate` is wired
            in.
        retrained: whether the loop's retrain policy fired this month
            (always True for the legacy policy-less loop; also None
            promotion when it did not fire).
        decision: the :class:`~repro.drift.policy.RetrainDecision`
            behind ``retrained`` (None for the policy-less loop).
    """

    month: int
    report: ClassificationReport
    n_key_apis: int
    sdk_size: int
    pool_size: int
    promotion: object | None = None
    retrained: bool = True
    decision: object | None = None


class EvolutionLoop:
    """Drives monthly vet-then-retrain cycles over a market stream.

    Args:
        stream: the market's monthly submission stream.
        initial_corpus: bootstrap training corpus.
        initial_labels: review labels for the bootstrap corpus
            (default: corpus ground truth).
        max_pool: training-pool size cap (oldest entries evicted).
        checker_seed: seed for retrained checkers.
        monkey_events: UI events per analysis.
        model_gate: optional promotion gate called as
            ``gate(candidate, month_observations, metadata=...)`` after
            each retrain.  When it returns a decision whose
            ``promoted`` attribute is False, the month's candidate is
            discarded and the previous model keeps serving — monthly
            evolution becomes promote-on-threshold instead of an
            unconditional replace (see
            :class:`repro.serve.registry.ShadowPromotionGate`).
            ``None`` preserves the historical unconditional swap.
        retrain_policy: optional :class:`~repro.drift.policy.RetrainPolicy`
            deciding *whether* each month retrains at all.  ``None``
            preserves the paper's monthly-always cadence.  A policy is
            consulted after the month's traffic is vetted and absorbed
            (and the drift monitors updated), so drift-triggered
            policies see the month that just happened.
        monitors: optional :class:`~repro.drift.detectors.DriftMonitorBank`
            the loop feeds each month — the market's review labels are
            the labeled-lag feedback stream for the rolling-F1 monitor,
            and the month's encoded feature block updates the PSI
            monitor (its reference is re-baselined from the training
            pool at every adopted retrain).
    """

    def __init__(
        self,
        stream: MarketStream,
        initial_corpus: AppCorpus,
        initial_labels: np.ndarray | None = None,
        max_pool: int = 8000,
        checker_seed: int = 0,
        monkey_events: int = 5000,
        model_gate: Callable[..., object] | None = None,
        retrain_policy: object | None = None,
        monitors: object | None = None,
    ):
        if max_pool < len(initial_corpus):
            raise ValueError("max_pool must hold at least the initial corpus")
        self.stream = stream
        self.max_pool = max_pool
        self.monkey_events = monkey_events
        self.model_gate = model_gate
        self.retrain_policy = retrain_policy
        self.monitors = monitors
        self.retrain_count = 0
        self._checker_seed = checker_seed
        self._rng = np.random.default_rng(checker_seed)
        labels = (
            initial_corpus.labels if initial_labels is None
            else np.asarray(initial_labels)
        )
        self._pool_apps = list(initial_corpus)
        self._pool_labels = list(np.asarray(labels, dtype=bool))
        self._pool_obs = self._study(initial_corpus)
        self.checker = self._retrain()
        self._rebaseline_monitors()
        self.history: list[MonthlyRecord] = []

    def _study(self, corpus: AppCorpus | list) -> list[AppObservation]:
        """All-API study observations for newly arrived apps."""
        engine = DynamicAnalysisEngine(
            self.stream.sdk,
            tracked_api_ids=np.arange(len(self.stream.sdk)),
            primary=GoogleEmulator(),
            fallback=None,
            monkey_events=self.monkey_events,
            seed=int(self._rng.integers(2**31)),
        )
        return engine.observations(corpus)

    def _retrain(self) -> ApiChecker:
        corpus = AppCorpus(self.stream.sdk, list(self._pool_apps))
        checker = ApiChecker(
            self.stream.sdk,
            monkey_events=self.monkey_events,
            seed=self._checker_seed,
        )
        checker.fit(
            corpus,
            labels=np.array(self._pool_labels, dtype=bool),
            study_observations=list(self._pool_obs),
        )
        return checker

    def _absorb(self, batch) -> None:
        """Add a reviewed month to the pool, evicting oldest overflow."""
        self._pool_apps.extend(batch.corpus)
        self._pool_labels.extend(batch.market_labels.astype(bool))
        self._pool_obs.extend(self._study(batch.corpus))
        overflow = len(self._pool_apps) - self.max_pool
        if overflow > 0:
            self._pool_apps = self._pool_apps[overflow:]
            self._pool_labels = self._pool_labels[overflow:]
            self._pool_obs = self._pool_obs[overflow:]

    def _rebaseline_monitors(self) -> None:
        """Reset drift windows against the (new) serving model.

        The PSI reference becomes the training pool's column
        frequencies under the serving model's feature space — drift is
        always measured relative to what the *current* model was
        trained on.
        """
        if self.monitors is None:
            return
        self.monitors.reset()
        psi = getattr(self.monitors, "psi", None)
        if psi is not None and self.checker.feature_space is not None:
            self.monitors.set_psi_reference(
                self.checker.feature_space.encode_batch(self._pool_obs)
            )

    def _observe_month(self, batch, predicted: np.ndarray) -> None:
        """Feed the month into the drift monitors (labeled-lag + PSI).

        The market's review labels stand in for the labeled-lag
        feedback stream — by the time a month closes, its reviews have
        landed — and the month's traffic (encoded under the *serving*
        model's feature space) updates the population-stability view.
        """
        if self.monitors is None:
            return
        f1_monitor = getattr(self.monitors, "f1", None)
        if f1_monitor is not None:
            f1_monitor.update_many(
                predicted, batch.market_labels.astype(bool)
            )
        psi = getattr(self.monitors, "psi", None)
        if psi is not None and psi._reference is not None:  # noqa: SLF001
            month_obs = self._pool_obs[-len(batch.corpus):]
            self.monitors.record_block(
                self.checker.feature_space.encode_batch(month_obs)
            )

    def run_month(self) -> MonthlyRecord:
        """Vet one month with the current model, then maybe retrain.

        Without a ``retrain_policy`` the loop retrains unconditionally
        (the paper's monthly cadence).  With one, the policy is asked
        after the month's traffic is vetted, absorbed, and fed to the
        drift monitors; a False decision skips the retrain entirely —
        the month still joins the pool, feeding whichever later retrain
        the policy does fire.

        With a ``model_gate`` installed, a retrained candidate only
        replaces the serving model when the gate promotes it; otherwise
        the month's data is still absorbed (it feeds the *next*
        retrain) but the previous model keeps serving.
        """
        batch = self.stream.next_month()
        verdicts = self.checker.vet_batch(batch.corpus)
        predicted = np.array([v.malicious for v in verdicts])
        report = evaluate(batch.market_labels, predicted)
        self._absorb(batch)
        self._observe_month(batch, predicted)
        decision = None
        retrain = True
        if self.retrain_policy is not None:
            decision = self.retrain_policy.should_retrain(
                batch.month_index, monitors=self.monitors
            )
            retrain = bool(decision.retrain)
        promotion = None
        if retrain:
            candidate = self._retrain()
            self.retrain_count += 1
            if self.retrain_policy is not None:
                self.retrain_policy.record_retrain(batch.month_index)
            if self.model_gate is not None:
                # The month's study observations are the pool tail
                # (eviction drops from the front), a ready-made replay
                # set for shadow agreement scoring.
                promotion = self.model_gate(
                    candidate,
                    self._pool_obs[-len(batch.corpus):],
                    metadata={"month": batch.month_index},
                )
            if getattr(promotion, "promoted", True):
                self.checker = candidate
                self._rebaseline_monitors()
        record = MonthlyRecord(
            month=batch.month_index,
            report=report,
            n_key_apis=int(self.checker.key_api_ids.size),
            sdk_size=len(self.stream.sdk),
            pool_size=len(self._pool_apps),
            promotion=promotion,
            retrained=retrain,
            decision=decision,
        )
        self.history.append(record)
        return record

    def run(self, months: int) -> list[MonthlyRecord]:
        """Run several monthly cycles; returns the new records."""
        if months < 1:
            raise ValueError("months must be >= 1")
        return [self.run_month() for _ in range(months)]
