"""Vectorized rule evaluation over observation batches.

One matmul per evidence axis: observations are encoded as boolean
membership matrices over the ruleset's union axes (required APIs,
permissions, intents), multiplied against the requirement matrices to
get per-(app, rule) matched counts, then pushed through the five-stage
confidence ladder (see :mod:`repro.rules.spec`).  Each app's result
depends only on its own observation row, which is what makes
evaluation order- and batch-size-invariant by construction — the
property tests pin it anyway.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.android.sdk import AndroidSdk
from repro.core.features import AppObservation
from repro.obs import MetricsRegistry, SpanSink, span
from repro.rules.builtin import builtin_ruleset
from repro.rules.compiler import CompiledRuleset, RuleCompiler
from repro.rules.report import BehaviorReport, RuleHit, make_hit
from repro.rules.spec import RuleSpec

__all__ = ["RuleEvaluator"]


class RuleEvaluator:
    """Scores observation batches against one compiled ruleset.

    Args:
        ruleset: a :class:`CompiledRuleset` (see the ``builtin`` /
            ``from_specs`` constructors for the common paths).
        registry: metrics registry for ``rules_*`` counters (a private
            one is created when omitted).
        sink: optional span sink for evaluation traces.
    """

    def __init__(
        self,
        ruleset: CompiledRuleset,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
    ):
        self.ruleset = ruleset
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[RuleSpec],
        sdk: AndroidSdk,
        tracked_api_ids: Iterable[int] | np.ndarray | None = None,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
        on_untracked: str = "drop",
    ) -> "RuleEvaluator":
        """Compile ``specs`` against ``sdk`` and wrap the result."""
        compiler = RuleCompiler(
            sdk, tracked_api_ids=tracked_api_ids, on_untracked=on_untracked
        )
        return cls(compiler.compile(specs), registry=registry, sink=sink)

    @classmethod
    def builtin(
        cls,
        sdk: AndroidSdk,
        tracked_api_ids: Iterable[int] | np.ndarray | None = None,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
    ) -> "RuleEvaluator":
        """The bundled starter ruleset compiled against ``sdk``."""
        return cls.from_specs(
            builtin_ruleset(),
            sdk,
            tracked_api_ids=tracked_api_ids,
            registry=registry,
            sink=sink,
        )

    @property
    def behaviors(self) -> tuple[str, ...]:
        return self.ruleset.behaviors

    # ------------------------------------------------------------------

    def evaluate(
        self, observations: Sequence[AppObservation]
    ) -> list[BehaviorReport]:
        """Score a batch; one report per observation, input order."""
        if not observations:
            return []
        with span(
            "rules_evaluate",
            registry=self.registry,
            sink=self.sink,
            apps=len(observations),
            rules=len(self.ruleset),
        ):
            reports = self._evaluate(observations)
        self.registry.inc("rules_batches_total")
        self.registry.inc("rules_evaluations_total", len(observations))
        self.registry.inc(
            "rules_hits_total", sum(len(r.hits) for r in reports)
        )
        for report in reports:
            top = report.top_behavior
            if top is not None:
                self.registry.inc("rules_top_behavior_total", behavior=top)
        return reports

    def _evaluate(
        self, observations: Sequence[AppObservation]
    ) -> list[BehaviorReport]:
        rs = self.ruleset
        n_apps = len(observations)
        n_rules = len(rs)
        if n_rules == 0:
            return [
                BehaviorReport(obs.apk_md5, hits=(), n_rules=0)
                for obs in observations
            ]
        # Membership matrices over the union axes, built columnar: flat
        # indices are gathered per observation and written with one
        # scatter per axis (same construction as
        # ``FeatureBlock.from_observations``) instead of per-cell
        # assignments.
        A = np.zeros((n_apps, len(rs.api_union)), dtype=bool)
        P = np.zeros((n_apps, len(rs.perm_union)), dtype=bool)
        T = np.zeros((n_apps, len(rs.intent_union)), dtype=bool)
        api_index = rs._api_index
        perm_index = rs._perm_index
        intent_index = rs._intent_index
        api_sets: list[set[int]] = []
        flat_a: list[int] = []
        flat_p: list[int] = []
        flat_t: list[int] = []
        for row, obs in enumerate(observations):
            invoked = {int(i) for i in obs.invoked_api_ids}
            api_sets.append(invoked)
            base_a = row * A.shape[1]
            for api_id in invoked:
                col = api_index.get(api_id)
                if col is not None:
                    flat_a.append(base_a + col)
            base_p = row * P.shape[1]
            for perm in obs.permissions:
                col = perm_index.get(perm)
                if col is not None:
                    flat_p.append(base_p + col)
            base_t = row * T.shape[1]
            for intent in obs.intents:
                col = intent_index.get(intent)
                if col is not None:
                    flat_t.append(base_t + col)
        for matrix, flat in ((A, flat_a), (P, flat_p), (T, flat_t)):
            if flat and matrix.size:
                matrix.ravel()[np.asarray(flat, dtype=np.intp)] = True
        # (n_apps, n_rules) matched counts, then the confidence ladder.
        api_matched = A.astype(np.int32) @ rs.R_api.T.astype(np.int32)
        perm_matched = P.astype(np.int32) @ rs.R_perm.T.astype(np.int32)
        intent_matched = T.astype(np.int32) @ rs.R_intent.T.astype(np.int32)
        s1 = (perm_matched > 0) | (rs.n_perm_required == 0)
        s2 = s1 & (api_matched > 0)
        s3 = s2 & (api_matched == rs.n_api_required)
        s4 = s3 & (perm_matched == rs.n_perm_required)
        # Stage 5 is never vacuous: full confidence requires real intent
        # evidence, so intent-less rules top out at stage 4.
        s5 = (
            s4
            & (rs.n_intent_required > 0)
            & (intent_matched == rs.n_intent_required)
        )
        stages = (
            s1.astype(np.int8)
            + s2.astype(np.int8)
            + s3.astype(np.int8)
            + s4.astype(np.int8)
            + s5.astype(np.int8)
        )
        # A vacuously-true stage 1 without one concrete matched item is
        # not evidence: such rules stay silent.
        has_evidence = (api_matched + perm_matched + intent_matched) > 0
        stages[~has_evidence] = 0
        reports: list[BehaviorReport] = []
        for row, obs in enumerate(observations):
            hits: list[RuleHit] = []
            call_counts = dict(obs.invoked_api_counts)
            for col in np.flatnonzero(stages[row] > 0):
                rule = rs.rules[int(col)]
                invoked = api_sets[row]
                perms = set(obs.permissions)
                intents = set(obs.intents)
                hits.append(
                    make_hit(
                        behavior=rule.behavior,
                        stage=int(stages[row, col]),
                        weight=rule.spec.weight,
                        matched_apis=tuple(
                            name
                            for api_id, name in zip(
                                rule.api_ids, rule.api_names
                            )
                            if api_id in invoked
                        ),
                        matched_permissions=tuple(
                            p for p in rule.spec.permissions if p in perms
                        ),
                        matched_intents=tuple(
                            i for i in rule.spec.intents if i in intents
                        ),
                        missing_apis=tuple(
                            name
                            for api_id, name in zip(
                                rule.api_ids, rule.api_names
                            )
                            if api_id not in invoked
                        ),
                        n_required=(
                            len(rule.api_ids)
                            + len(rule.spec.permissions)
                            + len(rule.spec.intents)
                        ),
                        matched_api_calls=sum(
                            max(1, call_counts.get(api_id, 1))
                            for api_id in rule.api_ids
                            if api_id in invoked
                        ),
                    )
                )
            # Ties on score resolve toward the rule whose requirements
            # the app covered more completely, then by behavior name for
            # determinism.  Call counts are surfaced as evidence but do
            # not rank: they scale with the API's nature (UI loops log
            # orders of magnitude more calls than network or crypto), so
            # ranking on them would bias every tie toward UI behaviors.
            hits.sort(
                key=lambda h: (-h.score, -h.matched_fraction, h.behavior)
            )
            reports.append(
                BehaviorReport(
                    apk_md5=obs.apk_md5,
                    hits=tuple(hits),
                    n_rules=n_rules,
                )
            )
        return reports
