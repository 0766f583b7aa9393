"""Tests for the behavioral rule engine (repro.rules).

Covers the declarative spec layer, compilation against an SDK + hook
set, the five-stage confidence ladder, evidence-carrying reports, lint,
metrics, and the triage/vetting integration — ending with the seeded
family-separation acceptance check: on a fresh vetting day, each
malware family's flagged apps are mostly explained by the rule(s)
profiling that family.
"""

import json

import numpy as np
import pytest

from repro.rules import (
    BehaviorReport,
    N_STAGES,
    RuleCompileError,
    RuleCompiler,
    RuleEvaluator,
    RuleHit,
    RuleSpec,
    STAGE_CONFIDENCE,
    builtin_ruleset,
    lint_ruleset,
    load_ruleset,
)
from repro.core.features import AppObservation


@pytest.fixture(scope="module")
def specs():
    return {s.behavior: s for s in builtin_ruleset()}


def _ids(sdk, names):
    return tuple(int(sdk.by_name(n).api_id) for n in names)


def _obs(md5="a" * 32, apis=(), perms=(), intents=(), counts=()):
    return AppObservation(
        apk_md5=md5,
        invoked_api_ids=tuple(apis),
        permissions=tuple(perms),
        intents=tuple(intents),
        invoked_api_counts=tuple(counts),
    )


# -- spec / load ---------------------------------------------------------


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        RuleSpec.from_dict(
            {"behavior": "x", "apis": ["a.b.c"], "typo_key": 1}
        )


def test_spec_requires_apis_and_positive_weight():
    with pytest.raises(ValueError, match="at least one required API"):
        RuleSpec(behavior="x", apis=())
    with pytest.raises(ValueError, match="weight must be positive"):
        RuleSpec(behavior="x", apis=("a.b.c",), weight=0.0)


def test_spec_round_trips_through_dict():
    spec = RuleSpec(
        behavior="x",
        apis=("a.b.c",),
        description="d",
        permissions=("P",),
        intents=("I",),
        families=("botnet",),
        weight=2.0,
    )
    assert RuleSpec.from_dict(spec.to_dict()) == spec


def test_load_ruleset_accepts_versioned_and_bare_json():
    entry = {"behavior": "x", "apis": ["a.b.c"]}
    bare = json.dumps([entry])
    versioned = json.dumps({"version": 1, "rules": [entry]})
    assert load_ruleset(bare) == load_ruleset(versioned)
    with pytest.raises(ValueError, match="unsupported ruleset version"):
        load_ruleset(json.dumps({"version": 2, "rules": [entry]}))


def test_load_ruleset_rejects_duplicate_behaviors():
    entry = {"behavior": "x", "apis": ["a.b.c"]}
    with pytest.raises(ValueError, match="duplicate rule behaviors"):
        load_ruleset([entry, entry])


def test_load_ruleset_from_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"behavior": "x", "apis": ["a.b.c"]}]))
    (loaded,) = load_ruleset(path)
    assert loaded.behavior == "x"


def test_builtin_ruleset_parses_and_lints_clean(sdk):
    specs = builtin_ruleset()
    assert len(specs) >= 6
    issues = lint_ruleset(specs, sdk)
    assert [i for i in issues if i.severity == "error"] == []


# -- compiler ------------------------------------------------------------


def test_compiler_collects_all_errors(sdk):
    bad = (
        RuleSpec(behavior="a", apis=("no.such.Api",)),
        RuleSpec(
            behavior="b",
            apis=(sdk.api_names[0],),
            permissions=("NO_SUCH_PERM",),
            intents=("NO_SUCH_INTENT",),
        ),
    )
    with pytest.raises(RuleCompileError) as err:
        RuleCompiler(sdk).compile(bad)
    msg = str(err.value)
    assert "3 rule compilation error(s)" in msg
    assert "no.such.Api" in msg
    assert "NO_SUCH_PERM" in msg and "NO_SUCH_INTENT" in msg


def test_compiler_drop_policy_records_untracked(sdk):
    tracked_name, untracked_name = sdk.api_names[0], sdk.api_names[1]
    spec = RuleSpec(behavior="a", apis=(tracked_name, untracked_name))
    compiler = RuleCompiler(
        sdk, tracked_api_ids=_ids(sdk, [tracked_name]), on_untracked="drop"
    )
    ruleset = compiler.compile([spec])
    (rule,) = ruleset.rules
    assert rule.api_names == (tracked_name,)
    assert rule.dropped_apis == (untracked_name,)


def test_compiler_error_policy_rejects_untracked(sdk):
    spec = RuleSpec(behavior="a", apis=(sdk.api_names[1],))
    compiler = RuleCompiler(
        sdk, tracked_api_ids=[0], on_untracked="error"
    )
    with pytest.raises(RuleCompileError, match="not in the tracked"):
        compiler.compile([spec])


def test_compiler_drops_fully_untracked_rule(sdk):
    spec = RuleSpec(behavior="gone", apis=(sdk.api_names[1],))
    ruleset = RuleCompiler(sdk, tracked_api_ids=[0]).compile([spec])
    assert len(ruleset) == 0
    assert ruleset.dropped_rules[0][0] == "gone"


def test_builtin_ruleset_survives_mined_key_set(fitted_checker):
    """Every bundled rule's API evidence is inside the mined hook set."""
    evaluator = RuleEvaluator.builtin(
        fitted_checker.sdk, tracked_api_ids=fitted_checker.key_api_ids
    )
    assert evaluator.ruleset.dropped_rules == ()
    for rule in evaluator.ruleset.rules:
        assert rule.dropped_apis == ()
        assert rule.api_ids  # still has concrete API requirements


# -- the confidence ladder -----------------------------------------------


def test_ladder_stages_climb_with_evidence(sdk, specs):
    spec = specs["sms_fraud"]
    assert len(spec.apis) == 2 and len(spec.permissions) == 2
    api_ids = _ids(sdk, spec.apis)
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    cases = [
        (_obs(apis=(), perms=(), intents=()), 0),
        (_obs(perms=spec.permissions[:1]), 1),
        (_obs(apis=api_ids[:1], perms=spec.permissions[:1]), 2),
        (_obs(apis=api_ids, perms=spec.permissions[:1]), 3),
        (_obs(apis=api_ids, perms=spec.permissions), 4),
        (_obs(apis=api_ids, perms=spec.permissions,
              intents=spec.intents), 5),
    ]
    for obs, want_stage in cases:
        report = evaluator.evaluate([obs])[0]
        if want_stage == 0:
            assert report.hits == ()
            continue
        (hit,) = report.hits
        assert hit.stage == want_stage
        assert hit.confidence == STAGE_CONFIDENCE[want_stage]
        assert hit.score == spec.weight * hit.confidence


def test_stage5_is_never_vacuous(sdk, specs):
    """An intent-less rule caps at stage 4 even on full evidence."""
    spec = specs["privilege_probing"]
    assert spec.intents == ()
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    report = evaluator.evaluate([
        _obs(apis=_ids(sdk, spec.apis), perms=spec.permissions)
    ])[0]
    (hit,) = report.hits
    assert hit.stage == 4
    assert hit.confidence == STAGE_CONFIDENCE[4] < 1.0


def test_vacuous_stage1_without_evidence_stays_silent(sdk):
    """A permission-less rule must not fire on an empty observation."""
    spec = RuleSpec(behavior="api_only", apis=(sdk.api_names[0],))
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    assert evaluator.evaluate([_obs()])[0].hits == ()
    # ...but climbs straight to stage 4 once its API shows up.
    report = evaluator.evaluate([_obs(apis=_ids(sdk, spec.apis))])[0]
    assert report.hits[0].stage == 4


def test_hit_evidence_names_exact_matches(sdk, specs):
    spec = specs["sms_fraud"]
    api_ids = _ids(sdk, spec.apis)
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    report = evaluator.evaluate([
        _obs(
            apis=api_ids[:1],
            perms=spec.permissions[:1],
            counts=((api_ids[0], 17),),
        )
    ])[0]
    (hit,) = report.hits
    assert hit.matched_apis == spec.apis[:1]
    assert hit.missing_apis == spec.apis[1:]
    assert hit.matched_permissions == spec.permissions[:1]
    assert hit.matched_api_calls == 17
    assert hit.n_required == (
        len(spec.apis) + len(spec.permissions) + len(spec.intents)
    )
    assert 0.0 < hit.matched_fraction < 1.0


def test_hits_rank_by_score_then_coverage_then_name(sdk):
    a = RuleSpec(behavior="aaa", apis=(sdk.api_names[0],))
    b = RuleSpec(
        behavior="bbb", apis=(sdk.api_names[0],), permissions=("android.permission.INTERNET",)
    )
    evaluator = RuleEvaluator.from_specs([a, b], sdk)
    report = evaluator.evaluate([
        _obs(apis=_ids(sdk, [sdk.api_names[0]]), perms=("android.permission.INTERNET",))
    ])[0]
    # Both reach stage 4 (same score); "bbb" covered 2/2 items while
    # "aaa" covered 1/1 — equal fractions tie-break alphabetically.
    assert [h.behavior for h in report.hits] == ["aaa", "bbb"]
    assert report.hits[0].score == report.hits[1].score


# -- reports -------------------------------------------------------------


def test_behavior_report_round_trips_json(sdk, specs):
    spec = specs["botnet_c2"]
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    report = evaluator.evaluate([
        _obs(
            apis=_ids(sdk, spec.apis),
            perms=spec.permissions,
            intents=spec.intents,
        )
    ])[0]
    clone = BehaviorReport.from_dict(
        json.loads(json.dumps(report.to_dict()))
    )
    assert clone == report
    assert clone.top_behavior == "botnet_c2"
    assert clone.max_stage == 5 == N_STAGES


def test_report_summary_is_analyst_readable(sdk, specs):
    spec = specs["sms_fraud"]
    evaluator = RuleEvaluator.from_specs([spec], sdk)
    silent = evaluator.evaluate([_obs()])[0]
    assert "no behavior evidence" in silent.summary()
    loud = evaluator.evaluate([
        _obs(apis=_ids(sdk, spec.apis), perms=spec.permissions,
             intents=spec.intents)
    ])[0]
    assert "sms_fraud" in loud.summary()
    assert "stage 5/5" in loud.summary()


def test_rule_hit_rejects_out_of_range_stage():
    with pytest.raises(ValueError, match="stage must be"):
        RuleHit(
            behavior="x", stage=6, confidence=1.0, score=1.0, weight=1.0
        )


# -- lint ----------------------------------------------------------------


def test_lint_flags_empty_ruleset():
    (issue,) = lint_ruleset([])
    assert issue.severity == "error"


def test_lint_warns_on_bare_api_rules_and_unknown_family():
    spec = RuleSpec(
        behavior="x", apis=("a.b.c",), families=("no_such_family",)
    )
    issues = lint_ruleset([spec])
    messages = [i.message for i in issues]
    assert any("no permissions and no intents" in m for m in messages)
    assert any("no_such_family" in m for m in messages)
    assert all(i.severity == "warning" for i in issues)


def test_lint_resolves_names_against_sdk(sdk):
    spec = RuleSpec(
        behavior="x",
        apis=("no.such.Api",),
        permissions=("NO_SUCH_PERM",),
        intents=("NO_SUCH_INTENT",),
        description="d",
    )
    issues = lint_ruleset([spec], sdk)
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 3


def test_lint_warns_on_identical_api_sets():
    a = RuleSpec(behavior="a", apis=("x.y.z", "a.b.c"), description="d")
    b = RuleSpec(behavior="b", apis=("a.b.c", "x.y.z"), description="d")
    issues = lint_ruleset([a, b])
    assert any("identical" in i.message for i in issues)


# -- metrics -------------------------------------------------------------


def test_evaluator_reports_through_registry(sdk, specs):
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    spec = specs["sms_fraud"]
    evaluator = RuleEvaluator.from_specs([spec], sdk, registry=registry)
    full = _obs(
        apis=_ids(sdk, spec.apis),
        perms=spec.permissions,
        intents=spec.intents,
    )
    evaluator.evaluate([full, _obs(md5="b" * 32)])
    assert registry.value("rules_batches_total") == 1
    assert registry.value("rules_evaluations_total") == 2
    assert registry.value("rules_hits_total") == 1
    assert (
        registry.value("rules_top_behavior_total", behavior="sms_fraud")
        == 1
    )
    assert registry.histogram("rules_evaluate_seconds").count == 1


# -- triage + vetting integration ----------------------------------------


def _family_profiles():
    """behavior-name profile per corpus family, from the bundled rules."""
    profiles: dict[str, set[str]] = {}
    for spec in builtin_ruleset():
        for family in spec.families:
            profiles.setdefault(family, set()).add(spec.behavior)
    return profiles


def test_triage_flagged_carries_behavior_reports(
    sdk, generator, fitted_checker
):
    from repro.core.triage import TriageCenter

    apps = [generator.sample_app(malicious=True) for _ in range(6)]
    engine = fitted_checker.production_engine
    observations = [engine.analyze(a).observation for a in apps]
    verdicts = [
        fitted_checker.verdicts_from_observations([obs])[0]
        for obs in observations
    ]
    rules = RuleEvaluator.builtin(
        sdk, tracked_api_ids=fitted_checker.key_api_ids
    )
    triage = TriageCenter(fitted_checker.key_api_ids)
    report = triage.triage_flagged(
        apps,
        verdicts,
        np.ones(len(apps), dtype=bool),
        observations=observations,
        rules=rules,
    )
    assert len(report.behavior_reports) == report.n_flagged
    flagged_md5s = [
        a.md5 for a, v in zip(apps, verdicts) if v.malicious
    ]
    assert [r.apk_md5 for r in report.behavior_reports] == flagged_md5s


def test_triage_user_reports_carry_behavior_reports(
    sdk, generator, fitted_checker
):
    from repro.core.triage import TriageCenter

    apps = [generator.sample_app(malicious=True) for _ in range(10)]
    engine = fitted_checker.production_engine
    observations = [engine.analyze(a).observation for a in apps]
    rules = RuleEvaluator.builtin(
        sdk, tracked_api_ids=fitted_checker.key_api_ids
    )
    triage = TriageCenter(
        fitted_checker.key_api_ids, user_report_prob=1.0
    )
    report = triage.triage_user_reports(
        apps,
        np.ones(len(apps), dtype=bool),
        observations=observations,
        rules=rules,
    )
    assert report.n_reports == len(apps)
    assert len(report.behavior_reports) == len(apps)


def test_vetting_day_attaches_explanations(sdk, catalog, fitted_checker):
    from repro.core.vetting import VettingService
    from repro.corpus.generator import CorpusGenerator
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    gen = CorpusGenerator(sdk, seed=4242, catalog=catalog)
    day = gen.generate(60, malware_rate=0.4)
    service = VettingService(fitted_checker, registry=registry)
    report = service.process_day(day, true_labels=day.labels)
    assert report.n_flagged > 0
    assert len(report.behavior_reports) == report.n_flagged
    # Reports align with the flagged verdicts, in submission order.
    flagged_md5s = [
        v.apk_md5 for v in report.verdicts if v.malicious
    ]
    assert [r.apk_md5 for r in report.behavior_reports] == flagged_md5s
    assert report.explanation_for(flagged_md5s[0]) is not None
    assert report.explanation_for("f" * 32) is None
    # The FP-triage report shares the same (single) evaluation.
    assert report.fp_report is not None
    assert report.fp_report.behavior_reports == report.behavior_reports
    assert registry.value("rules_evaluations_total") == report.n_flagged


def test_vetting_rules_opt_out(sdk, catalog, fitted_checker):
    from repro.core.vetting import VettingService
    from repro.corpus.generator import CorpusGenerator

    gen = CorpusGenerator(sdk, seed=4243, catalog=catalog)
    day = gen.generate(30, malware_rate=0.4)
    service = VettingService(fitted_checker, rules=False)
    assert service.rules is None
    report = service.process_day(day, true_labels=day.labels)
    assert report.behavior_reports == ()


# -- seeded family-separation acceptance ---------------------------------


def test_flagged_families_match_their_rule_profiles(
    sdk, catalog, fitted_checker
):
    """On a fresh vetting day, each malware family's flagged apps are
    mostly explained by the rule(s) profiling that family.

    ``update_fraction=0`` keeps the day's families independent (update
    chains collapse a day into a few correlated packages); families
    with fewer than 5 flagged apps are too small to call a majority.
    """
    from repro.corpus.generator import CorpusGenerator

    profiles = _family_profiles()
    gen = CorpusGenerator(sdk, seed=103, catalog=catalog)
    day = gen.generate(600, malware_rate=0.3, update_fraction=0.0)
    engine = fitted_checker.production_engine
    rules = RuleEvaluator.builtin(
        sdk, tracked_api_ids=fitted_checker.key_api_ids
    )
    by_family: dict[str, list[str | None]] = {}
    for apk in day.apps:
        if not apk.is_malicious or apk.family not in profiles:
            continue
        obs = engine.analyze(apk).observation
        if not fitted_checker.verdicts_from_observations([obs])[0].malicious:
            continue
        top = rules.evaluate([obs])[0].top_behavior
        by_family.setdefault(apk.family, []).append(top)
    assert len(by_family) >= 5  # the day must exercise most families
    misses = []
    for family, tops in sorted(by_family.items()):
        if len(tops) < 5:
            continue
        ok = sum(top in profiles[family] for top in tops)
        if ok <= len(tops) / 2:
            misses.append(f"{family}: {ok}/{len(tops)} ({tops[:8]})")
    assert not misses, "family profile mismatches:\n" + "\n".join(misses)
