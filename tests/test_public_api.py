"""Tests for the top-level public API surface."""

import numpy as np
import pytest

import repro
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import AppObservation, FeatureMode, FeatureSpace


#: The locked public contract: removing a name (or forgetting to list a
#: new one here AND in ``repro.__all__``) is a breaking change and must
#: fail loudly.
PUBLIC_API = frozenset(
    {
        "AndroidSdk",
        "ApiChecker",
        "ApiMethod",
        "Apk",
        "AppCorpus",
        "AppObservation",
        "AttackWave",
        "BehaviorReport",
        "Campaign",
        "CampaignReport",
        "CampaignRunner",
        "CorpusGenerator",
        "DaySlice",
        "DriftEvent",
        "DriftMonitorBank",
        "DriftTriggeredPolicy",
        "DriftingMarket",
        "DriftingMarketStream",
        "DynamicAnalysisEngine",
        "ERROR_CODES",
        "EngineStats",
        "EvolutionLoop",
        "FeatureMode",
        "FeatureSpace",
        "FutureLeakageError",
        "HybridPolicy",
        "KeyApiSelection",
        "MarketStream",
        "MetricsRegistry",
        "MinedRuleset",
        "ModelRegistry",
        "MonthlyPolicy",
        "NeverPolicy",
        "ObservationCache",
        "OnlineVettingService",
        "PsiMonitor",
        "QueueFullError",
        "RandomForest",
        "RetrainDecision",
        "RetrainPolicy",
        "ReviewPipeline",
        "RollingF1Monitor",
        "RuleEvaluator",
        "RuleHit",
        "RuleSpec",
        "RulesetRegistry",
        "SdkSpec",
        "SemesterSlice",
        "ShadowAgreementMonitor",
        "ShadowPromotionGate",
        "ShardRouter",
        "ShardUnavailableError",
        "SpanSink",
        "SubmissionQueue",
        "TMarket",
        "TriageCenter",
        "VetVerdict",
        "VettingPipeline",
        "VettingService",
        "WrongShardError",
        "assert_no_future_leakage",
        "builtin_ruleset",
        "bundled_campaigns",
        "campaign_by_name",
        "chronological_split",
        "default_registry",
        "diff_rulesets",
        "lint_ruleset",
        "load_generated_ruleset",
        "load_ruleset",
        "make_router_server",
        "make_server",
        "mine_ruleset",
        "poison_labels",
        "rolling_time_windows",
        "run_campaign",
        "select_key_apis",
        "semester_slices",
        "shard_of",
        "span",
    }
)


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_public_api_contract_is_locked():
    assert set(repro.__all__) == PUBLIC_API


def test_all_is_sorted_and_unique():
    assert sorted(repro.__all__) == list(repro.__all__)
    assert len(set(repro.__all__)) == len(repro.__all__)


def test_error_envelope_wire_contract_is_locked():
    """The /v1 error codes are a frozen wire contract.

    Adding a code is a versioned API change; removing or renaming one
    breaks deployed clients.  Either must update this lock AND
    ``docs/serving.md`` deliberately.
    """
    from repro import ERROR_CODES
    from repro.serve.http import error_body

    assert ERROR_CODES == frozenset(
        {
            "bad_request",
            "not_found",
            "wrong_shard",
            "queue_full",
            "shard_unavailable",
        }
    )
    body = error_body("not_found", "missing", md5="abcd")
    assert body == {
        "error": {"code": "not_found", "message": "missing", "md5": "abcd"}
    }
    assert "md5" not in error_body("bad_request", "nope")["error"]
    with pytest.raises(ValueError):
        error_body("made_up_code", "boom")


def test_v1_route_table_is_locked():
    """The /v1 route surface is a frozen wire contract.

    Adding a route (as PR 9 did with the ruleset admin push) must
    update this lock deliberately; removing one breaks clients.
    """
    from repro.serve.http import ROUTES

    md5 = r"(?P<md5>[0-9a-fA-F]{4,64})"
    assert {(r.method, r.pattern.pattern) for r in ROUTES} == {
        ("POST", r"^/v1/submit$"),
        ("GET", rf"^/v1/result/{md5}$"),
        ("GET", rf"^/v1/explain/{md5}$"),
        ("POST", r"^/v1/admin/ruleset$"),
        ("GET", r"^/v1/healthz$"),
        ("GET", r"^/v1/metrics$"),
        ("GET", r"^/v1/metrics\.json$"),
    }


def test_legacy_alias_shims_stay_removed():
    """The unprefixed-path 301 grace window closed in 1.6.0.

    Two locks: every surviving route is versioned under ``/v1/``, and
    no redirect machinery (``Deprecation``/``successor-version``
    headers, 301 handling) lingers anywhere in the serving tier.
    Re-adding either is a deliberate, reviewed decision — not drift.
    """
    from pathlib import Path

    from repro.serve.http import ROUTES

    for route in ROUTES:
        assert route.pattern.pattern.startswith(r"^/v1/"), (
            f"unversioned route crept back in: {route.pattern.pattern}"
        )
    serve_dir = Path(repro.__file__).resolve().parent / "serve"
    offenders = []
    for path in sorted(serve_dir.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for needle in ("Deprecation", "successor-version", "301"):
            if needle in text:
                offenders.append(f"{path.name}: {needle!r}")
    assert not offenders, (
        "legacy alias machinery resurfaced:\n" + "\n".join(offenders)
    )


def test_observability_surface_reexported():
    """The obs layer's public surface is reachable from the top level."""
    from repro import EngineStats, MetricsRegistry, span
    from repro.obs import MetricsRegistry as ObsRegistry

    assert MetricsRegistry is ObsRegistry
    reg = MetricsRegistry()
    with span("api_probe", registry=reg):
        pass
    assert reg.histogram("api_probe_seconds").count == 1
    stats = EngineStats.from_registry(reg)
    assert stats.submissions == 0 and stats.settled


def test_no_in_tree_use_of_removed_stats_dicts():
    """The removed ``.stats`` dict views must not creep back in.

    Static sweep: no module under ``src/repro`` or ``benchmarks``
    reads ``engine.stats`` / ``vetter.stats`` (``ml.stats`` and
    ``stats_view`` are unrelated).  Anything new should go through the
    typed views or the registry.
    """
    import re
    from pathlib import Path

    root = Path(repro.__file__).resolve().parent
    bench = root.parent.parent / "benchmarks"
    # A removed-style read looks like `<obj>.stats` NOT followed by a
    # word character (stats_view) and not the ml.stats module path.
    pattern = re.compile(r"\b(\w+)\.stats\b(?!\w)")
    offenders = []
    for base in (root, bench):
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(base.parent)
            for line_no, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                for match in pattern.finditer(line):
                    obj = match.group(1)
                    if obj in ("ml", "repro"):
                        # ml.stats is a module, not the removed view.
                        continue
                    offenders.append(f"{rel}:{line_no}: {line.strip()}")
    assert not offenders, (
        "removed .stats dict view used in-tree:\n" + "\n".join(offenders)
    )


def test_removed_stats_properties_stay_removed(fitted_checker):
    """``engine.stats`` / ``vetter.stats`` were removed; keep them out."""
    from repro.core.diffvet import DiffVetter

    assert not hasattr(fitted_checker.production_engine, "stats")
    assert not hasattr(DiffVetter(fitted_checker), "stats")


def test_vetting_paths_raise_no_deprecation_warnings(
    generator, fitted_checker
):
    """Exercising the main vetting surfaces must be warning-clean."""
    import warnings

    from repro.core.diffvet import DiffVetter
    from repro.core.pipeline import VettingPipeline

    apps = [generator.sample_app(malicious=False) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        pipeline = VettingPipeline(
            fitted_checker.production_engine, workers=2
        )
        result = pipeline.run(apps)
        assert not result.failures
        _ = fitted_checker.production_engine.stats_view
        vetter = DiffVetter(fitted_checker)
        vetter.vet(apps[0])
        _ = vetter.stats_view
        _ = vetter.fast_path_fraction


def test_readme_quickstart_snippet_runs():
    """Keep the README example honest."""
    from repro import AndroidSdk, ApiChecker, CorpusGenerator, SdkSpec

    sdk = AndroidSdk.generate(SdkSpec(n_apis=900, seed=77))
    gen = CorpusGenerator(sdk, seed=78)
    train, fresh = gen.generate(260), gen.generate(60)
    checker = ApiChecker(sdk, seed=79).fit(train)
    assert checker.key_api_ids.size > 0
    report = checker.evaluate(fresh)
    assert 0.0 <= report.f1 <= 1.0
    verdict = checker.vet_batch([fresh[0]])[0]
    assert verdict.analysis_minutes > 0


# -- property-based checks on the feature space ---------------------------


@given(
    api_ids=st.lists(st.integers(0, 899), min_size=0, max_size=40),
    n_perms=st.integers(0, 5),
    n_intents=st.integers(0, 5),
)
@settings(max_examples=30, deadline=None)
def test_encode_is_bounded_and_idempotent(
    sdk, api_ids, n_perms, n_intents
):
    space = FeatureSpace(sdk, [1, 5, 9, 20], FeatureMode.API)
    obs = AppObservation(
        apk_md5="h",
        invoked_api_ids=tuple(api_ids),
        permissions=tuple(sdk.permissions.names[:n_perms]),
        intents=tuple(sdk.intents.names[:n_intents]),
    )
    a = space.encode(obs)
    b = space.encode(obs)
    assert np.array_equal(a, b)
    assert a.shape == (space.n_features,)
    assert set(np.unique(a).tolist()) <= {0, 1}
    # Permission/intent bits match exactly what was requested.
    assert a[len(space.api_ids):].sum() == n_perms + n_intents


@given(st.integers(1, 6))
@settings(max_examples=10, deadline=None)
def test_encode_batch_matches_single(sdk, n):
    space = FeatureSpace(sdk, [2, 3], FeatureMode.API)
    observations = [
        AppObservation(
            apk_md5=str(i),
            invoked_api_ids=(2,) if i % 2 else (3,),
            permissions=(),
            intents=(),
        )
        for i in range(n)
    ]
    X = space.encode_batch(observations)
    for i, obs in enumerate(observations):
        assert np.array_equal(X[i], space.encode(obs))
