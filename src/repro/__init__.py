"""repro — reproduction of APICHECKER (EuroSys 2020).

"Experiences of Landing Machine Learning onto Market-Scale Mobile
Malware Detection", Gong et al., EuroSys 2020.

Quickstart::

    from repro import AndroidSdk, SdkSpec, CorpusGenerator, ApiChecker

    sdk = AndroidSdk.generate(SdkSpec(n_apis=2000))
    gen = CorpusGenerator(sdk, seed=1)
    train, test = gen.generate(1500), gen.generate(500)

    checker = ApiChecker(sdk).fit(train)
    print(checker.evaluate(test))          # precision/recall/F1
    print(checker.key_api_ids.size)        # the mined key-API set
    print(checker.gini_table(20))          # Fig. 13-style importances

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.android.apk import Apk
from repro.android.sdk import AndroidSdk, ApiMethod, SdkSpec
from repro.core.checker import ApiChecker, VetVerdict
from repro.core.engine import DynamicAnalysisEngine, EngineStats
from repro.core.evolution import EvolutionLoop
from repro.core.features import AppObservation, FeatureMode, FeatureSpace
from repro.core.pipeline import ObservationCache, VettingPipeline
from repro.core.selection import KeyApiSelection, select_key_apis
from repro.core.triage import TriageCenter
from repro.core.vetting import VettingService
from repro.corpus.generator import AppCorpus, CorpusGenerator
from repro.corpus.market import (
    MarketStream,
    ReviewPipeline,
    TMarket,
    poison_labels,
)
from repro.drift import (
    DaySlice,
    DriftEvent,
    DriftMonitorBank,
    DriftTriggeredPolicy,
    DriftingMarket,
    DriftingMarketStream,
    HybridPolicy,
    MonthlyPolicy,
    NeverPolicy,
    PsiMonitor,
    RetrainDecision,
    RetrainPolicy,
    RollingF1Monitor,
    SemesterSlice,
    ShadowAgreementMonitor,
)
from repro.ml.forest import RandomForest
from repro.ml.validation import (
    FutureLeakageError,
    assert_no_future_leakage,
    chronological_split,
    rolling_time_windows,
    semester_slices,
)
from repro.obs import (
    MetricsRegistry,
    SpanSink,
    default_registry,
    span,
)
from repro.rules import (
    BehaviorReport,
    MinedRuleset,
    RuleEvaluator,
    RuleHit,
    RuleSpec,
    builtin_ruleset,
    diff_rulesets,
    lint_ruleset,
    load_generated_ruleset,
    load_ruleset,
    mine_ruleset,
)
from repro.scenarios import (
    AttackWave,
    Campaign,
    CampaignReport,
    CampaignRunner,
    bundled_campaigns,
    campaign_by_name,
    run_campaign,
)
from repro.serve import (
    ERROR_CODES,
    ModelRegistry,
    OnlineVettingService,
    QueueFullError,
    RulesetRegistry,
    ShadowPromotionGate,
    ShardRouter,
    ShardUnavailableError,
    SubmissionQueue,
    WrongShardError,
    make_router_server,
    make_server,
    shard_of,
)

__version__ = "1.6.0"

__all__ = [
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
]
