"""APICHECKER core: the paper's contribution.

* :mod:`repro.core.features` — one-hot feature construction over key
  APIs, requested permissions, and used intents (§4.2, §4.5).
* :mod:`repro.core.selection` — the four-step key-API selection
  strategy: SRC mining (Set-C), restrictive permissions (Set-P),
  sensitive operations (Set-S), and their union (§4.4).
* :mod:`repro.core.engine` — the dynamic-analysis engine with backend
  fallback and crash retry (§4.2, §5.1).
* :mod:`repro.core.checker` — the end-to-end ApiChecker train/vet
  pipeline.
* :mod:`repro.core.vetting` / :mod:`repro.core.triage` /
  :mod:`repro.core.evolution` — production operation: daily vetting,
  FP/FN triage, monthly model evolution (§5.2, §5.3).
"""

from repro.core.checker import ApiChecker, VetVerdict
from repro.core.diffvet import DiffDecision, DiffVetter
from repro.core.engine import AnalysisFailure, AppAnalysis, DynamicAnalysisEngine
from repro.core.evolution import EvolutionLoop, MonthlyRecord
from repro.core.features import (
    AppObservation,
    FeatureBlock,
    FeatureMode,
    FeatureSpace,
)
from repro.core.pipeline import (
    ObservationCache,
    PipelineResult,
    VettingPipeline,
)
from repro.core.selection import KeyApiSelection, select_key_apis
from repro.core.reporting import read_log, read_observations, write_log
from repro.core.triage import TriageCenter
from repro.core.vetting import DailyReport, VettingService

__all__ = [
    "AnalysisFailure",
    "ApiChecker",
    "AppAnalysis",
    "ObservationCache",
    "PipelineResult",
    "VettingPipeline",
    "DiffDecision",
    "DiffVetter",
    "AppObservation",
    "DailyReport",
    "DynamicAnalysisEngine",
    "EvolutionLoop",
    "FeatureBlock",
    "FeatureMode",
    "FeatureSpace",
    "KeyApiSelection",
    "MonthlyRecord",
    "TriageCenter",
    "VetVerdict",
    "VettingService",
    "read_log",
    "read_observations",
    "select_key_apis",
    "write_log",
]
