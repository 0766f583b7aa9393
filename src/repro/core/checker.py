"""ApiChecker: the end-to-end train/vet pipeline.

Training runs the *study* configuration of §4 — every SDK API tracked on
the reference emulator — to mine the key-API set, then fits the
classifier (random forest by default) on the production feature vector
(key APIs + permissions + intents).  Vetting runs the *production*
configuration of §5 — only the key APIs tracked, on the lightweight
emulator with Google-emulator fallback — and classifies each submitted
APK in ~1.3 simulated minutes.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.android.apk import Apk
from repro.android.sdk import AndroidSdk
from repro.core.engine import DynamicAnalysisEngine
from repro.core.features import AppObservation, FeatureMode, FeatureSpace
from repro.core.selection import (
    KeyApiSelection,
    invocation_matrix,
    select_key_apis,
)
from repro.corpus.generator import AppCorpus
from repro.emulator.backends import GoogleEmulator, LightweightEmulator
from repro.emulator.device import DeviceEnvironment
from repro.ml.base import Classifier
from repro.ml.forest import RandomForest
from repro.ml.metrics import ClassificationReport, evaluate
from repro.obs import MetricsRegistry, SpanSink


@dataclass(frozen=True)
class VetVerdict:
    """Vetting outcome for one submitted APK."""

    apk_md5: str
    malicious: bool
    probability: float
    analysis_minutes: float
    fell_back: bool


class ApiChecker:
    """The deployed malware-detection system.

    Args:
        sdk: API registry the system is built against.
        classifier_factory: zero-arg factory for the model (default:
            random forest, the paper's choice).
        feature_mode: feature families to use (default A+P+I).
        feature_encoding: "binary" (deployed) or "histogram" (the §6
            future-work encoding retaining invocation frequencies).
        monkey_events: UI events per analysis (paper: 5K).
        env: device environment (default: hardened emulator).
        decision_threshold: probability above which an app is flagged.
        seed: seed for engines and model.
        registry: when given, every engine this checker builds and the
            fitted classifier record their telemetry into this one
            registry (the unified stats surface the CLI snapshots);
            when None each engine keeps a private registry.
        sink: optional span sink threaded through to the engines.
    """

    def __init__(
        self,
        sdk: AndroidSdk,
        classifier_factory: Callable[[], Classifier] | None = None,
        feature_mode: FeatureMode = FeatureMode.API,
        feature_encoding: str = "binary",
        monkey_events: int = 5000,
        env: DeviceEnvironment | None = None,
        decision_threshold: float = 0.5,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
    ):
        if not 0.0 < decision_threshold < 1.0:
            raise ValueError("decision_threshold must be in (0, 1)")
        self.sdk = sdk
        # partial, not a lambda: checkers must stay picklable so the
        # serve-layer model registry can persist fitted artifacts.
        self.classifier_factory = classifier_factory or functools.partial(
            RandomForest, seed=seed
        )
        self.feature_mode = feature_mode
        self.feature_encoding = feature_encoding
        self.monkey_events = monkey_events
        self.env = env or DeviceEnvironment.hardened_emulator()
        self.decision_threshold = decision_threshold
        self.seed = seed
        self.registry = registry
        self.sink = sink
        self.selection: KeyApiSelection | None = None
        self.feature_space: FeatureSpace | None = None
        self.classifier: Classifier | None = None
        self._prod_engine: DynamicAnalysisEngine | None = None

    # ------------------------------------------------------------------
    # Training (the §4 study pipeline)
    # ------------------------------------------------------------------

    def study_engine(self) -> DynamicAnalysisEngine:
        """Engine in study configuration: all APIs, reference emulator."""
        return DynamicAnalysisEngine(
            self.sdk,
            tracked_api_ids=np.arange(len(self.sdk)),
            primary=GoogleEmulator(),
            fallback=None,
            env=self.env,
            monkey_events=self.monkey_events,
            seed=self.seed,
            registry=self.registry,
            sink=self.sink,
        )

    def fit(
        self,
        corpus: AppCorpus,
        labels: np.ndarray | None = None,
        study_observations: list[AppObservation] | None = None,
        key_api_ids: np.ndarray | None = None,
    ) -> "ApiChecker":
        """Mine key APIs and train the classifier.

        Args:
            corpus: training apps.
            labels: market labels (defaults to corpus ground truth).
            study_observations: precomputed all-API observations for the
                corpus, to avoid re-running the study emulation.
            key_api_ids: skip SRC mining and use this key set (for
                ablations such as Fig. 7's top-n sweeps).
        """
        labels = corpus.labels if labels is None else np.asarray(labels)
        if len(labels) != len(corpus):
            raise ValueError("labels must align with the corpus")
        if study_observations is None:
            study_observations = self.study_engine().observations(corpus)
        if len(study_observations) != len(corpus):
            raise ValueError("observations must align with the corpus")

        X_api = invocation_matrix(study_observations, len(self.sdk))
        if key_api_ids is None:
            self.selection = select_key_apis(X_api, labels, self.sdk)
            key_api_ids = self.selection.key_api_ids
        else:
            key_api_ids = np.unique(np.asarray(key_api_ids, dtype=int))
            self.selection = None
        self.feature_space = FeatureSpace(
            self.sdk,
            key_api_ids,
            self.feature_mode,
            encoding=self.feature_encoding,
        )
        X = self.feature_space.encode_batch(study_observations)
        self.classifier = self.classifier_factory()
        if self.registry is not None and hasattr(
            self.classifier, "bind_registry"
        ):
            self.classifier.bind_registry(self.registry)
        self.classifier.fit(X, labels.astype(np.int8))
        self._prod_engine = DynamicAnalysisEngine(
            self.sdk,
            tracked_api_ids=(
                key_api_ids if self.feature_mode.uses_apis else []
            ),
            primary=LightweightEmulator(),
            fallback=GoogleEmulator(),
            env=self.env,
            monkey_events=self.monkey_events,
            seed=self.seed + 1,
            registry=self.registry,
            sink=self.sink,
        )
        return self

    def with_env(self, env: DeviceEnvironment) -> "ApiChecker":
        """A copy of this checker whose engines run in ``env``.

        Model state (feature space, classifier, key-API selection) is
        shared with the original — only the environment changes, and a
        fitted checker gets its production engine rebuilt against the
        new device flags.  This is how the adversarial-scenario harness
        replays the same trained model with emulator hardening on vs.
        off without paying for a refit.
        """
        clone = copy.copy(self)
        clone.env = env
        if self._prod_engine is not None:
            clone._prod_engine = DynamicAnalysisEngine(
                self.sdk,
                tracked_api_ids=(
                    self.key_api_ids if self.feature_mode.uses_apis else []
                ),
                primary=LightweightEmulator(),
                fallback=GoogleEmulator(),
                env=env,
                monkey_events=self.monkey_events,
                seed=self.seed + 1,
                registry=self.registry,
                sink=self.sink,
            )
        return clone

    @property
    def key_api_ids(self) -> np.ndarray:
        self._require_fitted()
        return self.feature_space.api_ids

    @property
    def production_engine(self) -> DynamicAnalysisEngine:
        """The fitted production engine (lightweight + fallback)."""
        self._require_fitted()
        return self._prod_engine

    def _require_fitted(self) -> None:
        if self.feature_space is None or self.classifier is None:
            raise RuntimeError("ApiChecker must be fitted before use")

    # ------------------------------------------------------------------
    # Vetting (the §5 production pipeline)
    # ------------------------------------------------------------------

    def score_observations(
        self, observations: Sequence[AppObservation]
    ) -> np.ndarray:
        """Malice probabilities for a batch of (possibly cached)
        observations: one columnar encode, one blocked classifier call.
        A row scores bitwise the same alone as inside any batch (the
        batch equivalence battery pins this)."""
        self._require_fitted()
        return self.classifier.predict_proba_batch(
            self.feature_space.encode_block(observations)
        )

    def verdicts_from_observations(
        self,
        observations: Sequence[AppObservation],
        analysis_minutes: Sequence[float] | None = None,
        fell_back: Sequence[bool] | None = None,
    ) -> list[VetVerdict]:
        """Classify observations produced elsewhere (pipeline, cache,
        replayed log), scoring the whole batch in one blocked call.
        A verdict depends only on its observation's features, so a
        cache hit yields the same malicious/probability pair as the
        original emulation did.

        Args:
            observations: observations to classify (may be empty).
            analysis_minutes: optional per-app wall-clock overrides,
                aligned with ``observations``.
            fell_back: optional per-app fallback flags, aligned with
                ``observations``.
        """
        observations = list(observations)
        probs = self.score_observations(observations)
        verdicts = []
        for i, obs in enumerate(observations):
            prob = float(probs[i])
            verdicts.append(
                VetVerdict(
                    apk_md5=obs.apk_md5,
                    malicious=prob >= self.decision_threshold,
                    probability=prob,
                    analysis_minutes=(
                        obs.analysis_minutes
                        if analysis_minutes is None
                        else float(analysis_minutes[i])
                    ),
                    fell_back=(
                        False if fell_back is None else bool(fell_back[i])
                    ),
                )
            )
        return verdicts

    def vet_batch(self, corpus: AppCorpus | list[Apk]) -> list[VetVerdict]:
        """Analyze each APK, then score the whole batch in one block.

        Emulation is inherently per-app; classification is not, so the
        scoring hot path runs once over the full batch.  Empty input
        yields an empty verdict list.
        """
        self._require_fitted()
        analyses = [self._prod_engine.analyze(apk) for apk in corpus]
        return self.verdicts_from_observations(
            [a.observation for a in analyses],
            analysis_minutes=[a.total_minutes for a in analyses],
            fell_back=[a.fell_back for a in analyses],
        )

    def evaluate(
        self, corpus: AppCorpus, labels: np.ndarray | None = None
    ) -> ClassificationReport:
        """Vet a labelled corpus and report precision/recall/F1."""
        labels = corpus.labels if labels is None else np.asarray(labels)
        verdicts = self.vet_batch(corpus)
        predicted = np.array([v.malicious for v in verdicts])
        return evaluate(labels, predicted)

    # ------------------------------------------------------------------
    # Interpretability
    # ------------------------------------------------------------------

    def gini_table(self, k: int = 20) -> list[tuple[str, float]]:
        """Top-k features by Gini importance (Fig. 13)."""
        self._require_fitted()
        importances = getattr(self.classifier, "feature_importances_", None)
        if importances is None:
            raise RuntimeError(
                f"{type(self.classifier).__name__} exposes no Gini importances"
            )
        names = self.feature_space.feature_names
        order = np.argsort(importances)[::-1][:k]
        return [(names[i], float(importances[i])) for i in order]
