"""Sharma et al. (CANS 2014): 35 correlated APIs, NB + kNN ensemble.

Statically extracts the 35 APIs most correlated with malice and
combines naive Bayes and kNN classifiers (Table 1 row: 91.2% precision,
97.5% recall over 1,600 apps).
"""

from __future__ import annotations

import numpy as np

from repro.android.apk import Apk
from repro.baselines.base import BaselineDetector
from repro.ml.knn import KNearestNeighbors
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.stats import spearman_rho_columns
from repro.staticanalysis.api_extractor import StaticApiExtractor


class SharmaEnsemble(BaselineDetector):
    """Static 35-API NB+kNN ensemble."""

    system_name = "Sharma et al."
    selection_strategy = "statistical correlations"
    analysis_method = "static"
    API_BUDGET = 35

    def __init__(self, sdk, seed: int = 0):
        super().__init__(sdk, seed)
        self._extractor = StaticApiExtractor(sdk)
        self._api_ids: np.ndarray | None = None
        self._nb = BernoulliNaiveBayes()
        self._knn = KNearestNeighbors(k=5)

    @property
    def n_apis(self) -> int:
        return self.API_BUDGET

    def fit(self, apps: list[Apk], labels: np.ndarray):
        labels = np.asarray(labels).astype(np.uint8)
        all_ids = np.arange(len(self.sdk))
        X_all = self._extractor.usage_matrix(apps, all_ids)
        src = spearman_rho_columns(X_all, labels)
        self._api_ids = np.sort(np.argsort(np.abs(src))[::-1][: self.API_BUDGET])
        X = X_all[:, self._api_ids]
        self._nb.fit(X, labels)
        self._knn.fit(X, labels)
        self._fitted = True
        return self

    def predict(self, apps: list[Apk]) -> np.ndarray:
        self._require_fitted()
        X = self._extractor.usage_matrix(apps, self._api_ids)
        # Soft-vote the two classifiers, as in the paper's combination.
        proba = (
            self._nb.predict_proba_batch(X) + self._knn.predict_proba_batch(X)
        ) / 2
        return (proba >= 0.5).astype(np.int8)

    def analysis_seconds(self, apps: list[Apk]) -> float:
        # Static decompile + scan scales with package size.
        sizes = np.array([a.size_mb for a in apps])
        return float(np.mean(2.0 + sizes * 0.15))
