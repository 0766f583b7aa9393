"""Random forest — the classifier APICHECKER ships with.

The paper picks random forest over eight alternatives because it gives
the best precision, near-best recall, short training time, and
interpretable Gini feature importances (Table 2, Fig. 13).  This
implementation bags fully grown CART trees with sqrt-feature
subsampling and averages leaf probabilities.

Scoring goes through the forest's compiled
:class:`~repro.ml.tree.TreeKernel`: the trees are flattened once into
contiguous arrays (at model load, or on first score after a fit) and
every (tree, row) pair is routed level by level in a few numpy calls.
The per-row leaf probabilities are summed in the fixed tree order, so a
row scores bitwise the same alone or inside any batch.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy
from repro.ml.tree import CompiledTreesMixin, _TreeBuilder


class RandomForest(CompiledTreesMixin, Classifier):
    """Bootstrap-aggregated CART ensemble.

    Args:
        n_trees: ensemble size.
        max_depth: per-tree depth cap.
        min_samples_leaf: per-leaf minimum.
        max_features: candidates per split ("sqrt", int, or None).
        bootstrap: sample with replacement per tree.
        balanced: draw each tree's bootstrap with class weights that
            lift the minority class to roughly ``BALANCED_POSITIVE_SHARE``
            of the sample, so the ~7.7% malware class is not drowned out
            on small corpora without flooding the trees with positives.
        seed: rng seed.
    """

    name = "rf"
    _fitted_attr = "_roots"

    #: Target positive-class share of each balanced bootstrap sample.
    BALANCED_POSITIVE_SHARE = 0.3

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 32,
        min_samples_leaf: int = 2,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        balanced: bool = True,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.balanced = balanced
        self.seed = seed
        self._roots: list | None = None
        self.feature_importances_: np.ndarray | None = None

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return min(self.max_features, d)
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X, y = check_Xy(X, y)
        Xb = X.astype(np.uint8)
        yf = y.astype(np.float64)
        rng = np.random.default_rng(self.seed)
        n, d = Xb.shape
        max_features = self._resolve_max_features(d)
        if self.balanced:
            pos = max(float(yf.mean()), 1e-9)
            share = self.BALANCED_POSITIVE_SHARE
            weights = np.where(
                yf == 1, share / pos, (1.0 - share) / (1.0 - pos)
            )
            weights = weights / weights.sum()
        else:
            weights = None
        roots = []
        importances = np.zeros(d)
        for _ in range(self.n_trees):
            if self.bootstrap:
                idx = rng.choice(n, size=n, replace=True, p=weights)
            else:
                idx = np.arange(n)
            builder = _TreeBuilder(
                criterion="gini",
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                rng=rng,
            )
            roots.append(builder.build(Xb[idx], yf[idx]))
            importances += builder.importances
        self._roots = roots
        self._drop_kernel()
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        return self

    def _trees(self) -> list | None:
        return self._roots

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf probability over the ensemble, all rows at once.

        The compiled kernel sums each row's leaf probabilities in the
        fixed tree order, so results are batch-size invariant.
        """
        Xb = X.astype(np.uint8, copy=False)
        return self._kernel().ordered_sum(Xb) / len(self._roots)

    def top_features(self, k: int = 20) -> np.ndarray:
        """Indices of the k most Gini-important features, descending."""
        self._require_fitted("feature_importances_")
        if k < 1:
            raise ValueError("k must be >= 1")
        order = np.argsort(self.feature_importances_)[::-1]
        return order[:k]
