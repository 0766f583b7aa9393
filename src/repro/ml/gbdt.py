"""Gradient-boosted decision trees (Table 2's 'GBDT' row).

Standard gradient boosting on the logistic loss: each stage fits a
shallow regression tree (variance-reduction splits over the binary
features) to the negative gradient ``y − p`` and the ensemble is
updated with a shrinkage factor.

Scoring goes through the compiled :class:`~repro.ml.tree.TreeKernel`;
the shrunk stage outputs are added to the base score in the fixed stage
order, so a row scores bitwise the same alone or inside any batch.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy
from repro.ml.tree import CompiledTreesMixin, _TreeBuilder, predict_tree


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class GradientBoostedTrees(CompiledTreesMixin, Classifier):
    """Boosted shallow trees with logistic loss.

    Args:
        n_estimators: boosting stages.
        learning_rate: shrinkage per stage.
        max_depth: per-tree depth (shallow by design).
        subsample: row-sampling fraction per stage (stochastic GB).
        min_samples_leaf: per-leaf minimum.
        seed: rng seed.
    """

    name = "gbdt"
    _fitted_attr = "_stages"

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        subsample: float = 0.8,
        min_samples_leaf: int = 5,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < learning_rate <= 1:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0 < subsample <= 1:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self._stages: list | None = None
        self._base_score: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X, y = check_Xy(X, y)
        Xb = X.astype(np.uint8)
        yf = y.astype(np.float64)
        rng = np.random.default_rng(self.seed)
        n = Xb.shape[0]
        # Initialize at the log-odds of the prior.
        prior = float(np.clip(yf.mean(), 1e-6, 1 - 1e-6))
        self._base_score = float(np.log(prior / (1 - prior)))
        raw = np.full(n, self._base_score)
        stages = []
        for _ in range(self.n_estimators):
            residual = yf - _sigmoid(raw)
            if self.subsample < 1.0:
                idx = rng.choice(
                    n, size=max(2, int(self.subsample * n)), replace=False
                )
            else:
                idx = np.arange(n)
            builder = _TreeBuilder(
                criterion="mse",
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=None,
                rng=rng,
            )
            root = builder.build(Xb[idx], residual[idx])
            update = predict_tree(root, Xb)
            raw = raw + self.learning_rate * update
            stages.append(root)
        self._stages = stages
        self._drop_kernel()
        return self

    def _trees(self) -> list | None:
        return self._stages

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Sigmoid of the boosted raw scores, all rows at once.

        Stage order fixes the per-row accumulation order, keeping the
        result batch-size invariant.
        """
        raw = self._kernel().ordered_sum(
            X.astype(np.uint8, copy=False),
            start=self._base_score,
            scale=self.learning_rate,
        )
        return _sigmoid(raw)
