"""Linear support vector machine (Table 2's 'SVM' row).

Primal L2-regularized hinge loss, optimized full-batch with Adam and
inverse-frequency class weights (the corpus is ~7.7% malware).  The
decision intercept is calibrated so the training predicted-positive
rate matches the observed base rate; probability output is a
Platt-style sigmoid of the margin.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy, row_stable_matvec


class LinearSVM(Classifier):
    """Hinge-loss linear classifier.

    Args:
        lam: L2 regularization strength.
        epochs: full-batch Adam steps (scaled up internally; the SVM is
            deliberately the most training-expensive linear model here,
            matching its standing in the paper's Table 2).
        lr: Adam step size.
        balanced: weight classes inversely to frequency.
        seed: initialization seed.
    """

    name = "svm"
    _fitted_attr = "coef_"

    #: Adam steps per configured epoch.
    STEPS_PER_EPOCH = 20

    def __init__(
        self,
        lam: float = 1e-4,
        epochs: int = 30,
        lr: float = 0.05,
        balanced: bool = True,
        seed: int = 0,
    ):
        if lam <= 0:
            raise ValueError("lam must be positive")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.lam = lam
        self.epochs = epochs
        self.lr = lr
        self.balanced = balanced
        self.seed = seed
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._platt_scale: float = 2.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearSVM":
        X, y = check_Xy(X, y)
        n, d = X.shape
        sign = np.where(y == 1, 1.0, -1.0)
        if self.balanced:
            pos = max(float((y == 1).mean()), 1e-9)
            weight = np.where(y == 1, 0.5 / pos, 0.5 / (1.0 - pos))
        else:
            weight = np.ones(n)
        weight = weight / weight.sum()

        rng = np.random.default_rng(self.seed)
        w = rng.normal(0.0, 1e-3, size=d)
        b = 0.0
        m_w = np.zeros(d)
        v_w = np.zeros(d)
        m_b = v_b = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, self.epochs * self.STEPS_PER_EPOCH + 1):
            margins = sign * (X @ w + b)
            violating = (margins < 1.0).astype(np.float64)
            coeff = -sign * weight * violating
            grad_w = X.T @ coeff + self.lam * w
            grad_b = float(coeff.sum())
            m_w = beta1 * m_w + (1 - beta1) * grad_w
            v_w = beta2 * v_w + (1 - beta2) * grad_w**2
            m_b = beta1 * m_b + (1 - beta1) * grad_b
            v_b = beta2 * v_b + (1 - beta2) * grad_b**2
            w -= self.lr * (m_w / (1 - beta1**t)) / (
                np.sqrt(v_w / (1 - beta2**t)) + eps
            )
            b -= self.lr * (m_b / (1 - beta1**t)) / (
                np.sqrt(v_b / (1 - beta2**t)) + eps
            )
        self.coef_ = w
        # Calibrate the intercept so the training predicted-positive
        # rate reproduces the base rate (robust under heavy imbalance).
        raw = X @ w
        base_rate = float((y == 1).mean())
        threshold = float(np.quantile(raw, 1.0 - base_rate))
        self.intercept_ = -threshold
        margins = raw + self.intercept_
        spread = float(np.abs(margins).mean())
        self._platt_scale = 1.0 / max(spread, 1e-6)
        return self

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Platt sigmoid of the margin."""
        # Row-stable matvec, not BLAS: scoring must be batch-invariant.
        Xf = X.astype(np.float32, copy=False)
        margins = row_stable_matvec(Xf, self.coef_) + self.intercept_
        z = margins * self._platt_scale
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))
