"""Feed-forward neural networks (Table 2's 'ANN' and 'DNN' rows).

A single hidden layer instantiates the paper's ANN; a deeper stack
instantiates its DNN.  Training is mini-batch Adam on the weighted
cross-entropy, with ReLU activations and a sigmoid output.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import Classifier, check_Xy, row_stable_matmul


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class NeuralNetwork(Classifier):
    """Multi-layer perceptron for binary classification.

    Args:
        hidden_layers: widths of the hidden layers; ``(64,)`` is the
            ANN configuration, ``(256, 128, 64)`` the DNN one.
        lr: Adam step size.
        epochs: passes over the training data.
        batch_size: mini-batch rows.
        l2: weight decay.
        balanced: weight classes inversely to frequency.
        seed: initialization/shuffling seed.
    """

    name = "ann"
    _fitted_attr = "_weights"

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (64,),
        lr: float = 1e-3,
        epochs: int = 30,
        batch_size: int = 128,
        l2: float = 1e-5,
        balanced: bool = True,
        seed: int = 0,
    ):
        if not hidden_layers or any(h < 1 for h in hidden_layers):
            raise ValueError("hidden_layers must be positive widths")
        if epochs < 1 or batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        self.hidden_layers = tuple(hidden_layers)
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.balanced = balanced
        self.seed = seed
        self.name = "dnn" if len(self.hidden_layers) > 1 else "ann"
        self._weights: list[np.ndarray] | None = None
        self._biases: list[np.ndarray] | None = None

    def _init_params(self, d: int, rng: np.random.Generator):
        sizes = [d, *self.hidden_layers, 1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            weights.append(rng.normal(0, scale, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return weights, biases

    def _forward(self, X: np.ndarray):
        """Return activations per layer (input first, logits last)."""
        acts = [X]
        h = X
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ w + b
            h = z if i == len(self._weights) - 1 else np.maximum(z, 0.0)
            acts.append(h)
        return acts

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NeuralNetwork":
        X, y = check_Xy(X, y)
        n, d = X.shape
        yf = y.astype(np.float64)
        if self.balanced:
            pos = max(yf.mean(), 1e-9)
            sample_w = np.where(yf == 1, 0.5 / pos, 0.5 / (1 - pos))
            sample_w = sample_w / sample_w.mean()
        else:
            sample_w = np.ones(n)
        rng = np.random.default_rng(self.seed)
        self._weights, self._biases = self._init_params(d, rng)
        m_w = [np.zeros_like(w) for w in self._weights]
        v_w = [np.zeros_like(w) for w in self._weights]
        m_b = [np.zeros_like(b) for b in self._biases]
        v_b = [np.zeros_like(b) for b in self._biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                acts = self._forward(X[idx])
                logits = acts[-1][:, 0]
                p = _sigmoid(logits)
                # dL/dlogit for weighted cross-entropy.
                delta = ((p - yf[idx]) * sample_w[idx] / idx.size)[:, None]
                step += 1
                for layer in range(len(self._weights) - 1, -1, -1):
                    a_prev = acts[layer]
                    grad_w = a_prev.T @ delta + self.l2 * self._weights[layer]
                    grad_b = delta.sum(axis=0)
                    if layer > 0:
                        delta = (delta @ self._weights[layer].T) * (
                            acts[layer] > 0
                        )
                    for store, grad, params in (
                        ((m_w, v_w), grad_w, self._weights),
                        ((m_b, v_b), grad_b, self._biases),
                    ):
                        m, v = store
                        m[layer] = beta1 * m[layer] + (1 - beta1) * grad
                        v[layer] = beta2 * v[layer] + (1 - beta2) * grad**2
                        m_hat = m[layer] / (1 - beta1**step)
                        v_hat = v[layer] / (1 - beta2**step)
                        params[layer] = params[layer] - self.lr * m_hat / (
                            np.sqrt(v_hat) + eps
                        )
        return self

    def _proba(self, X: np.ndarray) -> np.ndarray:
        """Inference-only forward pass through row-stable matmuls.

        Training keeps BLAS (``_forward``) for speed; scoring routes
        every layer through :func:`row_stable_matmul` so batch and
        per-row results are bitwise identical.
        """
        h = X.astype(np.float32, copy=False)
        last = len(self._weights) - 1
        for i, (w, b) in enumerate(zip(self._weights, self._biases)):
            z = row_stable_matmul(h, w) + b
            h = z if i == last else np.maximum(z, 0.0)
        return _sigmoid(h[:, 0])
