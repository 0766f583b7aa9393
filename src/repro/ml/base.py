"""Classifier interface, input validation, and batch-stable kernels.

Every classifier scores through one method,
:meth:`Classifier.predict_proba_batch`; a single app is a batch of one.
The base method owns the input handling and each model supplies only a
private ``_proba`` kernel.

Two numerical facts shape that kernel:

* BLAS matrix products (numpy's ``@``) are **not** batch-invariant:
  the same row scored alone and inside a 1024-row block can differ in
  the last ulp, because GEMM/GEMV summation order depends on the
  operand shapes.
* numpy's own reduction loops (``einsum`` without ``optimize``,
  ``(X * w).sum(axis=1)``) reduce each output element in an order that
  depends only on the contracted length — they *are* batch-invariant.

Every ``_proba`` kernel therefore routes its linear algebra through
:func:`row_stable_matvec` / :func:`row_stable_matmul`, which is what
lets :meth:`Classifier.predict_proba_batch` promise that a row scores
bitwise the same alone as inside a batch of any size and in any row
order.  Training keeps plain BLAS — fit determinism across batch shapes
is not part of the contract, and the fit path is matmul heavy.
"""

from __future__ import annotations

import abc
import functools
import time

import numpy as np

from repro.obs import MetricsRegistry, default_registry


def _timed(fn, metric: str):
    """Wrap a Classifier method to record wall time into a registry.

    The duration lands in a ``<metric>{classifier=...}`` histogram on
    the instance's bound registry (:meth:`Classifier.bind_registry`),
    falling back to the process-wide default.  A method that returns
    scores also labels the observation with ``batch_size``, the number
    of rows it scored.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        labels = {"classifier": getattr(self, "name", type(self).__name__)}
        started = time.perf_counter()
        result = None
        try:
            result = fn(self, *args, **kwargs)
            return result
        finally:
            if isinstance(result, np.ndarray):
                labels["batch_size"] = str(len(result))
            registry = getattr(self, "_obs_registry", None)
            if registry is None:
                registry = default_registry()
            registry.observe(
                metric, time.perf_counter() - started, **labels
            )

    wrapper._obs_wrapped = True
    return wrapper


def row_stable_matvec(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X @ w`` with per-row summation order independent of the batch.

    Each output element is reduced over the feature axis in an order
    fixed by the feature count alone, so row ``i`` of a 1024-row block
    is bitwise identical to scoring that row on its own — the property
    the ``predict_proba_batch`` contract rests on.  BLAS ``@`` does not
    guarantee this.
    """
    return np.einsum("nd,d->n", X, w, optimize=False)


def row_stable_matmul(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``X @ W`` with per-row summation order independent of the batch.

    See :func:`row_stable_matvec`; the same guarantee, for matrix
    right-hand sides (neural-network layers, per-class score columns).
    """
    return np.einsum("nd,dh->nh", X, W, optimize=False)


def check_Xy(
    X: np.ndarray, y: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate and normalize a feature matrix (and optional labels).

    X is coerced to a 2-D float32 matrix; y to a 1-D {0,1} int8 vector.
    """
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"X must be non-empty, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(
            f"y must be 1-D with {X.shape[0]} entries, got shape {y.shape}"
        )
    y = y.astype(np.int8)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("y must be binary (0/1 or bool)")
    return X, y


class Classifier(abc.ABC):
    """Binary classifier interface.

    Implementations are positive-class = malicious by convention; all
    return probabilities in [0, 1] from :meth:`predict_proba_batch` and
    hard labels from :meth:`predict`.  A subclass implements ``fit``
    and the ``_proba`` kernel, and names in ``_fitted_attr`` the
    attribute ``fit`` sets.
    """

    #: Human-readable name used in experiment tables.
    name: str = "classifier"

    #: Attribute that is None until ``fit`` has run.
    _fitted_attr: str

    #: Registry fit/predict wall-times are recorded into (None: the
    #: process-wide default).  Set via :meth:`bind_registry`.
    _obs_registry: MetricsRegistry | None = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fit = cls.__dict__.get("fit")
        if callable(fit) and not getattr(fit, "_obs_wrapped", False):
            cls.fit = _timed(fit, "ml_fit_seconds")

    def bind_registry(self, registry: MetricsRegistry) -> "Classifier":
        """Direct this model's timing metrics to ``registry``."""
        self._obs_registry = registry
        return self

    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Classifier":
        """Train on (X, y); returns self for chaining."""

    @abc.abstractmethod
    def _proba(self, X: np.ndarray) -> np.ndarray:
        """P(malicious) per row of a non-empty uint8 or float32 matrix.

        Each kernel casts ``X`` to the dtype it computes in (uint8 for
        the tree models, float32 for the rest).
        """

    def predict_proba_batch(self, block) -> np.ndarray:
        """P(malicious) per row of a batch; one app is a batch of one.

        Contract (the batch equivalence battery pins every point):

        * accepts a :class:`~repro.core.features.FeatureBlock` or a
          2-D matrix;
        * an unfitted model raises ``RuntimeError`` at any row count;
        * zero rows return an empty float64 array without touching
          the model kernel;
        * a row scores **bitwise** the same alone as inside a batch of
          any size and in any row order;
        * exactly one ``ml_predict_seconds`` observation is recorded,
          labelled with the batch size.

        A uint8 matrix (the ``FeatureBlock`` layout) passes to the
        kernel untouched; anything else is validated and converted to
        float32 once by :func:`check_Xy`.
        """
        self._require_fitted(self._fitted_attr)
        X = np.asarray(getattr(block, "matrix", block))
        if X.ndim != 2:
            raise ValueError(
                f"batch input must be 2-D, got shape {X.shape}"
            )
        if X.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        if X.dtype != np.uint8:
            X, _ = check_Xy(X)
        return self._proba(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels at the given probability threshold."""
        return (self.predict_proba_batch(X) >= threshold).astype(np.int8)

    def _require_fitted(self, attr: str) -> None:
        if getattr(self, attr, None) is None:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before prediction"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


Classifier.predict_proba_batch = _timed(
    Classifier.predict_proba_batch, "ml_predict_seconds"
)
