"""Batch-vs-single scoring equivalence battery.

The ``predict_proba_batch`` contract promises that a row scored as a
batch of one is **bitwise** equal — not approximately close — to the
same row scored inside a batch of any size and in any row order, for
every bundled classifier, and that a float32 matrix scores the same
bits as the uint8 ``FeatureBlock`` holding the same rows.  That only
holds because the scoring kernels route their linear algebra through
the row-stable kernels in :mod:`repro.ml.base`; these tests are the
tripwire for anyone swapping a BLAS matmul back in.

Also covered: the empty-input edges (zero-row blocks, ``vet_batch([])``,
an empty serve micro-batch) return empty results instead of raising,
with all counters untouched.
"""

import numpy as np
import pytest

from repro.core.features import FeatureBlock
from repro.ml import CLASSIFIER_NAMES, make_classifier
from repro.ml.base import Classifier
from repro.obs import MetricsRegistry

N_ROWS = 1024
N_FEATURES = 150
BATCH_SIZES = (1, 7, 1024)


@pytest.fixture(scope="module")
def score_data():
    """Small synthetic binary world: train split + a 1024-row block."""
    rng = np.random.default_rng(9001)
    X_train = (rng.random((400, N_FEATURES)) < 0.15).astype(np.uint8)
    y_train = (rng.random(400) < 0.3).astype(np.int64)
    # Both classes must be present for every fit.
    y_train[:2] = (0, 1)
    X_test = (rng.random((N_ROWS, N_FEATURES)) < 0.15).astype(np.uint8)
    md5s = tuple(f"{i:032x}" for i in range(N_ROWS))
    return X_train, y_train, FeatureBlock(X_test, md5s)


@pytest.fixture(scope="module")
def fitted(score_data):
    """name -> fitted classifier, trained lazily and cached."""
    X_train, y_train, _ = score_data
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make_classifier(name, seed=7).fit(X_train, y_train)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def single_scores(score_data, fitted):
    """name -> each test row scored as a batch of one (cached)."""
    _, _, block = score_data
    cache = {}

    def get(name):
        if name not in cache:
            clf = fitted(name)
            cache[name] = np.array(
                [
                    clf.predict_proba_batch(block.matrix[i : i + 1])[0]
                    for i in range(len(block))
                ]
            )
        return cache[name]

    return get


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_equals_single_exactly(
    score_data, fitted, single_scores, name, batch_size
):
    _, _, block = score_data
    clf = fitted(name)
    reference = single_scores(name)
    parts = [
        clf.predict_proba_batch(
            block.take(np.arange(start, min(start + batch_size, len(block))))
        )
        for start in range(0, len(block), batch_size)
    ]
    scores = np.concatenate(parts)
    assert scores.shape == (len(block),)
    # Exact, not approx: the whole point of the row-stable kernels.
    assert np.array_equal(scores, reference)


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_shuffled_rows_score_identically(
    score_data, fitted, single_scores, name, rng
):
    _, _, block = score_data
    reference = single_scores(name)
    perm = rng.permutation(len(block))
    shuffled = fitted(name).predict_proba_batch(block.take(perm))
    assert np.array_equal(shuffled, reference[perm])


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_zero_row_block_returns_empty(score_data, fitted, name):
    empty = FeatureBlock(
        np.zeros((0, N_FEATURES), dtype=np.uint8), ()
    )
    scores = fitted(name).predict_proba_batch(empty)
    assert scores.shape == (0,)
    assert scores.dtype == np.float64


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_float32_matrix_scores_like_the_uint8_block(
    score_data, fitted, single_scores, name
):
    """A float32 matrix is validated and converted once; the uint8
    block goes to the kernel untouched.  Both give the same bits."""
    _, _, block = score_data
    clf = fitted(name)
    as_float = clf.predict_proba_batch(block.matrix.astype(np.float32))
    assert np.array_equal(as_float, clf.predict_proba_batch(block))
    assert np.array_equal(as_float, single_scores(name))


def test_fallback_shim_matches_contract(score_data):
    """A classifier defining only ``fit`` and ``_proba`` falls back on
    the base batch method: the empty case, the unfitted check and the
    batch-of-one equivalence all come from there."""

    class Means(Classifier):
        name = "means"
        _fitted_attr = "_width"
        _width = None
        kernel_calls = 0

        def fit(self, X, y):
            self._width = np.asarray(X).shape[1]
            return self

        def _proba(self, X):
            self.kernel_calls += 1
            # Per-row reduction: batch-invariant by construction.
            return X.mean(axis=1, dtype=np.float64)

    clf = Means()
    empty = FeatureBlock(np.zeros((0, N_FEATURES), dtype=np.uint8), ())
    with pytest.raises(RuntimeError, match="fitted"):
        clf.predict_proba_batch(empty)
    clf.fit(np.zeros((3, N_FEATURES), dtype=np.uint8), None)
    scores = clf.predict_proba_batch(empty)
    assert scores.shape == (0,) and scores.dtype == np.float64
    assert clf.kernel_calls == 0
    _, _, block = score_data
    reference = np.array(
        [
            clf.predict_proba_batch(block.matrix[i : i + 1])[0]
            for i in range(len(block))
        ]
    )
    assert np.array_equal(clf.predict_proba_batch(block), reference)
    assert np.array_equal(reference, block.matrix.mean(axis=1))


# -- empty-input regressions across the consumers -------------------------


def test_vet_batch_empty_returns_empty(fitted_checker):
    assert fitted_checker.vet_batch([]) == []


def test_score_observations_empty_returns_empty(fitted_checker):
    scores = fitted_checker.score_observations([])
    assert scores.shape == (0,)
    verdicts = fitted_checker.verdicts_from_observations([])
    assert verdicts == []


def test_empty_serve_micro_batch_is_a_no_op(tmp_path, fitted_checker):
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import OnlineVettingService

    metrics = MetricsRegistry()
    models = ModelRegistry(tmp_path / "models", metrics=metrics)
    models.publish(fitted_checker, activate=True)
    service = OnlineVettingService(models, metrics=metrics)
    try:
        service._process_batch([])
    finally:
        service.close()
    assert metrics.value("serve_batches_total") == 0
    assert metrics.value("serve_scored_total") == 0
    assert metrics.value("serve_flagged_total") == 0
    assert metrics.histogram_count("serve_e2e_seconds") == 0
