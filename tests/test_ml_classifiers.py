"""Behavioural tests for all nine classifiers on controlled tasks."""

import numpy as np
import pytest

from repro.ml import CLASSIFIER_NAMES, evaluate, make_classifier
from repro.ml.base import check_Xy


def _separable_task(n=600, d=60, noise=0.05, seed=0):
    """Binary task where the first 10 features carry the class signal."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(np.int8)
    X = (rng.random((n, d)) < 0.08).astype(np.uint8)
    boost = (rng.random((n, 10)) < 0.55).astype(np.uint8)
    X[:, :10] |= boost * y[:, None].astype(np.uint8)
    flip = rng.random(n) < noise
    y[flip] = 1 - y[flip]
    return X, y


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_classifier_learns_separable_task(name):
    X, y = _separable_task()
    model = make_classifier(name, seed=1)
    model.fit(X[:450], y[:450])
    rep = evaluate(y[450:], model.predict(X[450:]))
    assert rep.f1 > 0.75, f"{name} failed to learn: {rep}"


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_probabilities_in_unit_interval(name):
    X, y = _separable_task(n=300)
    model = make_classifier(name, seed=2)
    model.fit(X[:200], y[:200])
    proba = model.predict_proba_batch(X[200:])
    assert proba.shape == (100,)
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_predict_before_fit_raises(name):
    model = make_classifier(name)
    with pytest.raises(RuntimeError):
        model.predict(np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("name", CLASSIFIER_NAMES)
def test_deterministic_given_seed(name):
    X, y = _separable_task(n=300)
    a = make_classifier(name, seed=7).fit(X, y).predict_proba_batch(X)
    b = make_classifier(name, seed=7).fit(X, y).predict_proba_batch(X)
    assert np.allclose(a, b)


def test_make_classifier_rejects_unknown():
    with pytest.raises(ValueError):
        make_classifier("xgboost")


def test_check_Xy_validation():
    with pytest.raises(ValueError):
        check_Xy(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        check_Xy(np.zeros(5))
    with pytest.raises(ValueError):
        check_Xy(np.zeros((4, 2)), np.array([0, 1, 2, 1]))
    with pytest.raises(ValueError):
        check_Xy(np.full((2, 2), np.nan))
    X, y = check_Xy(np.ones((2, 2)), np.array([True, False]))
    assert X.dtype == np.float32 and set(np.unique(y)) <= {0, 1}


def test_forest_gini_importance_finds_signal():
    X, y = _separable_task(n=800, d=40, seed=3)
    rf = make_classifier("rf", seed=3).fit(X, y)
    imp = rf.feature_importances_
    assert imp.shape == (40,)
    assert imp.sum() == pytest.approx(1.0)
    # Informative features (0..9) should dominate the ranking.
    top10 = set(np.argsort(imp)[::-1][:10].tolist())
    assert len(top10 & set(range(10))) >= 7
    assert set(rf.top_features(5).tolist()) <= top10


def test_cart_importance_normalized():
    X, y = _separable_task(n=400)
    cart = make_classifier("cart", seed=1).fit(X, y)
    assert cart.feature_importances_.sum() == pytest.approx(1.0)


def test_nb_requires_both_classes():
    X = np.ones((10, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        make_classifier("nb").fit(X, np.ones(10, dtype=np.int8))


def test_knn_feature_width_mismatch():
    X, y = _separable_task(n=100, d=20)
    knn = make_classifier("knn").fit(X, y)
    with pytest.raises(ValueError):
        knn.predict(np.zeros((5, 21), dtype=np.uint8))


def test_class_imbalance_does_not_collapse():
    """At ~7.7% positives (the market rate), recall must stay useful."""
    rng = np.random.default_rng(5)
    n, d = 1500, 50
    y = (rng.random(n) < 0.08).astype(np.int8)
    X = (rng.random((n, d)) < 0.05).astype(np.uint8)
    X[y == 1, :8] |= (rng.random((int(y.sum()), 8)) < 0.6).astype(np.uint8)
    for name in ("rf", "lr", "svm"):
        model = make_classifier(name, seed=5)
        model.fit(X[:1000], y[:1000])
        rep = evaluate(y[1000:], model.predict(X[1000:]))
        assert rep.recall > 0.5, f"{name} collapsed under imbalance: {rep}"
