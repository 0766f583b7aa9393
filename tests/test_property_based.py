"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.metrics import ClassificationReport, confusion_counts, evaluate
from repro.ml.stats import r2_score, rankdata, spearman_rho
from repro.ml.tree import CartTree
from repro.ml.validation import stratified_kfold

# ----------------------------------------------------------------------
# Metrics invariants
# ----------------------------------------------------------------------

labels = hnp.arrays(np.int8, st.integers(2, 60), elements=st.integers(0, 1))


@given(labels, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_confusion_counts_sum_to_n(y, seed):
    rng = np.random.default_rng(seed)
    p = rng.integers(0, 2, size=y.size).astype(np.int8)
    tp, fp, tn, fn = confusion_counts(y, p)
    assert tp + fp + tn + fn == y.size
    rep = ClassificationReport(tp, fp, tn, fn)
    assert 0.0 <= rep.precision <= 1.0
    assert 0.0 <= rep.recall <= 1.0
    # F1 lies between precision and recall, up to float rounding (when
    # precision == recall their harmonic mean equals them exactly in
    # real arithmetic but not in binary64: e.g. tp=2 fp=3 fn=3 gives
    # f1 = 0.4000000000000001 > 0.4).
    eps = 1e-12
    assert (
        min(rep.precision, rep.recall) - eps
        <= rep.f1
        <= max(rep.precision, rep.recall) + eps
    ) or rep.f1 == 0.0


@given(labels)
@settings(max_examples=30, deadline=None)
def test_perfect_prediction_is_perfect(y):
    rep = evaluate(y, y.copy())
    assert rep.accuracy == 1.0
    if y.any():
        assert rep.precision == 1.0 and rep.recall == 1.0


# ----------------------------------------------------------------------
# Statistics invariants
# ----------------------------------------------------------------------

floats = hnp.arrays(
    np.float64,
    st.integers(2, 50),
    elements=st.floats(-100, 100, allow_nan=False),
)


@given(floats)
@settings(max_examples=60, deadline=None)
def test_rankdata_is_permutation_preserving(x):
    ranks = rankdata(x)
    assert ranks.sum() == x.size * (x.size + 1) / 2
    # Order relation preserved for strict inequalities.
    order = np.argsort(x, kind="mergesort")
    sorted_ranks = ranks[order]
    assert np.all(np.diff(sorted_ranks) >= 0)


@given(floats, st.floats(0.1, 10), st.floats(-5, 5))
@settings(max_examples=60, deadline=None)
def test_spearman_invariant_to_monotone_transform(x, scale, shift):
    y = scale * x + shift
    if np.unique(x).size < 2:
        assert spearman_rho(x, y) == 0.0
    elif np.unique(y).size < np.unique(x).size:
        # Floating-point underflow collapsed distinct x values in y; the
        # transform was not injective, so invariance does not apply.
        pass
    else:
        assert spearman_rho(x, y) == pytest.approx(1.0)
        assert spearman_rho(x, -y) == pytest.approx(-1.0)


@given(floats)
@settings(max_examples=40, deadline=None)
def test_spearman_symmetry(x):
    rng = np.random.default_rng(0)
    y = rng.normal(size=x.size)
    assert spearman_rho(x, y) == spearman_rho(y, x)
    assert -1.0 <= spearman_rho(x, y) <= 1.0


@given(floats)
@settings(max_examples=40, deadline=None)
def test_r2_of_exact_fit_is_one(y):
    assert r2_score(y, y) == 1.0


# ----------------------------------------------------------------------
# Tree invariants
# ----------------------------------------------------------------------


@given(st.integers(0, 2**31 - 1), st.integers(20, 120), st.integers(2, 25))
@settings(max_examples=25, deadline=None)
def test_tree_probabilities_bounded_and_fit_improves(seed, n, d):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < 0.3).astype(np.uint8)
    y = (X[:, 0] | X[:, 1]).astype(np.int8)
    if y.sum() in (0, y.size):
        return
    tree = CartTree(seed=seed).fit(X, y)
    proba = tree.predict_proba_batch(X)
    assert np.all(proba >= 0.0) and np.all(proba <= 1.0)
    # Training accuracy must beat the majority-class baseline.
    acc = (tree.predict(X) == y).mean()
    base = max(y.mean(), 1 - y.mean())
    assert acc >= base - 1e-9


# ----------------------------------------------------------------------
# Stratified folds invariants
# ----------------------------------------------------------------------


@given(st.integers(0, 1000), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_kfold_partition_property(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4 * k, 120))
    y = np.zeros(n, dtype=np.int8)
    pos = rng.choice(n, size=max(k, n // 5), replace=False)
    y[pos] = 1
    if min(y.sum(), n - y.sum()) < k:
        return
    folds = stratified_kfold(y, n_splits=k, seed=seed)
    covered = np.concatenate([t for _, t in folds])
    assert sorted(covered.tolist()) == list(range(n))
