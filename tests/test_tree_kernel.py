"""Compiled tree kernel vs the node-by-node walk it replaced.

Every tree model (random forest, GBDT, CART) scores through
:class:`repro.ml.tree.TreeKernel`.  The recursive mask-routing walk the
kernel replaced lives on here as the oracle: scores must match it
**bitwise**, summed in the same fixed tree order, at every batch size,
on encoded corpus blocks and on arbitrary binary blocks.  The kernel
is a cache, so pickling a model must give the same bytes before and
after it has scored.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.forest import RandomForest
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.tree import CartTree, TreeKernel, _Node

BATCH_SIZES = (1, 8, 32, 1024)


def walk_tree(root: _Node, X: np.ndarray) -> np.ndarray:
    """The pre-kernel scorer: route index groups down one tree."""
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] > 0
        stack.append((node.right, idx[mask]))
        stack.append((node.left, idx[~mask]))
    return out


def oracle_scores(model, Xb: np.ndarray) -> np.ndarray:
    """Each model's pre-kernel scoring loop, over :func:`walk_tree`."""
    if isinstance(model, RandomForest):
        probs = np.zeros(Xb.shape[0])
        for root in model._roots:
            probs += walk_tree(root, Xb)
        return probs / len(model._roots)
    if isinstance(model, GradientBoostedTrees):
        raw = np.full(Xb.shape[0], model._base_score)
        for root in model._stages:
            raw += model.learning_rate * walk_tree(root, Xb)
        return 1.0 / (1.0 + np.exp(-np.clip(raw, -35.0, 35.0)))
    return walk_tree(model._root, Xb)


def assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


MODELS = {
    "rf": lambda: RandomForest(n_trees=40, seed=3),
    "gbdt": lambda: GradientBoostedTrees(n_estimators=30, seed=3),
    "cart": lambda: CartTree(min_samples_leaf=1, seed=3),
}


@pytest.fixture(scope="module")
def corpus_block(fitted_checker, corpus, study_observations):
    """The shared corpus encoded under the fitted checker's space."""
    block = fitted_checker.feature_space.encode_block(
        list(study_observations)
    )
    labels = np.array([apk.is_malicious for apk in corpus], dtype=np.int8)
    return block.matrix, labels


@pytest.fixture(scope="module")
def corpus_models(corpus_block):
    """Each tree model fitted on the first half of the corpus block."""
    X, y = corpus_block
    half = X.shape[0] // 2
    return {
        name: build().fit(X[:half], y[:half])
        for name, build in MODELS.items()
    }


def _tiled(X: np.ndarray, n: int) -> np.ndarray:
    rows = np.arange(n) % X.shape[0]
    return np.ascontiguousarray(X[rows[::-1]])


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_kernel_matches_walk_on_corpus_blocks(
    corpus_block, corpus_models, name, batch_size
):
    X, _ = corpus_block
    Xb = _tiled(X, batch_size)
    model = corpus_models[name]
    expected = oracle_scores(model, Xb)
    assert_bitwise(model.predict_proba_batch(Xb), expected)
    assert_bitwise(model.predict_proba_batch(Xb.astype(np.float32)), expected)


def test_serving_forest_matches_walk(fitted_checker, corpus_block):
    """The fitted checker's own forest, through its blocked entry point."""
    X, _ = corpus_block
    model = fitted_checker.classifier
    assert isinstance(model, RandomForest)
    for batch_size in BATCH_SIZES:
        Xb = _tiled(X, batch_size)
        assert_bitwise(
            model.predict_proba_batch(Xb), oracle_scores(model, Xb)
        )


@pytest.fixture(scope="module")
def binary_models():
    """Models fitted on a seeded random binary world (40 features)."""
    rng = np.random.default_rng(77)
    X = (rng.random((300, 40)) < 0.3).astype(np.uint8)
    y = ((X[:, 0] & X[:, 3]) | (X[:, 5] ^ X[:, 9])).astype(np.int8)
    return {name: build().fit(X, y) for name, build in MODELS.items()}


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    X=hnp.arrays(
        np.uint8,
        st.tuples(st.integers(1, 64), st.just(40)),
        elements=st.integers(0, 1),
    )
)
def test_kernel_matches_walk_on_generated_blocks(binary_models, X):
    for model in binary_models.values():
        assert_bitwise(model.predict_proba_batch(X), oracle_scores(model, X))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_pickle_bytes_unchanged_by_scoring(name):
    """The compiled arrays never reach an artifact."""
    rng = np.random.default_rng(11)
    X = (rng.random((300, 40)) < 0.3).astype(np.uint8)
    model = MODELS[name]().fit(X, X[:, 0])
    before = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    model.predict_proba_batch(X[:8])
    assert "_compiled" in model.__dict__
    after = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    assert after == before
    loaded = pickle.loads(after)
    assert "_compiled" in loaded.__dict__  # compiled at load
    assert pickle.dumps(loaded, protocol=pickle.HIGHEST_PROTOCOL) == before
    assert_bitwise(
        loaded.predict_proba_batch(X), model.predict_proba_batch(X)
    )


def test_refit_drops_the_compiled_kernel():
    rng = np.random.default_rng(12)
    X = (rng.random((200, 20)) < 0.4).astype(np.uint8)
    model = RandomForest(n_trees=5, seed=1).fit(X, X[:, 0])
    model.predict_proba_batch(X)
    model.fit(X, X[:, 1])
    assert_bitwise(model.predict_proba_batch(X), oracle_scores(model, X))


def test_kernel_layout_on_manual_tree():
    root = _Node(feature=1)
    root.left = _Node(value=0.25)
    root.right = _Node(feature=0)
    root.right.left = _Node(value=0.5)
    root.right.right = _Node(value=0.75)
    kernel = TreeKernel([root, _Node(value=0.125)])
    assert kernel.roots.tolist() == [0, 5]
    assert kernel.feature.tolist() == [1, -1, 0, -1, -1, -1]
    assert kernel.left.dtype == np.int32
    X = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.uint8)
    assert kernel.leaf_values(X).tolist() == [
        [0.25, 0.5, 0.75],
        [0.125, 0.125, 0.125],
    ]
    assert kernel.ordered_sum(X).tolist() == [0.375, 0.625, 0.875]
    assert kernel.leaf_values(X[:0]).shape == (2, 0)
