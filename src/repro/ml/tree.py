"""CART decision trees over binary (one-hot) features.

Because every feature in the pipeline is a 0/1 indicator ("was this API
invoked / permission requested / intent used"), the only possible split
per feature is at 0.5 — which lets split search be fully vectorized:
all candidate features at a node are scored with two matrix reductions.

The same builder serves classification (Gini impurity, used by CART and
the random forest) and regression (variance reduction, used by GBDT).

Fitted trees are scored by one compiled kernel, :class:`TreeKernel`:
the node graph is flattened once into int32/float64 arrays and every
(tree, row) pair is routed level by level over a shrinking active set.
Ensembles add their per-tree leaf values in the fixed tree order, so a
row's score is bitwise the same whatever batch it arrives in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import Classifier, check_Xy

_MAX_DEPTH_CAP = 64


@dataclass
class _Node:
    """One tree node; ``feature < 0`` marks a leaf with ``value`` set."""

    feature: int = -1
    value: float = 0.0
    left: "_Node | None" = None   # feature == 0 branch
    right: "_Node | None" = None  # feature == 1 branch

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class _TreeBuilder:
    """Grows one tree; criterion is 'gini' or 'mse'."""

    def __init__(
        self,
        criterion: str,
        max_depth: int,
        min_samples_leaf: int,
        max_features: int | None,
        rng: np.random.Generator,
    ):
        if criterion not in ("gini", "mse"):
            raise ValueError(f"unknown criterion {criterion!r}")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = min(max_depth, _MAX_DEPTH_CAP)
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.importances: np.ndarray | None = None
        self.n_nodes = 0

    def build(self, X: np.ndarray, target: np.ndarray) -> _Node:
        """Grow a tree on X (uint8, binary) and target (float)."""
        n, d = X.shape
        self.importances = np.zeros(d)
        self._X = X
        self._t = target.astype(np.float64)
        self._n_total = n
        root = self._grow(np.arange(n), depth=0)
        del self._X, self._t
        return root

    # -- split scoring --------------------------------------------------

    def _candidate_features(self, d: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return self.rng.choice(d, size=self.max_features, replace=False)

    def _leaf_value(self, idx: np.ndarray) -> float:
        return float(self._t[idx].mean())

    def _node_impurity(self, idx: np.ndarray) -> float:
        t = self._t[idx]
        if self.criterion == "gini":
            p = t.mean()
            return 2.0 * p * (1.0 - p)
        return float(t.var())

    def _best_split(
        self, idx: np.ndarray, feats: np.ndarray
    ) -> tuple[int, float] | None:
        """Return (feature, impurity_decrease) or None when unsplittable."""
        Xc = self._X[np.ix_(idx, feats)]
        n = idx.size
        n1 = Xc.sum(axis=0, dtype=np.int64).astype(np.float64)
        n0 = n - n1
        t = self._t[idx]
        s1 = t @ Xc
        s0 = t.sum() - s1
        valid = (n0 >= self.min_samples_leaf) & (n1 >= self.min_samples_leaf)
        if not valid.any():
            return None
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.criterion == "gini":
                p0 = np.where(n0 > 0, s0 / n0, 0.0)
                p1 = np.where(n1 > 0, s1 / n1, 0.0)
                child = (
                    n0 * 2.0 * p0 * (1.0 - p0) + n1 * 2.0 * p1 * (1.0 - p1)
                ) / n
                parent = self._node_impurity(idx)
                gain = parent - child
            else:
                # Variance reduction: maximizing s0^2/n0 + s1^2/n1 is
                # equivalent; convert to an impurity decrease for the
                # importance bookkeeping.
                sse_parent = float(((t - t.mean()) ** 2).sum())
                score = np.where(n0 > 0, s0**2 / np.maximum(n0, 1), 0.0)
                score += np.where(n1 > 0, s1**2 / np.maximum(n1, 1), 0.0)
                sse_child = (t**2).sum() - score
                gain = (sse_parent - sse_child) / n
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        if not np.isfinite(gain[best]) or gain[best] <= 1e-12:
            return None
        return int(feats[best]), float(gain[best])

    def _grow(self, idx: np.ndarray, depth: int) -> _Node:
        self.n_nodes += 1
        node = _Node(value=self._leaf_value(idx))
        if (
            depth >= self.max_depth
            or idx.size < 2 * self.min_samples_leaf
            or self._node_impurity(idx) <= 1e-12
        ):
            return node
        feats = self._candidate_features(self._X.shape[1])
        split = self._best_split(idx, feats)
        if split is None:
            return node
        feature, gain = split
        mask = self._X[idx, feature] > 0
        node.feature = feature
        # Mean-decrease-in-impurity (Gini importance), weighted by the
        # share of samples reaching this node (Fig. 13's ranking metric).
        self.importances[feature] += gain * idx.size / self._n_total
        node.right = self._grow(idx[mask], depth + 1)
        node.left = self._grow(idx[~mask], depth + 1)
        return node


class TreeKernel:
    """A list of fitted trees compiled into one flat scoring kernel.

    The trees are flattened once, breadth first, into contiguous
    arrays: ``feature`` (``-1`` marks a leaf), ``left`` child index
    (int32; siblings are laid out adjacently, so the right child is
    ``left + 1``), leaf ``value`` and the per-tree ``roots``.  Scoring
    then routes every (tree, row) pair at once, one depth level per
    step: each step gathers the split feature of every still-active
    pair, reads the row's bit, moves to the chosen child, and drops the
    pairs that reached a leaf, so the active set shrinks as the forest
    gets deeper.  The cost is a few numpy calls per level instead of a
    Python step per node, which serves a one-row serve micro-batch and
    a 1024-row block from the same code.
    """

    __slots__ = ("feature", "left", "value", "roots")

    def __init__(self, roots) -> None:
        feature: list[int] = []
        left: list[int] = []
        value: list[float] = []
        starts: list[int] = []
        for root in roots:
            base = len(feature)
            starts.append(base)
            order = [root]
            for node in order:
                value.append(node.value)
                if node.is_leaf:
                    feature.append(-1)
                    left.append(-1)
                    continue
                feature.append(node.feature)
                left.append(base + len(order))
                order.append(node.left)
                order.append(node.right)
        self.feature = np.asarray(feature, dtype=np.int32)
        self.left = np.asarray(left, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        self.roots = np.asarray(starts, dtype=np.int32)

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    def leaf_values(self, Xb: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)``: the leaf value each tree gives each row.

        ``Xb`` is a 2-D block (uint8 on the scoring paths); a positive
        cell takes the right (feature present) branch.
        """
        n, d = Xb.shape
        n_trees = self.n_trees
        flat = np.ascontiguousarray(Xb).reshape(-1)
        reached = np.empty(n * n_trees, dtype=np.int32)
        # Active (row, tree) pairs, row-major so neighbouring pairs read
        # the same row: the output slot, the row's offset into ``flat``
        # and the current node.
        pair = np.arange(n * n_trees)
        offset = np.repeat(np.arange(n, dtype=np.intp) * d, n_trees)
        node = np.tile(self.roots, n)
        while node.size:
            feature = self.feature.take(node)
            at_leaf = feature < 0
            if at_leaf.any():
                done = np.flatnonzero(at_leaf)
                reached[pair.take(done)] = node.take(done)
                keep = np.flatnonzero(~at_leaf)
                pair = pair.take(keep)
                offset = offset.take(keep)
                node = node.take(keep)
                feature = feature.take(keep)
            node = self.left.take(node) + (flat.take(offset + feature) > 0)
        return self.value[reached].reshape(n, n_trees).T

    def ordered_sum(
        self, Xb: np.ndarray, start: float = 0.0, scale: float | None = None
    ) -> np.ndarray:
        """``start + sum_t scale * leaf_t(row)``, one tree at a time.

        The leaf values are added in the fixed tree order (a running
        sum down the tree axis), exactly as a per-tree loop
        ``acc += scale * predict_tree(tree, Xb)`` would, so every row's
        score is bitwise independent of the batch it is scored in.
        """
        terms = self.leaf_values(Xb)
        if scale is not None:
            terms = scale * terms
        running = np.empty((self.n_trees + 1, Xb.shape[0]))
        running[0] = start
        running[1:] = terms
        return np.add.accumulate(running, axis=0)[-1]


def predict_tree(root: _Node, X: np.ndarray) -> np.ndarray:
    """Leaf value of one tree for every row of a uint8 block."""
    return TreeKernel([root]).leaf_values(X)[0]


class CompiledTreesMixin:
    """Scores a fitted tree model through its cached :class:`TreeKernel`.

    Subclasses return their fitted root list from :meth:`_trees`
    (None before fit).  The kernel is a cache, not model state: it is
    left out of pickles (registry artifacts stay byte-identical to the
    tree objects alone), rebuilt when a model is unpickled, built on
    first score otherwise, and dropped by a refit.
    """

    def _trees(self) -> list | None:
        raise NotImplementedError

    def _kernel(self) -> TreeKernel:
        kernel = self.__dict__.get("_compiled")
        if kernel is None:
            kernel = self._compiled = TreeKernel(self._trees())
        return kernel

    def _drop_kernel(self) -> None:
        self.__dict__.pop("_compiled", None)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_compiled", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._trees() is not None:
            self._kernel()


class CartTree(CompiledTreesMixin, Classifier):
    """CART decision-tree classifier (Table 2's 'CART' row).

    Args:
        max_depth: growth limit (capped at 64).
        min_samples_leaf: minimum samples per leaf.
        max_features: candidate features per split; None = all,
            "sqrt" = square root of the feature count.
        seed: rng seed for feature subsampling.
    """

    name = "cart"
    _fitted_attr = "_root"

    def __init__(
        self,
        max_depth: int = 32,
        min_samples_leaf: int = 2,
        max_features: int | str | None = None,
        seed: int = 0,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self.feature_importances_: np.ndarray | None = None

    def _resolve_max_features(self, d: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, int) and self.max_features >= 1:
            return self.max_features
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "CartTree":
        X, y = check_Xy(X, y)
        Xb = X.astype(np.uint8)
        builder = _TreeBuilder(
            criterion="gini",
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._resolve_max_features(X.shape[1]),
            rng=np.random.default_rng(self.seed),
        )
        self._root = builder.build(Xb, y.astype(np.float64))
        self._drop_kernel()
        total = builder.importances.sum()
        self.feature_importances_ = (
            builder.importances / total if total > 0 else builder.importances
        )
        return self

    def _trees(self) -> list | None:
        return None if self._root is None else [self._root]

    def _proba(self, X: np.ndarray) -> np.ndarray:
        return self._kernel().leaf_values(X.astype(np.uint8, copy=False))[0]
