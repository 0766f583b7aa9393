"""From-scratch ML stack (numpy only).

scikit-learn is unavailable offline, so the nine classifiers the paper
compares (Table 2) are implemented here directly: Bernoulli naive Bayes,
logistic regression, linear SVM, k-nearest neighbours, CART, gradient-
boosted decision trees, a single-hidden-layer ANN, a deep neural
network, and random forest — plus the metrics, stratified 10-fold
cross-validation with leakage deduplication (§4.2), Spearman rank
correlation for feature mining (§4.3), and the tri-modal curve fitting
used for Fig. 6.
"""

from repro.ml.base import Classifier, check_Xy
from repro.ml.gbdt import GradientBoostedTrees
from repro.ml.knn import KNearestNeighbors
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import ClassificationReport, confusion_counts, evaluate
from repro.ml.naive_bayes import BernoulliNaiveBayes
from repro.ml.neural import NeuralNetwork
from repro.ml.forest import RandomForest
from repro.ml.stats import fit_trimodal, r2_score, rankdata, spearman_rho
from repro.ml.svm import LinearSVM
from repro.ml.tree import CartTree
from repro.ml.validation import cross_validate, stratified_kfold

__all__ = [
    "BernoulliNaiveBayes",
    "CartTree",
    "ClassificationReport",
    "Classifier",
    "GradientBoostedTrees",
    "KNearestNeighbors",
    "LinearSVM",
    "LogisticRegression",
    "NeuralNetwork",
    "RandomForest",
    "check_Xy",
    "confusion_counts",
    "cross_validate",
    "evaluate",
    "fit_trimodal",
    "r2_score",
    "rankdata",
    "spearman_rho",
    "stratified_kfold",
]


def make_classifier(name: str, seed: int = 0) -> Classifier:
    """Instantiate one of the paper's nine classifiers by short name.

    Accepted names (Table 2): ``nb``, ``lr``, ``svm``, ``gbdt``, ``knn``,
    ``cart``, ``ann``, ``dnn``, ``rf``.
    """
    factories = {
        "nb": lambda: BernoulliNaiveBayes(),
        "lr": lambda: LogisticRegression(seed=seed),
        "svm": lambda: LinearSVM(seed=seed),
        "gbdt": lambda: GradientBoostedTrees(seed=seed),
        "knn": lambda: KNearestNeighbors(),
        "cart": lambda: CartTree(seed=seed),
        "ann": lambda: NeuralNetwork(hidden_layers=(64,), seed=seed),
        "dnn": lambda: NeuralNetwork(hidden_layers=(256, 128, 64), seed=seed),
        "rf": lambda: RandomForest(seed=seed),
    }
    try:
        return factories[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown classifier {name!r}; expected one of {sorted(factories)}"
        ) from None


CLASSIFIER_NAMES = ("nb", "lr", "svm", "gbdt", "knn", "cart", "ann", "dnn", "rf")
