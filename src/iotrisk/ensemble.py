"""Ensemble classifiers over the CART grower.

* multiclass gradient-boosted trees (softmax link, multinomial deviance,
  one-step Newton leaf values) -- the primary model;
* random forests and extra-trees (soft voting across trees);
* SAMME AdaBoost over shallow trees;
* an unweighted soft-voting combiner over models of those families.

Every model exposes ``predict_proba`` (rows sum to 1) and ``predict``
(argmax, lowest ordinal wins ties), and serializes through
``to_payload``/``from_payload``.  A tree ensemble holds one `TreeSet` and
sums its per-tree terms in tree order, by `np.add.reduce` over the tree axis.
"""

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError, TrainingError
from .nvd import RISK_CLASSES
from .tree import BLOCK_PAIRS, TreeParams, TreeSet, class_labels, column_codes, fit_tree, grow_trees
from .util import run_cells


def _softmax_deviance(scores: np.ndarray, labels: np.ndarray | None = None):
    """(softmax(scores), multinomial_deviance(scores, labels) or None
    without labels), from one shift-stabilized exp pass."""
    top = scores[:, 0].copy()
    for column in scores.T[1:]:  # a max is exact in any order; ~15x a row-wise max
        np.maximum(top, column, out=top)
    shifted = scores - top[:, None]
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    deviance = None
    if labels is not None:
        picked = shifted[np.arange(len(labels)), labels]
        deviance = float((np.log(total[:, 0]) - picked).sum())
    return e / total, deviance


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    return _softmax_deviance(scores)[0]


def multinomial_deviance(scores: np.ndarray, labels: np.ndarray) -> float:
    """Sum over rows of -log softmax(scores)[label]."""
    return _softmax_deviance(scores, labels)[1]


def deviance_gradient(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of multinomial_deviance: softmax(F) - onehot(y)."""
    grad = softmax(scores)
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad


def _argmax_labels(probabilities: np.ndarray) -> np.ndarray:
    return np.argmax(probabilities, axis=1)  # first maximum: lowest ordinal


class _Classifier:
    """The argmax of predict_proba over classes 0..n_classes-1."""

    def predict(self, matrix) -> np.ndarray:
        return _argmax_labels(self.predict_proba(matrix))


class _TreeEnsemble(_Classifier):
    """A classifier over one `TreeSet` ``trees``, fitted on n_features columns."""

    def to_payload(self) -> dict:
        return {"family": self.family, "n_classes": self.n_classes,
                "n_features": self.n_features, "trees": self.trees.to_payload()}


def _check_columns(matrix, n_features: int) -> np.ndarray:
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2:
        raise DomainError(f"matrix must be 2-D, got {X.ndim} dimension(s)")
    if X.shape[1] != n_features:
        raise DomainError(
            f"matrix has {X.shape[1]} columns, model was trained on {n_features}"
        )
    return X


def _fit_data(matrix, labels, n_classes):
    """The matrix, integer labels and class count K of an ensemble fit.

    K is n_classes, or the largest label + 1; a label outside [0, K) is a
    DomainError that names it (`class_labels`)."""
    X = np.ascontiguousarray(matrix, dtype=float)
    if X.ndim != 2 or np.shape(labels) != (X.shape[0],) or X.shape[0] == 0:
        raise DomainError("matrix and labels must align and be non-empty")
    return (X, *class_labels(labels, n_classes))


def _is_count(value, low) -> bool:
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low)


def _integer(low, optional=False):
    """Rule for an int field >= low (bools excluded), None allowed if optional."""
    return (lambda value: (optional and value is None) or _is_count(value, low),
            f"an integer >= {low}" + (" or None" if optional else ""))


def _is_rate(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0)


_RATE = (_is_rate, "a finite number >= 0")


def _check(params, **rules) -> None:
    """A ConfigError naming the first field of `params` that breaks its
    (predicate, description) rule."""
    for name, (ok, want) in rules.items():
        value = getattr(params, name)
        if not ok(value):
            raise ConfigError(f"{name} must be {want}, got {value!r}")


def balanced_class_weights(labels, n_classes: int = len(RISK_CLASSES)) -> np.ndarray:
    """Per-class weight n_total / (K * n_c); every class must be present."""
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DomainError(f"class {missing} absent; balanced weights undefined")
    return len(labels) / (n_classes * counts.astype(float))


@dataclass
class GbdtParams:
    n_stages: int = 300
    learning_rate: float = 0.05
    max_depth: int = 6
    min_impurity_decrease: float = 1e-3
    min_samples_split: int = 2

    def __post_init__(self):
        _check(self, n_stages=_integer(1), learning_rate=_RATE,
               max_depth=_integer(0, optional=True), min_impurity_decrease=_RATE,
               min_samples_split=_integer(2))

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_impurity_decrease=self.min_impurity_decrease,
            min_samples_split=self.min_samples_split,
        )


# Stages `GbdtModel.decision_scores` adds per np.add.reduce call
SCORE_STAGES = 256


class GbdtModel(_TreeEnsemble):
    """Additive stages of per-class regression trees over log-prior scores,
    stored stage-major: K trees per stage, class 0 first."""

    family = "gbdt"

    def __init__(self, n_classes, n_features, init_scores, trees, learning_rate,
                 loss_history):
        self.n_classes = n_classes
        self.n_features = n_features
        self.init_scores = init_scores
        self.trees = trees
        self.learning_rate = learning_rate
        self.loss_history = loss_history  # mean train deviance, stage 0 first

    # the index in trees of each stage's per-class tree, (stages, K)
    stages = property(lambda self: np.arange(self.trees.nodes.size).reshape(-1, self.n_classes))

    @cached_property
    def _scoring(self):
        """The trees that split, as a set and as indices, and each tree's
        first-leaf step, (stages, K): a single-leaf tree's whole step."""
        trees = self.trees
        split = np.flatnonzero(trees.nodes > 1)
        first_leaf = trees.start - trees.splits_before[trees.start]
        steps = self.learning_rate * trees.value[first_leaf]
        return trees.take(split), split, steps.reshape(-1, self.n_classes)

    def decision_scores(self, matrix) -> np.ndarray:
        """Init scores plus every stage's steps, added in stage order: per
        block of rows, np.add.reduce adds SCORE_STAGES stages at a time,
        one after another, into a running (K, rows) sum.  Only the trees
        that split are traversed."""
        X = _check_columns(matrix, self.n_features)
        K = self.n_classes
        split_trees, split, leaf_steps = self._scoring
        stages = len(leaf_steps)
        chunk = min(stages, SCORE_STAGES)
        starts = range(0, stages, chunk)
        bounds = np.searchsorted(split, [K * start for start in (*starts, stages)])

        def combine(values):  # (trees that split, rows) leaf values
            rows = values.shape[1]
            split_steps = self.learning_rate * values
            block = np.empty((chunk + 1, K, rows))
            tree_steps = block[1:].reshape(chunk * K, rows)
            total = np.broadcast_to(self.init_scores[:, None], (K, rows))
            for i, start in enumerate(starts):
                count = min(chunk, stages - start)
                block[0] = total
                block[1:count + 1] = leaf_steps[start:start + count, :, None]
                at = slice(bounds[i], bounds[i + 1])
                tree_steps[split[at] - K * start] = split_steps[at]
                total = np.add.reduce(block[:count + 1], axis=0)
            return total.T

        return split_trees.apply(X, combine, rows=max(1, BLOCK_PAIRS // (K * chunk)))

    def predict_proba(self, matrix) -> np.ndarray:
        return softmax(self.decision_scores(matrix))

    def to_payload(self) -> dict:
        return {**super().to_payload(), "init_scores": self.init_scores.tolist(),
                "learning_rate": self.learning_rate}

    @classmethod
    def from_payload(cls, payload: dict) -> "GbdtModel":
        K, n_features = int(payload["n_classes"]), int(payload["n_features"])
        if K < 1:
            raise DataFormatError(f"gbdt model scores {K} classes")
        init_scores = np.asarray(payload["init_scores"], dtype=float)
        learning_rate = float(payload["learning_rate"])
        if init_scores.shape != (K,) or not np.isfinite([*init_scores, learning_rate]).all():
            raise DataFormatError(f"GBDT init_scores are not {K} finite scores "
                                  "or its learning_rate is not finite")
        trees = TreeSet.from_payload(payload["trees"], "regression", None, n_features)
        if trees.nodes.size % K:
            raise DataFormatError(
                f"GBDT holds {trees.nodes.size} trees, not a multiple of its {K} classes")
        return cls(K, n_features, init_scores, trees, learning_rate, loss_history=[])


def gbdt_fit(
    matrix,
    labels,
    params: GbdtParams | None = None,
    seed: int = 0,
    n_classes: int | None = None,
) -> GbdtModel:
    """Fit multiclass softmax boosting.

    Per-class scores start at the log prior.  Each stage fits one
    regression tree per class to the pseudo-residuals onehot(y) - p (the
    negated `deviance_gradient`) and applies the one-step Newton leaf
    update for multinomial deviance, shrunk by the learning rate, so rows
    the current model gets wrong dominate the next stage's trees.  Every
    row weighs 1/n.

    A class whose last searched tree was a single leaf skips the search
    while a bound proves the next tree is one too (`_certified_leaf`); the
    leaf it emits is the one the search would grow, so the model is the
    same.  With min_impurity_decrease 0 every tree is searched.

    A stage is one step over its K classes: one shift/exp pass gives its
    probabilities and deviance, the certified classes take their Newton
    values together, and the searched classes grow as one `grow_trees`
    group.  The model's arrays are built once, after the last stage.
    """
    del seed  # fitting is deterministic; kept for a uniform interface
    X, y, K = _fit_data(matrix, labels, n_classes)
    params = params or GbdtParams()
    if K < 2:
        raise ConfigError("need at least two classes")
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    counts = np.bincount(y, weights=w, minlength=K)
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DomainError(f"class {missing} absent from training labels; prior undefined")
    priors = counts / counts.sum()
    init_scores = np.log(priors)

    codes = column_codes(X)
    rows = np.arange(n)
    scores = np.tile(init_scores, (n, 1))
    tree_params = params.tree_params()
    newton_scale = (K - 1) / K
    # per class: (sqrt of the root decrease, residual) of its last searched
    # tree, while that tree was a single leaf
    anchors = [None] * K
    certify_below = math.sqrt(params.min_impurity_decrease) * (1.0 - 1e-9)

    stages = params.n_stages
    leaves = np.zeros((stages, K))  # the value of each certified leaf
    grown = []  # each stage's searched trees, as one set
    # each tree's index among the certified leaves, then the grown sets' trees
    place = np.arange(stages * K).reshape(stages, K)
    n_placed = stages * K
    probabilities, deviance = _softmax_deviance(scores, y)
    loss_history = [deviance / n]
    for stage in range(stages):
        probabilities[rows, y] -= 1.0  # now deviance_gradient(scores, y)
        residuals = np.negative(probabilities.T, order="C")  # (K, n)
        certified = np.array([_certified_leaf(anchors[c], residuals[c], certify_below)
                              for c in range(K)])
        step = np.empty((K, n))  # each class's leaf value at each training row
        if certified.any():
            leaves[stage, certified] = _newton_values(residuals[certified], w, newton_scale)
            step[certified] = leaves[stage, certified, None]
        searched = np.flatnonzero(~certified)
        if searched.size:
            stacked_r, stacked_w = residuals[searched].ravel(), np.tile(w, searched.size)
            stacked_step = np.empty(stacked_r.size)

            def newton_leaf(idx):
                value = _newton_values(stacked_r[idx], stacked_w[idx], newton_scale)
                stacked_step[idx] = value
                return value

            group, root_decrease = grow_trees(
                X, codes, None, "regression", tree_params,
                [(rows, residuals[c], w, None) for c in searched], newton_leaf)
            step[searched] = stacked_step.reshape(searched.size, n)
            for c, nodes, decrease in zip(searched, group.nodes, root_decrease):
                anchors[c] = (math.sqrt(max(decrease, 0.0)), residuals[c]) if nodes == 1 else None
            place[stage, searched] = n_placed + np.arange(searched.size)
            n_placed += searched.size
            grown.append(group)
        scores += params.learning_rate * step.T
        probabilities, deviance = _softmax_deviance(scores, y)
        loss_history.append(deviance / n)
    single = TreeSet(np.ones(stages * K, dtype=np.intp), np.full(stages * K, -1, dtype=np.intp),
                     np.empty(0), np.empty(0, dtype=np.intp), leaves.ravel())
    trees = TreeSet.concat([single, *grown]).take(place.ravel())
    return GbdtModel(K, X.shape[1], init_scores, trees, params.learning_rate, loss_history)


def _newton_values(residuals, w, scale: float):
    """The one-step Newton leaf value of multinomial deviance,
    scale * sum(w r) / sum(w |r| (1 - |r|)) or 0 where the denominator is
    at most 1e-150, of each row of residuals (leaves, rows), or as a float
    of one leaf's residuals (rows,); w holds the row weights.  Each sum
    adds its terms sorted, so a leaf value does not depend on row order."""
    mag = np.abs(residuals)
    num = np.sort(w * residuals, axis=-1).sum(axis=-1)
    den = np.sort(w * mag * (1.0 - mag), axis=-1).sum(axis=-1)
    if num.ndim == 0:  # one leaf: scalar arithmetic costs a third of np.where's
        return 0.0 if den <= 1e-150 else float(scale * num / den)
    usable = den > 1e-150
    return np.where(usable, scale * num / np.where(usable, den, 1.0), 0.0)


def _certified_leaf(anchor, residual, below: float) -> bool:
    """Whether a regression tree on `residual` provably stays a single leaf.

    anchor is (sqrt(d), r): a tree searched on residual r, with the same
    rows and weights, was a single leaf whose best root split decreased
    the weighted SSE per unit weight by d.  A split's decrease is
    (w_L w_R / W^2) (mu_L - mu_R)^2 <= (mu_L - mu_R)^2 / 4, and moving the
    residual by at most e per row moves mu_L - mu_R by at most 2e, so no
    split on `residual` decreases by more than
    (sqrt(d) + max|residual - r|)^2.  `below` is sqrt(min_impurity_decrease)
    less a relative 1e-9 for rounding; at 0 nothing is certified.
    """
    if anchor is None:
        return False
    root, anchored = anchor
    return root + float(np.abs(residual - anchored).max()) < below


@dataclass
class ForestParams:
    """A random forest: each tree grows on a bootstrap sample and takes the
    best split over a random feature subset per node."""

    variant: ClassVar[str] = "random_forest"
    n_trees: int = 100
    max_features: int | str | None = "sqrt"
    max_depth: int | None = None
    min_impurity_decrease: float = 0.0
    min_samples_split: int = 2
    class_weights: str | dict | None = None  # None | "balanced" | {ordinal: w}

    def __post_init__(self):
        _check(
            self, n_trees=_integer(1),
            max_features=(lambda v: v in (None, "sqrt") or _is_count(v, 1),
                          "'sqrt', an integer >= 1 or None"),
            max_depth=_integer(0, optional=True), min_impurity_decrease=_RATE,
            min_samples_split=_integer(2),
            class_weights=(_class_weights_ok,
                           "None, 'balanced' or a map of class ordinals to positive weights"),
        )


@dataclass
class ExtraTreesParams(ForestParams):
    """Extra-trees (Geurts et al., 2006): each tree grows on every row and
    draws one random threshold per candidate feature."""

    variant: ClassVar[str] = "extra_trees"


def _class_weights_ok(value) -> bool:
    if value is None or isinstance(value, str):
        return value in (None, "balanced")
    return isinstance(value, Mapping) and all(
        str(ordinal).isdigit() and _is_rate(weight) and weight > 0
        for ordinal, weight in value.items()
    )


class ForestModel(_TreeEnsemble):
    """Classification trees with soft voting across trees."""

    def __init__(self, trees, n_classes, variant, n_features):
        self.trees = trees
        self.n_classes = n_classes
        self.variant = variant
        self.n_features = n_features

    family = property(lambda self: self.variant)

    def predict_proba(self, matrix) -> np.ndarray:
        X = _check_columns(matrix, self.n_features)
        total = self.trees.apply(X, lambda values: np.add.reduce(values, axis=0, initial=0.0))
        return total / self.trees.nodes.size

    @classmethod
    def from_payload(cls, payload: dict) -> "ForestModel":
        n_classes, n_features = int(payload["n_classes"]), int(payload["n_features"])
        trees = TreeSet.from_payload(payload["trees"], "classification", n_classes, n_features)
        return cls(trees, n_classes, payload["family"], n_features)


def _resolve_max_features(spec, d):
    if spec is None:
        return None
    if spec == "sqrt":
        return max(1, int(math.sqrt(d)))
    return int(spec)


# Sample rows of the trees `forest_fit` grows together in one group (7
# trees of the bundled corpus), which bounds the group's per-row arrays
FOREST_GROUP_ROWS = 1 << 13


def forest_fit(
    matrix,
    labels,
    params: ForestParams | None = None,
    seed: int = 0,
    n_classes: int | None = None,
    trees: range | None = None,
) -> ForestModel:
    """Fit the forest kind of `params`: a random forest for ForestParams,
    extra-trees for ExtraTreesParams.  Class weights scale sample weights
    during fitting.

    Tree i grows from the i-th child of SeedSequence(seed), so `trees`, a
    range of tree indices, fits just those trees of the whole forest: the
    ranges of a forest, fitted anywhere and joined in index order, are the
    forest bit for bit.  A range with a step other than 1, or not a
    non-empty part of [0, n_trees), is a ConfigError.  The trees grow
    together in groups of about FOREST_GROUP_ROWS sample rows
    (`grow_trees`), each as it would grow alone.
    """
    X, y, K = _fit_data(matrix, labels, n_classes)
    params = params or ForestParams()
    n, d = X.shape
    bootstrap = params.variant == "random_forest"

    class_w = np.ones(K)
    if params.class_weights == "balanced":
        class_w = balanced_class_weights(y, K)
    elif params.class_weights is not None:
        for ordinal, weight in params.class_weights.items():
            if int(ordinal) >= K:
                raise ConfigError(f"class weight for class {ordinal}, outside [0, {K})")
            class_w[int(ordinal)] = float(weight)

    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_impurity_decrease=params.min_impurity_decrease,
        min_samples_split=params.min_samples_split,
        max_features=_resolve_max_features(params.max_features, d),
        random_thresholds=not bootstrap,
    )
    picked = range(params.n_trees) if trees is None else trees
    if picked.step != 1 or not 0 <= picked.start < picked.stop <= params.n_trees:
        raise ConfigError(f"tree range {picked} is not a non-empty step-1 range "
                          f"of the {params.n_trees} trees")
    codes = column_codes(X)
    children = np.random.SeedSequence(seed).spawn(params.n_trees)[picked.start:picked.stop]

    def sample(child):
        rng = np.random.default_rng(child)
        rows = rng.integers(0, n, n) if bootstrap else np.arange(n)
        targets = y[rows]
        w = class_w[targets]
        return rows, targets, w / w.sum(), rng

    per_group = max(1, FOREST_GROUP_ROWS // n)
    groups = (grow_trees(X, codes, K, "classification", tree_params,
                         map(sample, children[i:i + per_group]))[0]
              for i in range(0, len(children), per_group))
    return ForestModel(TreeSet.concat(groups), K, params.variant, d)


@dataclass
class AdaboostParams:
    n_rounds: int = 50
    base_depth: int = 1

    def __post_init__(self):
        _check(self, n_rounds=_integer(1), base_depth=_integer(0, optional=True))


def samme_alpha(error: float, n_classes: int) -> float:
    """SAMME learner weight: ln((1-err)/err) + ln(K-1)."""
    return math.log((1.0 - error) / error) + math.log(n_classes - 1)


class AdaboostModel(_TreeEnsemble):
    """SAMME-weighted shallow trees."""

    family = "abc"
    PERFECT_ALPHA = 1e10  # finite surrogate for a zero-error learner

    def __init__(self, trees, alphas, errors, n_classes, n_features):
        self.trees = trees
        self.alphas = alphas
        self.errors = errors
        self.n_classes = n_classes
        self.n_features = n_features

    def decision_scores(self, matrix) -> np.ndarray:
        """Per row and class, the summed alphas of the trees voting for it."""
        X = _check_columns(matrix, self.n_features)
        alphas = np.asarray(self.alphas, dtype=float)[:, None, None]

        def combine(values):  # (trees, rows, K)
            votes = values.argmax(axis=2)[..., None] == np.arange(self.n_classes)
            return np.add.reduce(np.where(votes, alphas, 0.0), axis=0, initial=0.0)

        return self.trees.apply(X, combine)

    def predict_proba(self, matrix) -> np.ndarray:
        scores = self.decision_scores(matrix)
        return scores / scores.sum(axis=1, keepdims=True)

    def predict(self, matrix) -> np.ndarray:
        return _argmax_labels(self.decision_scores(matrix))

    def to_payload(self) -> dict:
        return {**super().to_payload(), "alphas": list(self.alphas)}

    @classmethod
    def from_payload(cls, payload: dict) -> "AdaboostModel":
        n_classes, n_features = int(payload["n_classes"]), int(payload["n_features"])
        trees = TreeSet.from_payload(payload["trees"], "classification", n_classes, n_features)
        alphas = payload["alphas"]
        if not (isinstance(alphas, list) and all(isinstance(a, numbers.Real)
                                                 and not isinstance(a, bool) for a in alphas)):
            raise DataFormatError("AdaBoost alphas are not a list of numbers")
        alphas = [float(a) for a in alphas]
        # SAMME weighs every kept learner above 0 (its error is below 1 - 1/K)
        if len(alphas) != trees.nodes.size or not all(0 < a < math.inf for a in alphas):
            raise DataFormatError(f"AdaBoost holds {len(alphas)} alphas for "
                                  f"{trees.nodes.size} trees, or one is not finite and positive")
        return cls(trees, alphas, [], n_classes, n_features)


def adaboost_fit(
    matrix,
    labels,
    params: AdaboostParams | None = None,
    seed: int = 0,
    n_classes: int | None = None,
) -> AdaboostModel:
    """Fit SAMME boosting over depth-limited trees.

    Per round: fit a weighted tree, weigh it by samme_alpha, then scale up
    the weights of misclassified rows and renormalize.  Stops early on a
    perfect learner (kept, with a large finite alpha) or on a learner no
    better than random (dropped).
    """
    del seed  # deterministic given the data
    X, y, K = _fit_data(matrix, labels, n_classes)
    params = params or AdaboostParams()
    if K < 2:
        raise ConfigError("need at least two classes")
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    tree_params = TreeParams(max_depth=params.base_depth)
    codes = column_codes(X)

    learners, alphas, errors = [], [], []
    for _ in range(params.n_rounds):
        tree = fit_tree(X, y, sample_weight=w, params=tree_params,
                        mode="classification", n_classes=K, codes=codes)
        miss = tree.predict_value(X).argmax(axis=1) != y
        # sorted sums keep the weights independent of row order
        error = float(np.sort(w[miss]).sum())
        if error >= 1.0 - 1.0 / K:
            break
        alpha = AdaboostModel.PERFECT_ALPHA if error == 0.0 else samme_alpha(error, K)
        learners.append(tree)
        alphas.append(alpha)
        errors.append(error)
        if error == 0.0:
            break
        w = w * np.exp(alpha * miss)
        w = w / np.sort(w).sum()
    if not learners:
        raise TrainingError("no weak learner beat random guessing")
    return AdaboostModel(TreeSet.concat(learners), alphas, errors, K, X.shape[1])


class VotingModel(_Classifier):
    """Container applying soft voting over fitted member models."""

    family = "voting"

    def __init__(self, members: list):
        if not members:
            raise ConfigError("voting needs at least one member model")
        self.members = members

    def predict_proba(self, matrix) -> np.ndarray:
        """Unweighted mean of the member probabilities (soft voting)."""
        return np.stack([m.predict_proba(matrix) for m in self.members]).mean(axis=0)

    def to_payload(self) -> dict:
        return {
            "family": self.family,
            "members": [m.to_payload() for m in self.members],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "VotingModel":
        members = payload["members"]
        if not members:
            raise DataFormatError("voting model has no members")
        if any(member.get("family") == "voting" for member in members):
            raise DataFormatError("a voting member cannot itself be a voting model")
        return cls([model_from_payload(member) for member in members])


@dataclass
class ModelSpec:
    """A buildable model description: family, keyword params, seed."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0


# family -> (params dataclass, name of its fit function); fit_model looks
# the function up when it runs, so a wrapper set on this module sees the fit
_FAMILIES = {
    "gbdt": (GbdtParams, "gbdt_fit"),
    "rfc": (ForestParams, "forest_fit"),
    "etc": (ExtraTreesParams, "forest_fit"),
    "abc": (AdaboostParams, "adaboost_fit"),
}


def model_params(family: str, params: dict):
    """Keyword params as the checked params dataclass of a single-model
    family; an unknown family, an unknown name, a bad value or a class
    weight for no risk class (every command fits all of them) is a
    ConfigError."""
    if family not in _FAMILIES:
        raise ConfigError(f"unknown model family {family!r}")
    cls = _FAMILIES[family][0]
    unknown = sorted(set(params) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {family} parameter {unknown[0]!r}")
    checked = cls(**params)
    weights = getattr(checked, "class_weights", None)
    K = len(RISK_CLASSES)
    bad = [o for o in weights if int(o) >= K] if isinstance(weights, Mapping) else []
    if bad:
        raise ConfigError(f"class weight for class {bad[0]}, outside [0, {K})")
    return checked


def model_members(spec: ModelSpec) -> list:
    """The single models a spec fits, as (member spec, `model_params`): a
    voting spec's members in order, or the spec itself.  Each member must
    be one of the `_FAMILIES`, so a voting member cannot itself vote;
    anything else is a ConfigError, raised before any data is encoded or
    reduced."""
    if spec.family != "voting":
        return [(spec, model_params(spec.family, spec.params))]
    members = spec.params.get("members")
    if not isinstance(members, (list, tuple)) or not members:
        raise ConfigError("voting spec needs a non-empty members list")
    for m in members:
        if not (isinstance(m, Mapping) and isinstance(m.get("family"), str)
                and isinstance(m.get("params", {}), Mapping)):
            raise ConfigError(f"voting member {m!r} is not a mapping of a family "
                              "name and optional params mapping")
    members = [ModelSpec(m["family"], m.get("params", {}), spec.seed) for m in members]
    if any(member.family == "voting" for member in members):
        raise ConfigError("a voting member cannot itself be a voting model")
    return [(member, model_params(member.family, member.params)) for member in members]


def fit_model(spec: ModelSpec, matrix, labels, threads: int = 1):
    """Fit the model a spec describes over the risk classes; a spec
    `model_members` refuses is a ConfigError.

    The fit runs as cells in `threads` forked workers (`run_cells`), in
    member order.  With `threads` > 1 each forest, alone or a voting
    member, is `threads` contiguous tree ranges, each a
    `forest_fit(..., trees=range)`, and the ranges' trees join in index
    order into the forest one process grows.  Every other member is one
    cell, and a fit of one cell runs in this process.
    """
    members = model_members(spec)
    cells = [(index, trees) for index, (_, params) in enumerate(members)
             for trees in (_tree_ranges(params.n_trees, threads)
                           if isinstance(params, ForestParams) else [None])]

    def fit(cell: int):
        index, trees = cells[cell]
        member, params = members[index]
        fit_family = globals()[_FAMILIES[member.family][1]]
        ranged = {} if trees is None else {"trees": trees}
        return fit_family(matrix, labels, params, seed=member.seed,
                          n_classes=len(RISK_CLASSES), **ranged)

    results = run_cells(fit, len(cells), threads, died=TrainingError)
    parts = [[] for _ in members]
    for (index, _), result in zip(cells, results):
        parts[index].append(result)
    del results
    models = [_joined(member_parts) for member_parts in parts]
    return VotingModel(models) if spec.family == "voting" else models[0]


def _tree_ranges(n_trees: int, parts: int) -> list:
    """min(parts, n_trees) contiguous ranges of tree indices covering a
    forest, or [None], the whole forest, where that is one range."""
    parts = min(parts, n_trees)
    if parts == 1:
        return [None]
    bounds = [n_trees * i // parts for i in range(parts + 1)]
    return [range(low, high) for low, high in zip(bounds, bounds[1:])]


def _joined(parts: list):
    """A member's model from the models of its cells: the one model, or the
    forest its tree ranges make in index order.  The list is emptied, so
    each range is dropped once placed."""
    if len(parts) == 1:
        return parts.pop()
    K, variant, n_features = parts[0].n_classes, parts[0].variant, parts[0].n_features
    trees = TreeSet.concat(parts.pop(0).trees for _ in range(len(parts)))
    return ForestModel(trees, K, variant, n_features)


_MODEL_CLASSES = {
    "gbdt": GbdtModel,
    "random_forest": ForestModel,
    "extra_trees": ForestModel,
    "abc": AdaboostModel,
    "voting": VotingModel,
}


def model_from_payload(payload: dict):
    """The model a payload describes; an unknown family is a DataFormatError."""
    family = payload.get("family")
    if family not in _MODEL_CLASSES:
        raise DataFormatError(f"unknown model family in payload: {family!r}")
    return _MODEL_CLASSES[family].from_payload(payload)
