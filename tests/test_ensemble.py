import functools
import hashlib
import json
import math
import multiprocessing

import numpy as np
import pytest

from iotrisk import ensemble
from iotrisk.artifacts import load_model, save_model
from iotrisk.dataset import SynthesisSpec, bundled_corpus_path, load_corpus, synthesize_corpus
from iotrisk.encoding import CorpusEncoder
from iotrisk.ensemble import (
    AdaboostParams,
    ExtraTreesParams,
    ForestParams,
    GbdtParams,
    ModelSpec,
    VotingModel,
    adaboost_fit,
    balanced_class_weights,
    deviance_gradient,
    fit_model,
    forest_fit,
    gbdt_fit,
    model_from_payload,
    model_members,
    model_params,
    multinomial_deviance,
    samme_alpha,
    softmax,
)
from iotrisk.errors import ConfigError, DataFormatError, DomainError, TrainingError
from iotrisk.pipeline import (
    DimredArtifacts,
    PipelineConfig,
    PipelineModel,
    fit_design,
    profile_params,
)
from iotrisk import tree as tree_module
from iotrisk.tree import (
    BLOCK_PAIRS,
    TreeParams,
    TreeSet,
    _best_split_exact,
    column_codes,
    fit_tree,
    grow_trees,
)

from conftest import assert_same_arrays, grow_one


def separable_toy(n=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(-2.0, 0.3, size=(n // 2, 2)),
        rng.normal(2.0, 0.3, size=(n // 2, 2)),
    ])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


def four_class_toy(n=24, seed=0):
    """n rows in four separated clusters, one per risk class."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 4
    centres = np.array([[-2.0, -2.0], [-2.0, 2.0], [2.0, -2.0], [2.0, 2.0]])
    return centres[y] + rng.normal(0.0, 0.3, size=(n, 2)), y


class TestDevianceGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            F = rng.normal(size=(6, 4))
            y = rng.integers(0, 4, 6)
            analytic = deviance_gradient(F, y)
            step = 1e-6
            numeric = np.zeros_like(F)
            for i in range(F.shape[0]):
                for c in range(F.shape[1]):
                    up, down = F.copy(), F.copy()
                    up[i, c] += step
                    down[i, c] -= step
                    numeric[i, c] = (
                        multinomial_deviance(up, y) - multinomial_deviance(down, y)
                    ) / (2 * step)
            error = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
            assert error < 1e-5

    def test_gradient_form(self):
        F = np.zeros((3, 4))
        y = np.array([0, 1, 2])
        grad = deviance_gradient(F, y)
        expected = softmax(F)
        expected[np.arange(3), y] -= 1
        assert np.allclose(grad, expected)


class TestGbdt:
    def test_separable_training_accuracy(self):
        X, y = separable_toy()
        model = gbdt_fit(X, y, GbdtParams(n_stages=50, learning_rate=0.1, max_depth=2))
        assert (model.predict(X) == y).all()

    def test_zero_stages_forbidden(self):
        X, y = separable_toy()
        with pytest.raises(ConfigError):
            gbdt_fit(X, y, GbdtParams(n_stages=0))

    def test_zero_learning_rate_predicts_prior(self):
        X, y = separable_toy(n=10)
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])
        model = gbdt_fit(X, y, GbdtParams(n_stages=1, learning_rate=0.0))
        proba = model.predict_proba(X)
        assert np.allclose(proba, [0.3, 0.7])

    def test_absent_class_is_domain_error(self):
        # which classes are present depends on the data, like any label fault
        X, _ = separable_toy(n=8)
        labels = np.zeros(8, dtype=int)
        with pytest.raises(DomainError, match="absent"):
            gbdt_fit(X, labels, GbdtParams(n_stages=2), n_classes=4)

    def test_dominant_class_probability_near_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 3))
        y = np.zeros(60, dtype=int)
        y[0] = 1  # one stray row keeps both classes present
        model = gbdt_fit(X, y, GbdtParams(n_stages=20, learning_rate=0.2, max_depth=2))
        proba = model.predict_proba(rng.normal(size=(30, 3)))
        assert proba[:, 0].mean() > 0.9

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 4, 40)
        while len(set(y)) < 4:
            y = rng.integers(0, 4, 40)
        model = gbdt_fit(X, y, GbdtParams(n_stages=10, max_depth=3))
        proba = model.predict_proba(rng.normal(size=(25, 3)))
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert (proba >= 0).all()

    def test_training_loss_non_increasing(self):
        rng = np.random.default_rng(4)
        for trial in range(3):
            X = rng.normal(size=(50, 4))
            y = rng.integers(0, 4, 50)
            while len(set(y)) < 4:
                y = rng.integers(0, 4, 50)
            model = gbdt_fit(X, y, GbdtParams(n_stages=25, learning_rate=0.1,
                                              max_depth=3))
            diffs = np.diff(model.loss_history)
            assert (diffs <= 1e-9).all(), trial

    def test_row_permutation_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(5)
        X = rng.choice(np.linspace(-1, 1, 7), size=(90, 5))
        y = rng.integers(0, 4, 90)
        while len(set(y)) < 4:
            y = rng.integers(0, 4, 90)
        perm = rng.permutation(90)
        params = GbdtParams(n_stages=12, learning_rate=0.1, max_depth=3)
        a = gbdt_fit(X, y, params)
        b = gbdt_fit(X[perm], y[perm], params)
        probe = rng.uniform(-1, 1, size=(30, 5))
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_training_scores_equal_predicted_scores(self):
        # stages update the training scores from the leaf values reached
        # during growth; a fresh descent over the same rows gives the same bits
        rng = np.random.default_rng(11)
        X = rng.choice(np.linspace(-1, 1, 9), size=(120, 4))
        y = np.arange(120) % 4
        model = gbdt_fit(X, y, GbdtParams(n_stages=10, learning_rate=0.2, max_depth=4))
        refit = multinomial_deviance(model.decision_scores(X), y) / 120
        assert model.loss_history[-1] == refit

    def test_prediction_on_training_rows(self):
        X, y = separable_toy()
        model = gbdt_fit(X, y, GbdtParams(n_stages=50, learning_rate=0.1, max_depth=2))
        assert (model.predict(X) == y).all()

    def test_column_mismatch_rejected(self):
        X, y = separable_toy()
        model = gbdt_fit(X, y, GbdtParams(n_stages=2))
        with pytest.raises(DomainError):
            model.predict(np.zeros((3, 5)))

    def test_payload_round_trip(self):
        X, y = separable_toy()
        model = gbdt_fit(X, y, GbdtParams(n_stages=5, max_depth=2))
        clone = model_from_payload(model.to_payload())
        probe = np.random.default_rng(0).normal(size=(10, 2))
        assert np.array_equal(model.predict_proba(probe), clone.predict_proba(probe))


class TestGbdtInputChecks:
    @pytest.mark.parametrize("field", ["learning_rate", "min_impurity_decrease"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.5, "fast"])
    def test_bad_rates(self, field, value):
        X, y = separable_toy()
        with pytest.raises(ConfigError, match=field):
            gbdt_fit(X, y, GbdtParams(n_stages=2, **{field: value}))


@functools.cache
def design(name):
    """The bundled corpus or a synthesized one ("synth<seed>"),
    frequency-encoded as the CLI encodes it."""
    if name == "bundled":
        records, _ = load_corpus(bundled_corpus_path())
    else:
        spec = SynthesisSpec(seed=int(name.removeprefix("synth")), total=200,
                             signal_strength=0.6)
        records = synthesize_corpus(spec)
    encoded = CorpusEncoder.fit(records).transform(records)
    return encoded.data, np.asarray(encoded.labels)


class TestCertifiedLeaves:
    """gbdt_fit skips the search for trees a residual-drift bound proves to
    be single leaves; the skipped search must never have found a split."""

    @staticmethod
    def fit(monkeypatch, X, y, params, certify=True):
        """The fit and its number of searched trees: the trees of the
        groups it grew."""
        searched = []

        def counted(X, codes, K, mode, params, samples, leaf_value_fn=None):
            samples = list(samples)
            searched.append(len(samples))
            return grow_trees(X, codes, K, mode, params, samples, leaf_value_fn)

        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "grow_trees", counted)
            if not certify:
                patch.setattr(ensemble, "_certified_leaf", lambda *args: False)
            model = gbdt_fit(X, y, params, n_classes=4)
        return model, sum(searched)

    def assert_oracle(self, monkeypatch, X, y, params):
        certified, calls = self.fit(monkeypatch, X, y, params)
        searched, all_calls = self.fit(monkeypatch, X, y, params, certify=False)
        assert all_calls == 4 * len(searched.stages)
        assert calls < all_calls  # the certificate did fire
        assert (json.dumps(certified.to_payload(), sort_keys=True)
                == json.dumps(searched.to_payload(), sort_keys=True))
        probe = np.vstack([X, X[::7] + 0.01])
        assert certified.predict_proba(probe).tobytes() == searched.predict_proba(probe).tobytes()
        assert certified.loss_history == searched.loss_history

    @pytest.mark.parametrize("name", ["bundled", "synth1", "synth2", "synth3"])
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_identical_to_searched_fit(self, monkeypatch, name, profile):
        X, y = design(name)
        params = profile_params("gbdt", profile)
        if profile == "paper":
            params["n_stages"] = 300  # of 10,000
        self.assert_oracle(monkeypatch, X, y, GbdtParams(**params))

    def test_every_tree_searched_without_a_threshold(self, monkeypatch):
        X, y = design("synth3")
        params = GbdtParams(n_stages=30, max_depth=2, min_impurity_decrease=0.0)
        _, calls = self.fit(monkeypatch, X, y, params)
        assert calls == 30 * 4

    def test_bound_on_random_residual_pairs(self):
        # sqrt(best(r')) <= sqrt(best(r)) + max|r' - r| for every r, r'
        rng = np.random.default_rng(8)
        X, _ = design("synth1")
        for _ in range(300):
            m = int(rng.integers(2, len(X) + 1))
            rows = rng.choice(len(X), size=m, replace=False)
            codes, _ = column_codes(X[rows])
            w = rng.uniform(0.05, 1.0, m)
            w /= w.sum()
            r = rng.normal(size=m) * rng.choice([1e-3, 0.1, 1.0])
            moved = r + rng.uniform(-1, 1, m) * rng.choice([1e-6, 1e-3, 0.1])

            def best(residual):
                found = _best_split_exact(
                    codes, np.column_stack([w * residual, w * residual ** 2, w]),
                    "regression")
                return 0.0 if found is None else max(found[3], 0.0)

            drift = np.abs(moved - r).max()
            for a, b in ((r, moved), (moved, r)):
                assert math.sqrt(best(b)) <= math.sqrt(best(a)) + drift + 1e-12

    def test_certificate_refuses_a_tight_drift(self):
        # two equal-weight rows: the one split decreases by ((r0 - r1) / 2)^2,
        # so drifting the rows apart by e raises sqrt(decrease) by exactly e
        X = np.array([[0.0], [1.0]])

        def stump(residual, threshold):
            return grow_one(X, residual, mode="regression",
                            params=TreeParams(min_impurity_decrease=threshold))

        r = np.array([0.1, -0.1])
        moved = r + np.array([0.05, -0.05])
        anchor = (math.sqrt(stump(r, 1.0)[1]), r)
        reached = stump(moved, 1.0)[1]
        assert math.sqrt(reached) == pytest.approx(anchor[0] + 0.05, rel=1e-12)
        assert stump(moved, reached)[0].nodes[0] == 3
        below = math.sqrt(reached) * (1.0 - 1e-9)
        assert not ensemble._certified_leaf(anchor, moved, below)
        assert ensemble._certified_leaf(anchor, moved, below * (1.0 + 1e-6))

    def test_root_decrease_reported(self):
        X, y = design("synth1")
        residual = (y == 2) - 0.25
        w = np.full(len(y), 1.0 / len(y))
        stump, stump_decrease = grow_one(X, residual, params=TreeParams(max_depth=1),
                                         mode="regression")
        found = _best_split_exact(column_codes(X)[0],
                                  np.column_stack([w * residual, w * residual ** 2, w]),
                                  "regression")
        assert stump.nodes[0] == 3
        assert stump_decrease == pytest.approx(found[3], rel=1e-12)
        blocked, blocked_decrease = grow_one(
            X, residual, params=TreeParams(min_impurity_decrease=1.0), mode="regression")
        assert blocked.nodes[0] == 1 and blocked_decrease == stump_decrease
        flat_decrease = grow_one(X, np.full(len(y), 0.5), mode="regression")[1]
        assert flat_decrease == 0.0


def reference_gbdt(X, y, params, K=4):
    """gbdt_fit as a loop over each stage's classes: a certified class adds
    a single leaf, any other grows alone as a group of one, and the trees
    join by `TreeSet.concat`; softmax and deviance take row-wise maxima and
    sums, each in its own pass.  Returns the model and, per stage, which
    classes were certified."""

    def shifted(scores):
        return scores - scores.max(axis=1, keepdims=True)

    def deviance(scores):
        picked = shifted(scores)[np.arange(n), y]
        return float((np.log(np.exp(shifted(scores)).sum(axis=1)) - picked).sum())

    n = len(y)
    w = np.full(n, 1.0 / n)
    counts = np.bincount(y, weights=w, minlength=K)
    init_scores = np.log(counts / counts.sum())
    scores = np.tile(init_scores, (n, 1))
    codes = column_codes(X)
    scale = (K - 1) / K
    anchors = [None] * K
    below = math.sqrt(params.min_impurity_decrease) * (1.0 - 1e-9)
    trees, certified = [], []
    loss_history = [deviance(scores) / n]
    for _ in range(params.n_stages):
        e = np.exp(shifted(scores))
        gradient = e / e.sum(axis=1, keepdims=True)
        gradient[np.arange(n), y] -= 1.0
        certified.append([])
        for c in range(K):
            residual = -gradient[:, c]
            step = np.empty(n)

            def newton_leaf(idx, residual=residual, step=step):
                num = np.sort(w[idx] * residual[idx]).sum()
                mag = np.abs(residual[idx])
                den = np.sort(w[idx] * mag * (1.0 - mag)).sum()
                step[idx] = value = 0.0 if den <= 1e-150 else float(scale * num / den)
                return value

            if ensemble._certified_leaf(anchors[c], residual, below):
                certified[-1].append(c)
                tree = TreeSet(np.array([1]), np.array([-1]), np.empty(0),
                               np.empty(0, dtype=np.intp), np.array([newton_leaf(np.arange(n))]))
            else:
                tree, root_decrease = grow_one(X, residual, w, params.tree_params(),
                                               mode="regression", leaf_value_fn=newton_leaf,
                                               codes=codes)
                anchors[c] = None
                if tree.nodes[0] == 1:
                    anchors[c] = (math.sqrt(max(root_decrease, 0.0)), residual)
            scores[:, c] += params.learning_rate * step
            trees.append(tree)
        loss_history.append(deviance(scores) / n)
    model = ensemble.GbdtModel(K, X.shape[1], init_scores, TreeSet.concat(trees),
                               params.learning_rate, loss_history)
    return model, certified


def reference_scores(model, X):
    """decision_scores as one traversal of every tree, summing each block's
    stages in one np.add.reduce."""
    K = model.n_classes

    def combine(values):
        steps = model.learning_rate * values.reshape(len(values) // K, K, -1)
        init = np.broadcast_to(model.init_scores[:, None], (1,) + steps.shape[1:])
        return np.add.reduce(np.concatenate([init, steps]), axis=0).T

    return model.trees.apply(X, combine)


class TestStageStep:
    """gbdt_fit grows a stage's searched classes as one group and takes its
    certified classes' values together; the model, its loss_history and
    its scores must be those of the per-class loop."""

    @pytest.mark.parametrize("name", ["bundled", "synth1", "synth2", "synth3"])
    @pytest.mark.parametrize("profile", ["desk", "paper"])
    def test_identical_to_per_class_loop(self, name, profile):
        X, y = design(name)
        params = profile_params("gbdt", profile)
        if profile == "paper":
            params["n_stages"] = 300  # of 10,000
        params = GbdtParams(**params)
        model = gbdt_fit(X, y, params, n_classes=4)
        reference, certified = reference_gbdt(X, y, params)
        assert (json.dumps(model.to_payload(), sort_keys=True)
                == json.dumps(reference.to_payload(), sort_keys=True))
        assert model.loss_history == reference.loss_history
        assert any(0 < len(classes) < 4 for classes in certified)  # a mixed stage
        assert model.trees.nodes.size > ensemble.SCORE_STAGES * 4  # two score chunks
        probe = np.vstack([X, X[::7] + 0.01])
        for rows in (probe, probe[5:6]):
            assert model.decision_scores(rows).tobytes() == reference_scores(model, rows).tobytes()


class TestBalancedWeights:
    def test_reference_counts(self):
        labels = np.repeat([0, 1, 2, 3], [176, 138, 183, 656])
        weights = balanced_class_weights(labels)
        assert weights == pytest.approx([1.638, 2.089, 1.575, 0.439], abs=1e-3)

    def test_equal_counts(self):
        assert balanced_class_weights(np.repeat([0, 1, 2, 3], 5)).tolist() == [1.0] * 4

    def test_two_class_imbalance(self):
        labels = np.repeat([0, 1], [25, 75])
        weights = balanced_class_weights(labels, n_classes=2)
        assert weights == pytest.approx([2.0, 0.667], abs=1e-3)

    def test_missing_class(self):
        with pytest.raises(DomainError):
            balanced_class_weights(np.array([0, 0, 1]), n_classes=4)


class TestForest:
    def test_single_tree_equals_cart(self):
        # with every feature a candidate, the one tree is plain CART grown
        # on the forest's bootstrap sample
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 3, 60)
        params = ForestParams(n_trees=1, max_features=None, max_depth=4)
        forest = forest_fit(X, y, params, seed=0, n_classes=3)
        (child,) = np.random.SeedSequence(0).spawn(1)
        rows = np.random.default_rng(child).integers(0, 60, 60)
        cart = fit_tree(X[rows], y[rows], sample_weight=np.full(60, 1 / 60),
                        params=TreeParams(max_depth=4),
                        mode="classification", n_classes=3)
        probe = rng.normal(size=(20, 4))
        assert np.allclose(forest.predict_proba(probe), cart.predict_value(probe))

    def test_separable_accuracy(self):
        X, y = separable_toy(n=30)
        forest = forest_fit(X, y, ForestParams(n_trees=25), seed=1, n_classes=2)
        assert (forest.predict(X) == y).all()

    def test_same_seed_identical(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        a = forest_fit(X, y, ForestParams(n_trees=10), seed=42, n_classes=2)
        b = forest_fit(X, y, ForestParams(n_trees=10), seed=42, n_classes=2)
        probe = rng.normal(size=(20, 3))
        assert np.array_equal(a.predict_proba(probe), b.predict_proba(probe))

    def test_extra_trees_variant(self):
        X, y = separable_toy(n=40)
        model = forest_fit(X, y, ExtraTreesParams(n_trees=20), seed=2, n_classes=2)
        assert model.variant == "extra_trees"
        assert (model.predict(X) == y).mean() > 0.95

    def test_balanced_class_weights_accepted(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        y = np.repeat([0, 1, 2, 3], [50, 10, 10, 10])
        model = forest_fit(X, y, ForestParams(n_trees=5, class_weights="balanced"),
                           seed=0, n_classes=4)
        assert model.predict_proba(X[:5]).shape == (5, 4)

    def test_payload_round_trip(self):
        X, y = separable_toy(n=20)
        model = forest_fit(X, y, ForestParams(n_trees=4, max_depth=3), seed=5,
                           n_classes=2)
        clone = model_from_payload(model.to_payload())
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))


class TestAdaboost:
    def test_hand_computed_three_round_trajectory(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        model = adaboost_fit(X, y, AdaboostParams(n_rounds=3))
        # each round's error is the weight its rows carried on the ones it
        # missed, so the trajectory checks the reweighting into rounds 2-3:
        # row weights [1/4]*4, then [1/6, 1/6, 1/2, 1/6], then [0.1, 0.1, 0.3, 0.5]
        assert model.errors == pytest.approx([1 / 4, 1 / 6, 1 / 5], rel=1e-12)
        assert model.alphas == pytest.approx(
            [math.log(3), math.log(5), math.log(4)], rel=1e-12
        )
        assert (model.predict(X) == y).all()

    def test_perfect_learner_stops_with_capped_alpha(self):
        X, y = separable_toy(n=20)
        model = adaboost_fit(X, y, AdaboostParams(n_rounds=10, base_depth=3))
        assert model.trees.nodes.size == 1
        assert model.alphas == [1e10]
        assert (model.predict(X) == y).all()

    def test_alpha_zero_at_coin_flip_error(self):
        assert samme_alpha(0.5, 2) == pytest.approx(0.0)

    def test_no_learner_beats_random(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])  # depth-1 stumps cannot beat chance
        with pytest.raises(TrainingError):
            adaboost_fit(X, y, AdaboostParams(n_rounds=5, base_depth=1))

    def test_alphas_finite(self):
        X, y = separable_toy(n=16)
        model = adaboost_fit(X, y, AdaboostParams(n_rounds=6, base_depth=1))
        assert all(np.isfinite(a) for a in model.alphas)

    def test_probabilities_sum_to_one(self):
        X, y = separable_toy(n=16)
        model = adaboost_fit(X, y, AdaboostParams(n_rounds=4, base_depth=1))
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    @pytest.mark.parametrize("alphas", [lambda a: a + [1.0], lambda a: a[:-1],
                                        lambda a: [math.nan] + a[1:],
                                        lambda a: "7" * len(a), lambda a: [True] * len(a),
                                        lambda a: [str(x) for x in a],
                                        lambda a: [0.0] * len(a), lambda a: [-x for x in a]])
    def test_payload_needs_one_finite_alpha_per_tree(self, alphas):
        # SAMME keeps only learners of positive alpha: all zero or negated is doctored
        X, y = separable_toy(n=16)
        payload = adaboost_fit(X, y, AdaboostParams(n_rounds=4)).to_payload()
        payload["alphas"] = alphas(payload["alphas"])
        with pytest.raises(DataFormatError, match="alphas"):
            model_from_payload(payload)


class TestSharedColumnCodes:
    """Each ensemble fit builds its column codes and row ranks once and
    shares them across its trees; none of that may depend on row order."""

    @staticmethod
    def duplicated_rows():
        rng = np.random.default_rng(3)
        base = rng.choice(np.linspace(-1, 1, 5), size=(40, 3))
        X = np.vstack([base, base, base[:20]])  # every row appears 2-3 times
        y = rng.integers(0, 4, len(X))
        assert (y[:40] != y[40:80]).any()  # some copies disagree on the label
        probe = np.vstack([X, rng.uniform(-1, 1, size=(30, 3))])
        return X, y, probe, rng.permutation(len(X))

    def test_gbdt(self):
        X, y, probe, perm = self.duplicated_rows()
        params = GbdtParams(n_stages=15, learning_rate=0.3, max_depth=3)
        a = gbdt_fit(X, y, params, n_classes=4)
        b = gbdt_fit(X[perm], y[perm], params, n_classes=4)
        assert a.predict_proba(probe).tobytes() == b.predict_proba(probe).tobytes()

    def test_extra_trees(self):
        X, y, probe, perm = self.duplicated_rows()
        params = ExtraTreesParams(n_trees=10, max_depth=4)
        a = forest_fit(X, y, params, seed=2, n_classes=4)
        b = forest_fit(X[perm], y[perm], params, seed=2, n_classes=4)
        assert a.predict_proba(probe).tobytes() == b.predict_proba(probe).tobytes()

    def test_bootstrap_forest_trees_equal_their_samples_shuffled(self):
        # a bootstrap draw picks row positions, so the forest itself follows
        # row order; each tree, grown from the sample's slice of the shared
        # codes, must equal a tree grown on the shuffled sample alone
        X, y, probe, perm = self.duplicated_rows()
        n = len(X)
        params = ForestParams(n_trees=8, max_depth=4)
        model = forest_fit(X, y, params, seed=4, n_classes=4)
        tree_params = TreeParams(max_depth=4, max_features=1)
        per_tree = model.trees.apply(probe, lambda values: values.swapaxes(0, 1))
        for i, child in enumerate(np.random.SeedSequence(4).spawn(8)):
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, n)[perm]
            alone, _ = grow_one(X[rows], y[rows], np.full(n, 1 / n), tree_params, n_classes=4,
                                rng=rng)
            assert alone.apply(probe, lambda values: values[0]).tobytes() == (
                per_tree[:, i].tobytes())

    @staticmethod
    def grown_alone(X, y, params, seed, trees, K=4):
        """The trees of range `trees` of a forest, each grown alone as a
        group of one from its own generator, sample and weights."""
        n, d = X.shape
        bootstrap = params.variant == "random_forest"
        class_w = balanced_class_weights(y, K) if params.class_weights == "balanced" else np.ones(K)
        tree_params = TreeParams(max_depth=params.max_depth, max_features=int(math.sqrt(d)),
                                 random_thresholds=not bootstrap)
        alone = []
        for child in np.random.SeedSequence(seed).spawn(params.n_trees)[trees.start:trees.stop]:
            rng = np.random.default_rng(child)
            rows = rng.integers(0, n, n) if bootstrap else np.arange(n)
            w = class_w[y[rows]]
            alone.append(grow_one(X[rows], y[rows], w / w.sum(), tree_params, n_classes=K,
                                  rng=rng)[0])
        return TreeSet.concat(alone)

    @pytest.mark.parametrize("params, trees", [
        (ExtraTreesParams(n_trees=7), None),
        (ExtraTreesParams(n_trees=8, max_depth=3), range(2, 7)),
        (ForestParams(n_trees=7, class_weights="balanced"), None),
        (ForestParams(n_trees=8), range(2, 7)),  # starts and ends mid-group
        (ForestParams(n_trees=10, max_depth=4), range(3, 6)),  # exactly one group
    ])
    def test_trees_grown_together_equal_trees_grown_alone(self, params, trees, monkeypatch):
        rng = np.random.default_rng(11)
        X = rng.choice(np.linspace(-1, 1, 7), size=(90, 4))
        y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.4, 90) > 0).astype(int) * 2
        y[rng.random(90) < 0.3] += 1
        monkeypatch.setattr(ensemble, "FOREST_GROUP_ROWS", 3 * len(X))  # groups of 3 trees
        trees = trees or range(params.n_trees)
        forest = forest_fit(X, y, params, seed=5, n_classes=4, trees=trees)
        assert_same_arrays(forest.trees, self.grown_alone(X, y, params, 5, trees))
        assert forest.trees.nodes.size == len(trees) >= 3

    def test_trees_of_different_depths_equal_trees_grown_alone(self, monkeypatch):
        # one row of class 1: the bootstraps that miss it grow single leaves,
        # the others isolate it in as many levels as their feature draws take
        X = np.random.default_rng(12).normal(size=(40, 3))
        y = np.zeros(40, dtype=int)
        y[7] = 1
        params = ForestParams(n_trees=12)
        monkeypatch.setattr(ensemble, "FOREST_GROUP_ROWS", 5 * len(X))
        forest = forest_fit(X, y, params, seed=3, n_classes=4)
        assert_same_arrays(forest.trees, self.grown_alone(X, y, params, 3, range(12)))
        trees = forest.trees
        depths = []
        for start, count in zip(trees.start, trees.nodes):
            depth = np.zeros(count, dtype=int)
            for i in np.flatnonzero(trees.feature[start:start + count] >= 0):
                depth[[i + 1, trees.right[trees.splits_before[start + i]]]] = depth[i] + 1
            depths.append(depth.max())
        assert 0 in depths and len(set(depths)) >= 3

    def test_no_batch_exceeds_the_cell_cap(self, monkeypatch):
        records, _ = load_corpus(bundled_corpus_path())
        encoded = CorpusEncoder.fit(records).transform(records)
        cells = []
        search = tree_module._batched_splits

        def recorded(codes, stats, rows, starts, sizes, nodes, feats, mode):
            per_node = codes.shape[0] if feats is None else feats.shape[1]
            cells.append(nodes.size * per_node * int(sizes[nodes].max()))  # S * L
            return search(codes, stats, rows, starts, sizes, nodes, feats, mode)

        monkeypatch.setattr(tree_module, "_batched_splits", recorded)
        forest_fit(encoded.data, encoded.labels, ForestParams(n_trees=28), seed=7, n_classes=4)
        gbdt_fit(encoded.data, encoded.labels, GbdtParams(n_stages=20), n_classes=4)
        assert len(cells) > 100 and max(cells) <= tree_module.BATCH_CELLS
        assert max(cells) > tree_module.BATCH_CELLS // 2  # the cap binds

    def test_adaboost(self):
        # SAMME sums the row weights in sorted order, so the learner weights
        # and the learners are the same to the last bit
        X, y, probe, perm = self.duplicated_rows()
        params = AdaboostParams(n_rounds=20, base_depth=2)
        a = adaboost_fit(X, y, params, n_classes=4)
        b = adaboost_fit(X[perm], y[perm], params, n_classes=4)
        assert a.trees.nodes.size > 1
        for name in ("nodes", "feature", "threshold", "right"):
            assert getattr(a.trees, name).tobytes() == getattr(b.trees, name).tobytes()
        assert a.alphas == b.alphas
        assert a.predict_proba(probe).tobytes() == b.predict_proba(probe).tobytes()

    @pytest.mark.parametrize("fit", [
        lambda X, y: gbdt_fit(X, y, GbdtParams(n_stages=2), n_classes=2),
        lambda X, y: forest_fit(X, y, ForestParams(n_trees=2), n_classes=2),
        lambda X, y: forest_fit(X, y, ExtraTreesParams(n_trees=2), n_classes=2),
        lambda X, y: adaboost_fit(X, y, AdaboostParams(n_rounds=2), n_classes=2),
    ])
    def test_non_finite_matrix_rejected(self, fit):
        X = np.array([[1.0, 0.0], [np.nan, 1.0], [3.0, 0.0], [4.0, 1.0]])
        with pytest.raises(DomainError, match="non-finite"):
            fit(X, np.array([0, 1, 0, 1]))


class TestLabelRange:
    """Every ensemble fit checks its labels against the class count once,
    naming the first label outside [0, K)."""

    @staticmethod
    def toy(bad):
        X = np.arange(16.0).reshape(8, 2)
        y = np.array([0, 1, 2, 3, 0, 1, 2, bad])
        return X, y

    @pytest.mark.parametrize("bad", [5, -1])
    def test_gbdt(self, bad):
        with pytest.raises(DomainError, match=f"label {bad} "):
            gbdt_fit(*self.toy(bad), GbdtParams(n_stages=2), n_classes=4)

    @pytest.mark.parametrize("bad", [5, -1])
    @pytest.mark.parametrize("variant", ["random_forest", "extra_trees"])
    def test_forest(self, bad, variant):
        params = {"random_forest": ForestParams, "extra_trees": ExtraTreesParams}[variant]
        with pytest.raises(DomainError, match=f"label {bad} "):
            forest_fit(*self.toy(bad), params(n_trees=2), n_classes=4)

    @pytest.mark.parametrize("bad", [5, -1])
    def test_adaboost(self, bad):
        with pytest.raises(DomainError, match=f"label {bad} "):
            adaboost_fit(*self.toy(bad), AdaboostParams(n_rounds=2), n_classes=4)

    @pytest.mark.parametrize("bad", [0.5, 3.9, np.nan, np.inf])
    def test_label_not_a_whole_number(self, bad):
        # `_fit_data` refuses it rather than truncating it to a class
        message = f"label {bad} is not a whole class number"
        with pytest.raises(DomainError, match=message):
            gbdt_fit(*self.toy(bad), GbdtParams(n_stages=2))
        with pytest.raises(DomainError, match=message):
            forest_fit(*self.toy(bad), ForestParams(n_trees=2), n_classes=4)

    def test_whole_valued_float_labels_fit_as_integers(self):
        X, y = self.toy(3)
        fitted = [json.dumps(gbdt_fit(X, labels, GbdtParams(n_stages=2)).to_payload(),
                             sort_keys=True) for labels in (y, y.astype(float))]
        assert fitted[0] == fitted[1]


class TestModelParams:
    """Each params dataclass checks its fields where it is built."""

    @pytest.mark.parametrize("family, params, field", [
        ("gbdt", {"bogus": 1}, "bogus"),
        ("gbdt", {"n_stages": "abc"}, "n_stages"),
        ("gbdt", {"n_stages": 0}, "n_stages"),
        ("gbdt", {"max_depth": 2.5}, "max_depth"),
        ("gbdt", {"patience": 0}, "patience"),
        ("rfc", {"min_impurity_decrease": math.nan}, "min_impurity_decrease"),
        ("rfc", {"min_impurity_decrease": -0.1}, "min_impurity_decrease"),
        ("rfc", {"class_weights": "foo"}, "class_weights"),
        ("rfc", {"class_weights": {0: 2.0, 1: 0.0}}, "class_weights"),
        ("rfc", {"class_weights": {"-1": 2.0}}, "class_weights"),
        ("etc", {"max_features": 0.5}, "max_features"),
        ("etc", {"variant": "jungle"}, "variant"),
        ("etc", {"bootstrap": "yes"}, "bootstrap"),
        ("abc", {"n_rounds": True}, "n_rounds"),
        ("abc", {"track_weights": 1}, "track_weights"),
        ("xgb", {}, "xgb"),
        ("rfc", {"variant": "extra_trees"}, "variant"),
        ("rfc", {"bootstrap": False}, "bootstrap"),
    ])
    def test_bad_parameter(self, family, params, field):
        with pytest.raises(ConfigError, match=field):
            model_params(family, params)

    def test_defaults_and_accepted_values(self):
        assert model_params("gbdt", {}) == GbdtParams()
        assert model_params("etc", {}) == ExtraTreesParams()
        assert model_params("etc", {}).variant == "extra_trees"
        forest = model_params("rfc", {"class_weights": {"0": 1.5, 3: 2},
                                      "max_depth": None})
        assert type(forest) is ForestParams and forest.variant == "random_forest"
        assert model_params("rfc", {"class_weights": "balanced"}).class_weights == "balanced"

    def test_class_weight_ordinal_checked_against_classes(self):
        X, y = separable_toy(n=8)
        with pytest.raises(ConfigError, match="class 2"):
            forest_fit(X, y, ForestParams(n_trees=2, class_weights={2: 1.0}), n_classes=2)

    def test_spec_class_weight_ordinal_checked_before_fitting(self):
        for weights in ({"0": 1.5, 3: 2}, "balanced", None):
            model_members(ModelSpec("rfc", {"class_weights": weights}))
        with pytest.raises(ConfigError, match="class 4, outside"):
            model_members(ModelSpec("rfc", {"class_weights": {"1": 2.0, "4": 1.0}}))
        with pytest.raises(ConfigError, match="class 7, outside"):
            model_members(ModelSpec("voting", {"members": [
                {"family": "etc", "params": {"class_weights": {7: 1.0}}}]}))

    def test_nan_min_impurity_decrease_rejected(self):
        # NaN compares false, so it would refuse no split and grow full trees
        X = np.arange(16.0).reshape(8, 2)
        y = np.array([0, 1, 2, 3, 0, 1, 2, 3])
        model = forest_fit(X, y, ForestParams(n_trees=3, min_impurity_decrease=0.5),
                           seed=1, n_classes=4)
        assert (model.trees.nodes == 1).all()
        with pytest.raises(ConfigError, match="min_impurity_decrease"):
            ForestParams(n_trees=3, min_impurity_decrease=math.nan)


class _StubModel:
    def __init__(self, proba):
        self._proba = np.asarray(proba, dtype=float)

    def predict_proba(self, matrix):
        return np.tile(self._proba, (np.asarray(matrix).shape[0], 1))


class TestVoting:
    def test_arithmetic_mean(self):
        model = VotingModel([_StubModel([0.6, 0.4]), _StubModel([0.2, 0.8])])
        averaged = model.predict_proba(np.zeros((1, 2)))
        assert averaged[0].tolist() == pytest.approx([0.4, 0.6])
        assert model.predict(np.zeros((1, 2)))[0] == 1

    def test_idempotent_on_identical_members(self):
        member = _StubModel([0.7, 0.3])
        model = VotingModel([member, member, member])
        assert np.allclose(model.predict_proba(np.zeros((2, 2))), [0.7, 0.3])
        assert model.predict(np.zeros((2, 2))).tolist() == [0, 0]

    def test_exact_tie_takes_lowest_ordinal(self):
        model = VotingModel([_StubModel([0.5, 0.5])])
        assert model.predict(np.zeros((1, 2)))[0] == 0

    def test_empty_members(self):
        with pytest.raises(ConfigError):
            VotingModel([])


class TestGoldenDigests:
    """Seed-7 fits of every family on the bundled design, pinned by the
    sha256 of their payload JSON and of their predict_proba bytes."""

    @pytest.fixture(scope="class")
    def design(self):
        records, _ = load_corpus(bundled_corpus_path())
        return fit_design(records, PipelineConfig(seed=7))[1]

    @pytest.mark.parametrize("family, params, payload_sha, proba_sha", [
        ("rfc", {"n_trees": 10, "class_weights": "balanced"},
         "e1909b8716b594907e2ba0051a30f2b405065e14191388847317524c3a01018e",
         "ffbe6ba266d244bd6063b8a647b2b7ff5494383277ff7faf5b888c3a5aee2881"),
        ("gbdt", {"n_stages": 25},
         "d9328d848db31b5ae0eb16bb24996cc53a27b89c13b044f951f9add9892695f3",
         "cf40305022fa332e137a0431f755ae72968cd974dc7688501c66dde0a0dfada8"),
        ("abc", {"n_rounds": 20, "base_depth": 3},
         "20582eb9cf9773648a75fafebe4f7e2cd5c71c61b1a3abc2b12f48f8d822c4f8",
         "88cbc76aac0afcf6c48a99609213d40286c18ba23ba812f422103c9abdcc1d7a"),
        ("etc", {"n_trees": 10, "class_weights": "balanced"},
         "65eff9fc61c2032ae5de12af165956817eb3c6b54a23d70b2fb84fdd75e81627",
         "38a2b2dd0be943bbb13284aa2eb4ad47f0ef12f326abb884c98452b6cd340d03"),
    ])
    def test_fit_is_unchanged(self, design, family, params, payload_sha, proba_sha):
        model = fit_model(ModelSpec(family, params, seed=7), design.data, design.labels)
        payload = json.dumps(model.to_payload(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == payload_sha
        proba = model.predict_proba(design.data)
        assert hashlib.sha256(proba.tobytes()).hexdigest() == proba_sha

    def test_model_file_round_trip_is_bit_exact(self, design, tmp_path):
        """A saved and reloaded model of every family, and a voting model of
        them all, holds bit-equal tree arrays, scores the same bytes, and
        saves again to the same file."""
        members = [{"family": "rfc", "params": {"n_trees": 10}},
                   {"family": "gbdt", "params": {"n_stages": 25}},
                   {"family": "abc", "params": {"n_rounds": 20, "base_depth": 3}},
                   {"family": "etc", "params": {"n_trees": 10}}]
        specs = [ModelSpec(m["family"], m["params"], seed=7) for m in members]
        specs.append(ModelSpec("voting", {"members": members}, seed=7))
        for spec in specs:
            model = fit_model(spec, design.data, design.labels)
            pipeline = PipelineModel(mode="wo_dr", family=spec.family, seed=7,
                                     params=spec.params, dimred=DimredArtifacts("wo_dr"),
                                     model=model)
            path = tmp_path / f"{spec.family}.json"
            save_model(path, pipeline, "fingerprint")
            clone = load_model(path, "fingerprint").model
            for fitted, loaded in zip(getattr(model, "members", [model]),
                                      getattr(clone, "members", [clone])):
                assert_same_arrays(fitted.trees, loaded.trees)
            assert (clone.predict_proba(design.data).tobytes()
                    == model.predict_proba(design.data).tobytes()), spec.family
            again = tmp_path / f"{spec.family}.again.json"
            save_model(again, PipelineModel(**{**vars(pipeline), "model": clone}),
                       "fingerprint")
            assert again.read_bytes() == path.read_bytes(), spec.family


class TestBlockedScoring:
    """Scoring traverses every (tree, row) pair in blocks of rows; all 1,153
    bundled rows in one call must give the bytes of one row at a time."""

    @pytest.fixture(scope="class")
    def members(self):
        records, _ = load_corpus(bundled_corpus_path())
        design = fit_design(records, PipelineConfig(seed=7))[1]
        specs = [("gbdt", {"n_stages": 25}), ("rfc", {"n_trees": 40}),
                 ("etc", {"n_trees": 40}), ("abc", {"n_rounds": 50, "base_depth": 3})]
        return design.data, {family: fit_model(ModelSpec(family, params, seed=7),
                                               design.data, design.labels)
                             for family, params in specs}

    @pytest.mark.parametrize("family", ["gbdt", "rfc", "etc", "abc", "voting"])
    def test_all_rows_equal_one_row_at_a_time(self, members, family):
        X, models = members
        assert len(X) == 1153
        model = (ensemble.VotingModel(list(models.values())) if family == "voting"
                 else models[family])
        for member in getattr(model, "members", [model]):
            assert len(X) * member.trees.nodes.size > BLOCK_PAIRS  # more than one block
        batch = model.predict_proba(X)
        rows = np.concatenate([model.predict_proba(X[i:i + 1]) for i in range(len(X))])
        assert batch.shape == (1153, 4)
        assert batch.tobytes() == rows.tobytes()


class TestModelSpec:
    def test_unknown_family(self):
        X, y = four_class_toy(n=8)
        with pytest.raises(ConfigError):
            fit_model(ModelSpec("xgb"), X, y)

    def test_members_are_single_families(self):
        gbdt = {"family": "gbdt", "params": {"n_stages": 2}}
        members = model_members(ModelSpec("voting", {"members": [gbdt, gbdt]}, seed=4))
        assert [(m.family, m.seed, p) for m, p in members] == [
            ("gbdt", 4, GbdtParams(n_stages=2))] * 2
        with pytest.raises(ConfigError, match="unknown model family 'majority'"):
            model_members(ModelSpec("majority"))
        with pytest.raises(ConfigError, match="unknown model family 'majority'"):
            model_members(ModelSpec("voting", {"members": [gbdt, {"family": "majority"}]}))
        nested = {"family": "voting", "params": {"members": [gbdt]}}
        with pytest.raises(ConfigError, match="voting member cannot itself be a voting"):
            model_members(ModelSpec("voting", {"members": [gbdt, nested]}))

    @pytest.mark.parametrize("member", [
        "gbdt", ["gbdt"], None, {"params": {}}, {"family": 3},
        {"family": "gbdt", "params": ["n_stages"]}, {"family": "gbdt", "params": 2},
    ])
    def test_malformed_voting_member_is_a_config_error(self, member):
        gbdt = {"family": "gbdt", "params": {"n_stages": 2}}
        with pytest.raises(ConfigError, match="voting member"):
            model_members(ModelSpec("voting", {"members": [gbdt, member]}))

    @pytest.mark.parametrize("members", [None, [], {}, "gbdt", {"family": "gbdt"}])
    def test_voting_members_must_be_a_non_empty_list(self, members):
        with pytest.raises(ConfigError, match="non-empty members list"):
            model_members(ModelSpec("voting", {"members": members}))

    def test_fit_functions_looked_up_when_called(self, monkeypatch):
        # wrappers installed on the module attributes must see every fit
        X, y = four_class_toy(n=8)
        seen = []
        for name in ("gbdt_fit", "forest_fit", "adaboost_fit"):
            original = getattr(ensemble, name)

            def recording(*args, name=name, original=original, **kwargs):
                seen.append((name, type(args[2]).__name__))
                return original(*args, **kwargs)

            monkeypatch.setattr(ensemble, name, recording)
        for family, params in (("gbdt", {"n_stages": 2}), ("rfc", {"n_trees": 2}),
                               ("etc", {"n_trees": 2}), ("abc", {"n_rounds": 2})):
            fit_model(ModelSpec(family, params), X, y)
        assert seen == [("gbdt_fit", "GbdtParams"), ("forest_fit", "ForestParams"),
                        ("forest_fit", "ExtraTreesParams"),
                        ("adaboost_fit", "AdaboostParams")]

    def test_voting_family_end_to_end(self):
        X, y = four_class_toy(n=24)
        members = [
            {"family": "abc", "params": {"n_rounds": 5}},
            {"family": "gbdt", "params": {"n_stages": 10, "max_depth": 2}},
            {"family": "etc", "params": {"n_trees": 5}},
            {"family": "rfc", "params": {"n_trees": 5}},
        ]
        model = fit_model(ModelSpec("voting", {"members": members}, seed=1), X, y)
        assert (model.predict(X) == y).mean() > 0.9
        clone = model_from_payload(model.to_payload())
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))


class TestForkedFit:
    """`fit_model(threads=N)` fits forest tree ranges and voting members in
    N forked workers and joins them into the model one process fits."""

    def test_voting_payload_identical_at_any_worker_count(self):
        X, y = four_class_toy(n=40)
        members = [{"family": "abc", "params": {"n_rounds": 4}},
                   {"family": "gbdt", "params": {"n_stages": 3, "max_depth": 2}},
                   {"family": "etc", "params": {"n_trees": 5}},
                   {"family": "rfc", "params": {"n_trees": 7}}]
        spec = ModelSpec("voting", {"members": members}, seed=3)
        payloads = [json.dumps(fit_model(spec, X, y, threads=threads)
                               .to_payload(), sort_keys=True)
                    for threads in (1, 2, 3)]
        assert payloads[0] == payloads[1] == payloads[2]
        assert multiprocessing.active_children() == []

    def test_tree_ranges_join_into_the_whole_forest(self):
        X, y = separable_toy(n=30)
        params = ForestParams(n_trees=5)
        whole = forest_fit(X, y, params, seed=4)
        parts = [forest_fit(X, y, params, seed=4, trees=trees).trees
                 for trees in (range(0, 2), range(2, 5))]
        assert_same_arrays(TreeSet.concat(parts), whole.trees)

    @pytest.mark.parametrize("trees", [range(0, 10, 2), range(8, 14), range(-2, 10),
                                       range(4, 4), range(5, 3)])
    def test_tree_range_not_within_the_forest_is_a_config_error(self, trees):
        # a step, a stop past n_trees, a negative start or no tree at all
        X, y = separable_toy(n=30)
        with pytest.raises(ConfigError, match="tree range"):
            forest_fit(X, y, ForestParams(n_trees=10), seed=4, trees=trees)

    def test_concat_of_range_sets_equals_concat_of_their_trees(self):
        X, y = separable_toy(n=30)
        rng = np.random.default_rng(5)
        trees = [grow_one(X, y, params=TreeParams(max_depth=depth, max_features=1),
                          n_classes=2, rng=rng)[0]
                 for depth in (0, 1, 2, 3, None)]
        ranges = [TreeSet.concat(trees[:2]), TreeSet.concat(trees[2:])]
        assert_same_arrays(TreeSet.concat(ranges), TreeSet.concat(trees))
        assert TreeSet.concat(ranges).nodes.tolist() == [t.nodes[0] for t in trees]
