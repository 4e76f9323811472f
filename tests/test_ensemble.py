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
    check_spec,
    deviance_gradient,
    fit_model,
    forest_fit,
    gbdt_fit,
    majority_fit,
    model_from_payload,
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
from iotrisk.tree import (
    BLOCK_PAIRS,
    TreeParams,
    TreeSet,
    _best_split_exact,
    column_codes,
    fit_tree,
)

from conftest import assert_same_arrays


def separable_toy(n=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(-2.0, 0.3, size=(n // 2, 2)),
        rng.normal(2.0, 0.3, size=(n // 2, 2)),
    ])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


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

    def test_absent_class_is_config_error(self):
        X, _ = separable_toy(n=8)
        labels = np.zeros(8, dtype=int)
        with pytest.raises(ConfigError, match="absent"):
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
        """The fit and its number of fit_tree calls."""
        calls = []

        def counted(*args, **kw):
            calls.append(1)
            return fit_tree(*args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "fit_tree", counted)
            if not certify:
                patch.setattr(ensemble, "_certified_leaf", lambda *args: False)
            model = gbdt_fit(X, y, params, n_classes=4)
        return model, len(calls)

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
            return fit_tree(X, residual, mode="regression",
                            params=TreeParams(min_impurity_decrease=threshold))

        r = np.array([0.1, -0.1])
        moved = r + np.array([0.05, -0.05])
        anchor = (math.sqrt(stump(r, 1.0).root_decrease), r)
        reached = stump(moved, 1.0).root_decrease
        assert math.sqrt(reached) == pytest.approx(anchor[0] + 0.05, rel=1e-12)
        assert stump(moved, reached).node_count() == 3
        below = math.sqrt(reached) * (1.0 - 1e-9)
        assert not ensemble._certified_leaf(anchor, moved, below)
        assert ensemble._certified_leaf(anchor, moved, below * (1.0 + 1e-6))

    def test_root_decrease_reported(self):
        X, y = design("synth1")
        residual = (y == 2) - 0.25
        w = np.full(len(y), 1.0 / len(y))
        stump = fit_tree(X, residual, params=TreeParams(max_depth=1), mode="regression")
        found = _best_split_exact(column_codes(X)[0],
                                  np.column_stack([w * residual, w * residual ** 2, w]),
                                  "regression")
        assert stump.node_count() == 3
        assert stump.root_decrease == pytest.approx(found[3], rel=1e-12)
        blocked = fit_tree(X, residual, params=TreeParams(min_impurity_decrease=1.0),
                           mode="regression")
        assert blocked.node_count() == 1 and blocked.root_decrease == stump.root_decrease
        flat = fit_tree(X, np.full(len(y), 0.5), mode="regression")
        assert flat.root_decrease == 0.0


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
                                        lambda a: [math.nan] + a[1:]])
    def test_payload_needs_one_finite_alpha_per_tree(self, alphas):
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
            alone = fit_tree(X[rows], y[rows], sample_weight=np.full(n, 1 / n),
                             params=tree_params, mode="classification", n_classes=4,
                             rng=rng)
            assert alone.predict_value(probe).tobytes() == per_tree[:, i].tobytes()

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
            check_spec(ModelSpec("rfc", {"class_weights": weights}))
        with pytest.raises(ConfigError, match="class 4, outside"):
            check_spec(ModelSpec("rfc", {"class_weights": {"1": 2.0, "4": 1.0}}))
        with pytest.raises(ConfigError, match="class 7, outside"):
            check_spec(ModelSpec("voting", {"members": [
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
         "2649ffb130c2c774c415510124cf725dba355370e8c966cb1e7643b7e49aea73",
         "ffbe6ba266d244bd6063b8a647b2b7ff5494383277ff7faf5b888c3a5aee2881"),
        ("gbdt", {"n_stages": 25},
         "d9328d848db31b5ae0eb16bb24996cc53a27b89c13b044f951f9add9892695f3",
         "cf40305022fa332e137a0431f755ae72968cd974dc7688501c66dde0a0dfada8"),
        ("abc", {"n_rounds": 20, "base_depth": 3},
         "877409b47cd60c9f341a643cf223b515f38361600ebf86bd2bf05e036bcb3e7f",
         "88cbc76aac0afcf6c48a99609213d40286c18ba23ba812f422103c9abdcc1d7a"),
        ("etc", {"n_trees": 10, "class_weights": "balanced"},
         "10c4057c744e29d6f8df28057e81e5139da5e4e6190e0e5374b2819c9e218875",
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
        X, y = separable_toy(n=8)
        with pytest.raises(ConfigError):
            fit_model(ModelSpec("xgb"), X, y, n_classes=2)

    def test_fit_functions_looked_up_when_called(self, monkeypatch):
        # wrappers installed on the module attributes must see every fit
        X, y = separable_toy(n=8)
        seen = []
        for name in ("gbdt_fit", "forest_fit", "adaboost_fit"):
            original = getattr(ensemble, name)

            def recording(*args, name=name, original=original, **kwargs):
                seen.append((name, type(args[2]).__name__))
                return original(*args, **kwargs)

            monkeypatch.setattr(ensemble, name, recording)
        for family, params in (("gbdt", {"n_stages": 2}), ("rfc", {"n_trees": 2}),
                               ("etc", {"n_trees": 2}), ("abc", {"n_rounds": 2})):
            fit_model(ModelSpec(family, params), X, y, n_classes=2)
        assert seen == [("gbdt_fit", "GbdtParams"), ("forest_fit", "ForestParams"),
                        ("forest_fit", "ExtraTreesParams"),
                        ("adaboost_fit", "AdaboostParams")]

    def test_majority_baseline(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(20, 2))
        y = np.repeat([0, 3], [5, 15])
        model = majority_fit(X, y, n_classes=4)
        assert model.predict(X).tolist() == [3] * 20
        assert np.allclose(model.predict_proba(X)[0], [0.25, 0, 0, 0.75])

    def test_voting_family_end_to_end(self):
        X, y = separable_toy(n=24)
        members = [
            {"family": "abc", "params": {"n_rounds": 5}},
            {"family": "gbdt", "params": {"n_stages": 10, "max_depth": 2}},
            {"family": "etc", "params": {"n_trees": 5}},
            {"family": "rfc", "params": {"n_trees": 5}},
        ]
        model = fit_model(ModelSpec("voting", {"members": members}, seed=1),
                          X, y, n_classes=2)
        assert (model.predict(X) == y).mean() > 0.9
        clone = model_from_payload(model.to_payload())
        assert np.array_equal(model.predict_proba(X), clone.predict_proba(X))


class TestForkedFit:
    """`fit_model(threads=N)` fits forest tree ranges and voting members in
    N forked workers and joins them into the model one process fits."""

    def test_voting_payload_identical_at_any_worker_count(self):
        X, y = separable_toy(n=40)
        members = [{"family": "abc", "params": {"n_rounds": 4}},
                   {"family": "gbdt", "params": {"n_stages": 3, "max_depth": 2}},
                   {"family": "etc", "params": {"n_trees": 5}},
                   {"family": "rfc", "params": {"n_trees": 7}}]
        spec = ModelSpec("voting", {"members": members}, seed=3)
        payloads = [json.dumps(fit_model(spec, X, y, n_classes=2, threads=threads)
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

    def test_concat_of_range_sets_equals_concat_of_their_trees(self):
        X, y = separable_toy(n=30)
        rng = np.random.default_rng(5)
        trees = [fit_tree(X, y, params=TreeParams(max_depth=depth, max_features=1),
                          mode="classification", n_classes=2, rng=rng)
                 for depth in (0, 1, 2, 3, None)]
        ranges = [TreeSet.concat(trees[:2]), TreeSet.concat(trees[2:])]
        assert_same_arrays(TreeSet.concat(ranges), TreeSet.concat(trees))
        assert TreeSet.concat(ranges).nodes.tolist() == [t.node_count() for t in trees]
