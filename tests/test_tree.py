import numpy as np
import pytest

from iotrisk.errors import ConfigError, DataFormatError, DomainError
from iotrisk.tree import DecisionTree, TreeParams, fit_tree


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def depths(tree):
    """Depth of every node; one forward pass suffices since children
    always come after their parent."""
    depth = np.zeros(tree.node_count(), dtype=int)
    for i in range(tree.node_count()):
        for child in (tree.left[i], tree.right[i]):
            if child >= 0:
                depth[child] = depth[i] + 1
    return depth


class TestClassificationSplits:
    def test_separable_single_split(self):
        tree = fit_tree(column([0, 1, 2, 3]), np.array([0, 0, 1, 1]),
                        mode="classification", n_classes=2)
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
        assert tree.value[tree.left[0]].tolist() == [1.0, 0.0]
        assert tree.value[tree.right[0]].tolist() == [0.0, 1.0]

    def test_pure_node_is_single_leaf(self):
        tree = fit_tree(column([0, 1, 2]), np.array([1, 1, 1]),
                        mode="classification", n_classes=2)
        assert tree.node_count() == 1 and tree.left[0] == -1

    def test_xor_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = fit_tree(X, y, params=TreeParams(max_depth=2),
                        mode="classification", n_classes=2)
        assert (tree.predict(X) == y).all()
        assert depths(tree).max() <= 2

    def test_feature_tie_breaks_to_lowest_index(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([x, x])  # identical columns, identical gains
        tree = fit_tree(X, np.array([0, 0, 1, 1]), mode="classification", n_classes=2)
        assert tree.feature[0] == 0

    def test_threshold_tie_breaks_to_lowest(self):
        # splitting [A|B,B,A] and [A,B,B|A] decrease impurity equally
        tree = fit_tree(column([0, 1, 2, 3]), np.array([0, 1, 1, 0]),
                        mode="classification", n_classes=2)
        assert tree.threshold[0] == 0.5

    def test_min_impurity_decrease_blocks_weak_split(self):
        params = TreeParams(min_impurity_decrease=0.2)
        tree = fit_tree(column([0, 1, 2, 3]), np.array([0, 0, 1, 0]),
                        params=params, mode="classification", n_classes=2)
        assert tree.node_count() == 1

    def test_realized_decreases_respect_threshold(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 3, 80)
        params = TreeParams(max_depth=5, min_impurity_decrease=0.01)
        tree = fit_tree(X, y, params=params, mode="classification", n_classes=3)

        def gini(rows):
            shares = np.bincount(y[rows], minlength=3) / rows.size
            return 1.0 - np.square(shares).sum()

        reach = {0: np.arange(80)}  # node -> rows that reach it
        splits = 0
        for i in range(tree.node_count()):
            rows = reach.pop(i)
            if tree.left[i] < 0:
                continue
            go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
            left, right = rows[go_left], rows[~go_left]
            reach[tree.left[i]], reach[tree.right[i]] = left, right
            decrease = gini(rows) - (left.size * gini(left) + right.size * gini(right)) / rows.size
            assert decrease >= 0.01 - 1e-12
            splits += 1
        assert splits > 0

    def test_weighted_leaf_probabilities(self):
        tree = fit_tree(column([0, 1, 2]), np.array([0, 1, 1]),
                        sample_weight=np.array([10.0, 1.0, 1.0]) / 12,
                        params=TreeParams(max_depth=0),
                        mode="classification", n_classes=2)
        assert tree.value[0] == pytest.approx([10 / 12, 2 / 12])

    def test_depth_zero_forces_leaf(self):
        tree = fit_tree(column([0, 1]), np.array([0, 1]),
                        params=TreeParams(max_depth=0),
                        mode="classification", n_classes=2)
        assert tree.node_count() == 1


class TestRegressionSplits:
    def test_variance_split_and_leaf_means(self):
        tree = fit_tree(column([0, 1, 2, 3]), np.array([0.0, 0.0, 10.0, 10.0]),
                        mode="regression")
        assert tree.threshold[0] == 1.5
        assert tree.value[tree.left[0]] == 0.0
        assert tree.value[tree.right[0]] == 10.0

    def test_constant_targets_single_leaf(self):
        tree = fit_tree(column([0, 1, 2]), np.array([4.0, 4.0, 4.0]),
                        mode="regression")
        assert tree.node_count() == 1 and tree.value[0] == 4.0

    def test_leaf_value_fn_receives_caller_indices(self):
        captured = []

        def capture(idx):
            captured.append(sorted(idx.tolist()))
            return 0.0

        fit_tree(column([3, 2, 1, 0]), np.array([0.0, 0.0, 10.0, 10.0]),
                 mode="regression", leaf_value_fn=capture)
        assert sorted(captured) == [[0, 1], [2, 3]]


class TestContract:
    def test_empty_input(self):
        with pytest.raises(DomainError):
            fit_tree(np.empty((0, 2)), np.empty(0), mode="classification")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            fit_tree(column([0, 1]), np.array([0, 1]), mode="ranking")

    def test_nonpositive_weights(self):
        with pytest.raises(DomainError):
            fit_tree(column([0, 1]), np.array([0, 1]),
                     sample_weight=np.array([1.0, 0.0]), mode="classification")

    def test_random_subset_needs_rng(self):
        with pytest.raises(ConfigError):
            fit_tree(column([0, 1]), np.array([0, 1]),
                     params=TreeParams(max_features=1), mode="classification")

    def test_row_order_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.choice(np.linspace(0, 1, 6), size=(120, 4))
        y = rng.normal(size=120)
        w = np.full(120, 1 / 120)
        perm = rng.permutation(120)
        params = TreeParams(max_depth=4)
        a = fit_tree(X, y, w, params, mode="regression")
        b = fit_tree(X[perm], y[perm], w[perm], params, mode="regression")
        probe = rng.uniform(0, 1, size=(30, 4))
        assert np.array_equal(a.predict_value(probe), b.predict_value(probe))

    def test_descent_matches_row_by_row_walk(self):
        rng = np.random.default_rng(8)
        X = rng.choice(np.linspace(0, 1, 5), size=(200, 3))
        y = rng.normal(size=200)
        tree = fit_tree(X, y, params=TreeParams(max_depth=5), mode="regression")
        assert depths(tree).max() >= 3
        # probe rows sit on the thresholds too, where rows go left
        probe = np.vstack([rng.uniform(0, 1, size=(50, 3)), X[:50]])

        def walk(row):
            node = 0
            while tree.left[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            return tree.value[node]

        expected = np.array([walk(row) for row in probe])
        assert np.array_equal(tree.predict_value(probe), expected)

    def test_payload_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 4, 60)
        tree = fit_tree(X, y, params=TreeParams(max_depth=4),
                        mode="classification", n_classes=4)
        assert tree.node_count() > 1
        clone = DecisionTree.from_payload(tree.to_payload(), "classification", 4, 3)
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(tree, name), getattr(clone, name))
        probe = rng.normal(size=(20, 3))
        assert np.array_equal(tree.predict_value(probe), clone.predict_value(probe))

    def test_truncated_payload_rejected(self):
        payload = {"feature": [0, -1], "threshold": [0.5, 0.0],
                   "left": [1, -1], "right": [2, -1], "value": [1.0]}
        with pytest.raises(DataFormatError):
            DecisionTree.from_payload(payload, "regression", None, 1)

    def test_extra_trees_thresholds_split_data(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(100, 4))
        y = (X[:, 1] > 0).astype(int)
        tree = fit_tree(X, y,
                        params=TreeParams(max_depth=6, random_thresholds=True),
                        mode="classification", n_classes=2,
                        rng=np.random.default_rng(1))
        assert (tree.predict(X) == y).mean() > 0.9
