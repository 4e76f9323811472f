import base64
import tracemalloc

import numpy as np
import pytest

from iotrisk.dataset import bundled_corpus_path, load_corpus
from iotrisk.encoding import CorpusEncoder
from iotrisk.errors import ConfigError, DataFormatError, DomainError
from iotrisk.tree import (
    TreeParams,
    TreeSet,
    _best_split_exact,
    _encode,
    column_codes,
    fit_tree,
)

from conftest import assert_same_arrays, tree_lists, tree_payload


def column(values):
    return np.asarray(values, dtype=float).reshape(-1, 1)


def depths(tree):
    """Depth of every node; one forward pass suffices since children
    always come after their parent (the left child is the next node)."""
    depth = np.zeros(tree.node_count(), dtype=int)
    for i in range(tree.node_count()):
        if tree.feature[i] >= 0:
            depth[[i + 1, tree.right[i]]] = depth[i] + 1
    return depth


class TestClassificationSplits:
    def test_separable_single_split(self):
        tree = fit_tree(column([0, 1, 2, 3]), np.array([0, 0, 1, 1]),
                        mode="classification", n_classes=2)
        assert (tree.feature[0], tree.threshold[0]) == (0, 1.5)
        assert tree.value[1].tolist() == [1.0, 0.0]
        assert tree.value[tree.right[0]].tolist() == [0.0, 1.0]

    def test_pure_node_is_single_leaf(self):
        tree = fit_tree(column([0, 1, 2]), np.array([1, 1, 1]),
                        mode="classification", n_classes=2)
        assert tree.node_count() == 1 and tree.feature[0] == tree.right[0] == -1

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

    def test_adjacent_floats_split_into_two_children(self):
        # their midpoint rounds up to the upper value, which would send
        # every row left
        below = np.nextafter(1.0, 0.0)
        tree = fit_tree(column([below, 1.0, below, 1.0]), np.array([0, 1, 0, 1]),
                        mode="classification", n_classes=2)
        assert tree.node_count() == 3 and tree.threshold[0] == below
        assert tree.value[1].tolist() == [1.0, 0.0]
        assert tree.value[2].tolist() == [0.0, 1.0]

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
            if tree.feature[i] < 0:
                continue
            go_left = X[rows, tree.feature[i]] <= tree.threshold[i]
            left, right = rows[go_left], rows[~go_left]
            reach[i + 1], reach[tree.right[i]] = left, right
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
        assert tree.value[1] == 0.0
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

    @pytest.mark.parametrize("weights", [[np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [1, 1],
                                         [[1, 1, 1, 1]]])
    def test_non_finite_or_misshapen_weights(self, weights):
        for mode in ("classification", "regression"):
            with pytest.raises(DomainError, match="sample weights"):
                fit_tree(column([0, 1, 2, 3]), np.array([0, 1, 0, 1]),
                         sample_weight=weights, mode=mode)

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
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = node + 1 if go_left else tree.right[node]
            return tree.value[node]

        expected = np.array([walk(row) for row in probe])
        assert np.array_equal(tree.predict_value(probe), expected)

    def test_payload_round_trip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 4, 60)
        trees = [fit_tree(X, y, params=TreeParams(max_depth=depth),
                          mode="classification", n_classes=4) for depth in (4, 0, 2)]
        assert [t.node_count() > 1 for t in trees] == [True, False, True]
        trees_set = TreeSet.concat(trees)
        payload = trees_set.to_payload()
        stored = tree_lists(payload)
        splits = sum(int((t.feature >= 0).sum()) for t in trees)
        assert len(stored["threshold"]) == len(stored["right"]) == splits
        assert stored["right"] == [r for t in trees for r in t.right[t.feature >= 0].tolist()]
        assert len(stored["value"]) == 4 * (trees_set.feature.size - splits)
        clone = TreeSet.from_payload(payload, "classification", 4, 3)
        assert_same_arrays(trees_set, clone)
        probe = rng.normal(size=(20, 3))
        per_tree = clone.apply(probe, lambda values: values.swapaxes(0, 1))
        for i, tree in enumerate(trees):
            assert np.array_equal(tree.predict_value(probe), per_tree[:, i])

    def test_feature_beyond_stored_type_not_saved(self):
        # features are stored as int8; a split on column 150 must not wrap
        X = np.zeros((20, 200))
        X[10:, 150] = 1.0
        tree = fit_tree(X, (X[:, 150] > 0).astype(int), mode="classification")
        assert tree.feature[0] == 150
        with pytest.raises(DomainError, match="'feature' does not fit"):
            tree.to_payload()

    def test_encoding_a_stored_type_array_copies_it_no_more(self):
        # the base64 text (4/3 of the bytes) and its str (4/3 again) only
        a = np.random.default_rng(0).normal(size=(58731, 4))
        tracemalloc.start()
        try:
            text = _encode("value", a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * a.nbytes
        assert base64.b64decode(text) == a.tobytes()

    def test_packed_sets_unpack_into_their_concatenation(self):
        X = np.random.default_rng(3).normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0)
        trees = [fit_tree(X, y, params=TreeParams(max_depth=depth), mode="classification",
                          n_classes=3) for depth in (0, 1, 3)]
        sets = [TreeSet.concat(trees[:1]), TreeSet.concat(trees[1:])]
        packs = [s.packed() for s in sets]
        joined = TreeSet.unpacked(packs, (3,))
        assert packs == []
        assert_same_arrays(joined, TreeSet.concat(trees))

    def test_truncated_payload_rejected(self):
        payload = tree_payload({"nodes": [2], "feature": [0, -1], "threshold": [0.5],
                                "right": [2], "value": [1.0]})
        with pytest.raises(DataFormatError, match="right child"):
            TreeSet.from_payload(payload, "regression", None, 1)

    def test_extra_trees_thresholds_split_data(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(100, 4))
        y = (X[:, 1] > 0).astype(int)
        tree = fit_tree(X, y,
                        params=TreeParams(max_depth=6, random_thresholds=True),
                        mode="classification", n_classes=2,
                        rng=np.random.default_rng(1))
        assert (tree.predict(X) == y).mean() > 0.9


def reaching_rows(tree, X):
    """Boolean (n_nodes, n) mask of the training rows that reach each node;
    one forward pass, since children come after their parent."""
    reach = np.zeros((tree.node_count(), len(X)), dtype=bool)
    reach[0] = True
    for i in np.flatnonzero(tree.feature >= 0):
        left = X[:, tree.feature[i]] <= tree.threshold[i]
        reach[i + 1] = reach[i] & left
        reach[tree.right[i]] = reach[i] & ~left
    return reach


class TestLevelWiseGrower:
    """The one grower of every tree, under both split proposals: every open
    node of a level searched at once, the tree renumbered into preorder at
    the end."""

    @staticmethod
    def data(binary=False):
        rng = np.random.default_rng(11)
        X = rng.choice(np.linspace(-1, 1, 2 if binary else 7), size=(150, 4))
        if not binary:
            X[:, 3] = rng.normal(size=150)
        X[100:] = X[:50]  # duplicated rows, some with other labels
        y = ((X[:, 0] + X[:, 1] > 0).astype(int) + (rng.random(150) < 0.3)) % 3
        w = rng.uniform(0.5, 2.0, 150)
        return X, y, w / w.sum()

    # On two-valued features every threshold in [min, max) cuts where the
    # exhaustive search would, so a leaf stopped by min_impurity_decrease
    # can be checked against the exhaustive best split under either proposal.
    PARAMS = {
        "defaults": (TreeParams(random_thresholds=True), False),
        "deep_subsets": (TreeParams(max_depth=None, min_samples_split=5, max_features=2,
                                    random_thresholds=True), False),
        "min_decrease": (TreeParams(max_depth=5, min_impurity_decrease=0.004,
                                    random_thresholds=True), True),
        "exact_subsets": (TreeParams(max_depth=None, min_samples_split=5, max_features=2),
                          False),
        "exact_min_decrease": (TreeParams(max_depth=5, min_impurity_decrease=0.004), True),
    }

    @pytest.fixture(params=sorted(PARAMS))
    def grown(self, request):
        params, binary = self.PARAMS[request.param]
        X, y, w = self.data(binary)
        tree = fit_tree(X, y, w, params, mode="classification", n_classes=3,
                        rng=np.random.default_rng(5))
        assert tree.node_count() > 5
        return tree, X, y, w, params

    def test_splits_cut_inside_their_rows(self, grown):
        tree, X, y, w, params = grown
        reach = reaching_rows(tree, X)
        depth = depths(tree)
        for i in np.flatnonzero(tree.feature >= 0):
            x = X[reach[i], tree.feature[i]]
            assert x.min() <= tree.threshold[i] < x.max()
            assert reach[i + 1].any() and reach[tree.right[i]].any()
            assert reach[i].sum() >= params.min_samples_split
            assert params.max_depth is None or depth[i] < params.max_depth

    def test_split_decreases_meet_the_threshold(self, grown):
        tree, X, y, w, params = grown
        reach = reaching_rows(tree, X)

        def gini(rows):
            shares = np.bincount(y[rows], weights=w[rows], minlength=3) / w[rows].sum()
            return 1.0 - np.square(shares).sum()

        for i in np.flatnonzero(tree.feature >= 0):
            node, left, right = reach[i], reach[i + 1], reach[tree.right[i]]
            decrease = gini(node) - (w[left].sum() * gini(left)
                                     + w[right].sum() * gini(right)) / w[node].sum()
            assert decrease >= params.min_impurity_decrease - 1e-12

    def test_every_leaf_has_a_reason_to_stop(self, grown):
        tree, X, y, w, params = grown
        reach = reaching_rows(tree, X)
        d = X.shape[1]
        drawn = params.max_features or d
        for i in np.flatnonzero(tree.feature < 0):
            rows = reach[i]
            Xn = X[rows]
            spread = int((Xn.max(axis=0) > Xn.min(axis=0)).sum())
            values = np.zeros((rows.sum(), 4))
            values[np.arange(rows.sum()), y[rows]] = w[rows]
            values[:, 3] = w[rows]
            best = full_scan_split(Xn, values, "classification")
            assert (len(set(y[rows])) == 1
                    or rows.sum() < params.min_samples_split
                    or depths(tree)[i] == params.max_depth
                    or spread <= d - drawn  # every drawn feature may be constant
                    or 0 < best[2] < params.min_impurity_decrease), i
            shares = np.bincount(y[rows], weights=w[rows], minlength=3) / w[rows].sum()
            assert np.allclose(tree.value[i], shares, rtol=0, atol=1e-12)

    def test_payload_round_trip(self, grown):
        tree, X, y, w, params = grown
        clone = TreeSet.from_payload(tree.to_payload(), "classification", 3, 4)
        assert_same_arrays(tree, clone)
        assert np.array_equal(tree.predict_value(X),
                              clone.apply(X, lambda values: values[0]))

    def test_same_seed_same_tree(self, grown):
        tree, X, y, w, params = grown
        again = fit_tree(X, y, w, params, mode="classification", n_classes=3,
                         rng=np.random.default_rng(5))
        for name in ("feature", "threshold", "right", "value"):
            assert getattr(tree, name).tobytes() == getattr(again, name).tobytes()

    @pytest.mark.parametrize("kwargs", [{"mode": "regression"},
                                        {"leaf_value_fn": lambda rows: [0.5, 0.5]}],
                             ids=["regression", "leaf_value_fn"])
    def test_refused_combinations(self, kwargs):
        X, y, w = self.data()
        with pytest.raises(ConfigError, match="random thresholds"):
            fit_tree(X, y, w, TreeParams(random_thresholds=True),
                     rng=np.random.default_rng(0), **{"mode": "classification", **kwargs})


def full_scan_split(Xn, value_rows, mode):
    """The original split search, kept as the oracle: a stable float sort of
    every feature and an impurity score at every sorted position."""
    order = np.argsort(Xn, axis=0, kind="stable")
    xs = np.take_along_axis(Xn, order, axis=0)
    valid = xs[1:] > xs[:-1]
    if not valid.any():
        return None
    cum = np.cumsum(value_rows[order], axis=0)  # (m, f, C)
    total = cum[-1]
    left = cum[:-1]
    right = total[None, :, :] - left
    tot_w = total[:, -1]
    wl = left[:, :, -1]
    wr = right[:, :, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode == "classification":
            gini_left = 1.0 - np.square(left[:, :, :-1] / wl[..., None]).sum(axis=-1)
            gini_right = 1.0 - np.square(right[:, :, :-1] / wr[..., None]).sum(axis=-1)
            parent = 1.0 - np.square(total[:, :-1] / tot_w[:, None]).sum(axis=-1)
            decrease = parent[None, :] - (wl * gini_left + wr * gini_right) / tot_w[None, :]
        else:
            sse_parent = total[:, 1] - np.square(total[:, 0]) / tot_w
            sse_left = left[:, :, 1] - np.square(left[:, :, 0]) / wl
            sse_right = right[:, :, 1] - np.square(right[:, :, 0]) / wr
            decrease = (sse_parent[None, :] - sse_left - sse_right) / tot_w[None, :]
    decrease[~valid | ~np.isfinite(decrease)] = -np.inf
    best_pos = decrease.argmax(axis=0)
    per_feature = decrease[best_pos, np.arange(decrease.shape[1])]
    j = int(per_feature.argmax())
    if not np.isfinite(per_feature[j]):
        return None
    i = int(best_pos[j])
    threshold = (xs[i, j] + xs[i + 1, j]) / 2.0
    return j, float(threshold), float(per_feature[j])


def exact_split(Xn, node_codes, value_rows, mode):
    """`_best_split_exact` with its boundary rows turned into a threshold,
    as `fit_tree` does."""
    found = _best_split_exact(node_codes, value_rows, mode)
    if found is None:
        return None
    j, lo, hi, decrease = found
    return j, float((Xn[lo, j] + Xn[hi, j]) / 2.0), decrease


def split_values(mode, m, rng):
    """Random node statistics laid out as `fit_tree` builds them."""
    w = rng.uniform(0.05, 1.0, m) * rng.choice([1.0, 1e-6], m, p=[0.9, 0.1])
    if mode == "classification":
        y = rng.integers(0, 4, m)
        values = np.zeros((m, 5))
        values[np.arange(m), y] = w
        values[:, 4] = w
        return values
    y = rng.normal(size=m) * rng.choice([1.0, 1e3], m, p=[0.95, 0.05])
    return np.column_stack([w * y, w * y * y, w])


class TestExactSearch:
    @pytest.fixture(scope="class")
    def designs(self):
        records, _ = load_corpus(bundled_corpus_path())
        corpus = CorpusEncoder.fit(records).transform(records).data
        rng = np.random.default_rng(0)
        tied = rng.integers(0, 3, size=(400, 6)).astype(float)
        tied[:, 3] = tied[:, 1]  # identical columns score identical decreases
        tied[rng.random(400) < 0.3, 4] = -0.0  # signed zeros compare equal
        tied[:, 5] = np.where(rng.random(400) < 0.97, 1.0, 2.0)  # near-constant
        return [corpus, tied]

    @pytest.mark.parametrize("mode", ["classification", "regression"])
    def test_matches_full_scan_on_random_nodes(self, designs, mode):
        rng = np.random.default_rng(1 if mode == "classification" else 2)
        checked = 0
        for design in designs:
            codes, _ = column_codes(design)
            n, d = design.shape
            for _ in range(600):
                m = int(rng.choice([2, 3, int(rng.integers(4, 60)), int(rng.integers(60, n + 1))]))
                rows = rng.choice(n, size=m, replace=rng.random() < 0.3)
                size = d if rng.random() < 0.5 else int(rng.integers(1, d + 1))
                feats = np.sort(rng.choice(d, size=size, replace=False))
                Xn = design[np.ix_(rows, feats)]
                values = split_values(mode, m, rng)
                expected = full_scan_split(Xn, values, mode)
                assert exact_split(Xn, codes[np.ix_(feats, rows)], values, mode) == expected
                checked += expected is not None
        assert checked > 1000

    def test_column_codes_are_value_ranks(self):
        rng = np.random.default_rng(4)
        X = rng.choice([-2.0, -0.0, 0.0, 0.5, 1e300], size=(300, 4))
        codes, rank = column_codes(X)
        for j in range(4):
            assert (codes[j] == np.unique(X[:, j], return_inverse=True)[1]).all()
        rows = [tuple(row) for row in X]  # tuples compare lexicographically
        distinct = sorted(set(rows))
        assert rank.tolist() == [distinct.index(row) for row in rows]

    def test_wide_codes(self):
        # more distinct values than int16 can hold
        rng = np.random.default_rng(3)
        x = rng.permutation(40_000).astype(float) / 7.0
        y = np.sin(x) + (x > 3000.0)
        codes, _ = column_codes(x[:, None])
        assert codes.dtype != np.int16 and codes.max() == 39_999
        w = np.full(40_000, 1 / 40_000)
        values = np.column_stack([w * y, w * y * y, w])
        expected = full_scan_split(x[:, None], values, "regression")
        assert exact_split(x[:, None], codes, values, "regression") == expected
        tree = fit_tree(x[:, None], y, params=TreeParams(max_depth=1), mode="regression")
        assert (tree.feature[0], tree.threshold[0]) == expected[:2]

    def test_codes_of_other_rows_rejected(self):
        X = column([0, 1, 2, 3])
        with pytest.raises(DomainError, match="codes"):
            fit_tree(X, np.array([0, 0, 1, 1]), codes=column_codes(X[:3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            fit_tree(column([1, bad, 3, 4]), np.array([0, 1, 0, 1]))
