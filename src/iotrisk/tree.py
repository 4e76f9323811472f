"""CART decision trees, grown one depth level at a time.

Every tree -- random-forest members, GBDT stages, AdaBoost learners and
extra-trees -- is grown by one grower (`_grow`), in either mode:

* classification -- weighted Gini impurity, leaves hold class-probability
  vectors;
* regression -- weighted variance, leaves hold scalars (these trees carry
  the stages of the gradient-boosted ensemble).

Each level proposes a split for every open node at once, as extra-trees
were defined (Geurts et al., 2006) and as XGBoost's depthwise policy
grows.  The stops (max_depth, min_samples_split, purity,
min_impurity_decrease), the per-node feature subsets, the leaf values and
the renumbering into preorder are shared; only the split proposal differs.

The exhaustive proposal (`_exact_splits`) takes the midpoints between
consecutive distinct sorted values of a feature as candidates; rows with
value <= threshold go left.  The accepted split maximizes the weighted
impurity decrease (normalized to the node's own weight), tie-broken toward
the lowest feature index and then the lowest threshold.  The search is
exact greedy over presorted integer column codes, as in XGBoost's column
blocks: `column_codes` replaces every value by its index among its
column's sorted distinct values and ranks the rows in X-lexicographic
order, once per ensemble fit rather than once per tree.  Each node orders
its rows per feature by a stable radix sort of the int16 codes, and
impurity is scored only at value boundaries.  The arithmetic matches a
float sort and a full scan bit for bit.

The extra-trees proposal (`_random_splits`, classification only) draws one
uniform threshold per candidate feature in [min, max) of the node's rows
and scores the Gini decrease of all of them by one bincount.

The rows are put into a canonical order first, a three-key sort (rank,
target, weight), so a fit depends only on the row multiset, never on
input row order.  Input must be finite.

An ensemble holds its trees as one `TreeSet`, the node arrays its model
file stores, and scores them in one traversal: all (tree, row) pairs
descend a level per step, as in Hummingbird (Nakandala et al., 2020).
`fit_tree` returns a `DecisionTree`, a set of one tree.
"""

import base64
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError


@dataclass
class TreeParams:
    max_depth: int | None = 6
    min_impurity_decrease: float = 0.0
    min_samples_split: int = 2
    max_features: int | None = None  # per-node random feature subset
    random_thresholds: bool = False  # extra-trees style split proposal


# (tree, row) pairs per traversal block, so a block's leaf payloads stay small
BLOCK_PAIRS = 1 << 14

# Each stored array is one base64 string of these little-endian items; a
# model file never names them, so changing one is a new model format.
# Features are int8 because a design is at most 10 columns wide; floats are
# stored whole, so a loaded model scores bit for bit as the fitted one.
PAYLOAD_DTYPES = {"nodes": "<i4", "feature": "<i1", "threshold": "<f8",
                  "right": "<i4", "value": "<f8"}


class TreeSet:
    """Fitted CART trees as one set of concatenated node arrays.

    ``nodes`` holds each tree's node count; ``start``, each tree's root, is
    derived on use, so a fitted tree holds no more arrays than it needs.
    Nodes are in preorder within a tree, so a split's left child is the
    next node; ``right`` holds the tree-local index of its right child.
    ``feature`` and ``right`` are -1 at leaves; ``value`` holds (n_nodes, K)
    class probabilities or (n_nodes,) scalars, meaningful at leaves only.
    """

    def __init__(self, nodes, feature, threshold, right, value):
        self.nodes, self.feature, self.threshold, self.right, self.value = (
            nodes, feature, threshold, right, value)

    start = property(lambda self: np.cumsum(self.nodes) - self.nodes)

    @classmethod
    def concat(cls, trees) -> "TreeSet":
        """The trees of an iterable of sets, in order, as one set (a
        `DecisionTree` is a set of one tree).  Each set is appended in place,
        so a forest grown tree by tree is never held twice; no view of the
        growing arrays exists, which lets them be resized."""
        nodes, arrays = [], None
        for tree in trees:
            parts = (tree.feature, tree.threshold, tree.right, tree.value)
            arrays = arrays or [np.empty((0,) + p.shape[1:], p.dtype) for p in parts]
            start = len(arrays[0])
            for array, part in zip(arrays, parts):
                array.resize((start + len(part),) + part.shape[1:], refcheck=False)
                array[start:] = part
            nodes.append(tree.nodes)
        return cls(np.concatenate(nodes), *arrays)

    def apply(self, matrix, combine) -> np.ndarray:
        """``combine(values)`` per block of about BLOCK_PAIRS (tree, row) pairs,
        stacked in row order; ``values`` holds the block's leaf payloads,
        (trees, rows, K) or (trees, rows), and combine reduces its tree axis."""
        X = np.ascontiguousarray(matrix, dtype=float)
        step = max(1, BLOCK_PAIRS // self.nodes.size)
        return np.concatenate([combine(self.value[self._leaves(X[i:i + step])])
                               for i in range(0, max(len(X), 1), step)])

    def _leaves(self, X) -> np.ndarray:
        """The leaf every (tree, row) pair reaches, (trees, rows).  All
        pairs descend together, one level per step."""
        n, d = X.shape
        root = np.repeat(self.start, n)  # tree-major pairs
        offset = np.tile(np.arange(0, n * d, d), self.nodes.size)  # row start in flat X
        node, pairs = root.copy(), np.arange(root.size)
        while pairs.size:
            at = node[pairs]
            feature = self.feature[at]
            inner = feature >= 0
            pairs, at, feature = pairs[inner], at[inner], feature[inner]
            go_left = X.take(offset[pairs] + feature) <= self.threshold[at]
            node[pairs] = np.where(go_left, at + 1, root[pairs] + self.right[at])
        return node.reshape(self.nodes.size, n)

    def packed(self) -> dict:
        """The arrays a model file stores: ``threshold`` and ``right`` for
        splits only, ``value`` for leaves only."""
        split = self.feature >= 0
        return {"nodes": self.nodes, "feature": self.feature,
                "threshold": self.threshold[split], "right": self.right[split],
                "value": self.value[~split]}

    @classmethod
    def unpacked(cls, packs: list, leaf_shape: tuple) -> "TreeSet":
        """The sets whose `packed` arrays are in `packs`, joined in order;
        threshold is 0 and right -1 at leaves, value 0 at splits, as a fit
        leaves them.  `packs` is emptied, so each is dropped once placed."""
        nodes = np.concatenate([pack["nodes"] for pack in packs]).astype(np.intp)
        n = int(nodes.sum())
        feature, right = np.empty(n, np.intp), np.full(n, -1, np.intp)
        threshold, value = np.zeros(n), np.zeros((n,) + leaf_shape)
        start = 0
        while packs:
            pack = packs.pop(0)
            rows = slice(start, start + len(pack["feature"]))
            feature[rows] = pack["feature"]
            split = feature[rows] >= 0
            threshold[rows][split], right[rows][split] = pack["threshold"], pack["right"]
            value[rows][~split] = pack["value"].reshape((-1,) + leaf_shape)
            start = rows.stop
        return cls(nodes, feature, threshold, right, value)

    def to_payload(self) -> dict:
        """The `packed` arrays, each as base64 of its `PAYLOAD_DTYPES` bytes
        (row-major, K numbers per classification leaf)."""
        return {key: _encode(key, array) for key, array in self.packed().items()}

    @classmethod
    def from_payload(cls, payload: dict, mode: str, n_classes: int | None,
                     n_features: int) -> "TreeSet":
        """The set of `to_payload` output, checked in one pass: any array
        that does not decode, or does not describe non-empty trees over
        n_features columns with finite K-wide (classification) or scalar
        (regression) leaves, is a DataFormatError."""
        nodes, feature, right = (_decode(payload, k).astype(np.intp)
                                 for k in ("nodes", "feature", "right"))
        n = len(feature)
        if not nodes.size or ((nodes < 1) | (nodes > n)).any() or nodes.sum() != n:
            raise DataFormatError(f"tree node counts are not positive or do not sum to {n}")
        bad = feature[(feature < -1) | (feature >= n_features)]
        if bad.size:
            raise DataFormatError(f"split on feature {bad[0]}, outside [0, {n_features})")
        split = feature >= 0
        at = np.flatnonzero(split)
        threshold = _decode(payload, "threshold")
        if threshold.shape != at.shape or right.shape != at.shape:
            raise DataFormatError(f"tree arrays hold {threshold.size} thresholds and "
                                  f"{right.size} right children for {at.size} splits")
        # right is local to its tree; a left child is always the next node
        start = np.cumsum(nodes) - nodes
        tree_of = np.repeat(np.arange(nodes.size), nodes)[at]
        local = at - start[tree_of]
        if not ((right > local + 1) & (right < nodes[tree_of])).all():
            raise DataFormatError("tree right child not after its left child or past its tree")
        # children come after their parent within its tree, so no root is one
        parents = np.bincount(np.concatenate([at + 1, right + start[tree_of]]), minlength=n)
        parents[start] += 1
        if (parents != 1).any():
            raise DataFormatError("tree node without exactly one parent")
        leaf_shape = () if mode == "regression" else (n_classes,)
        leaf_values = _decode(payload, "value")
        expected = (n - at.size,) + leaf_shape
        if leaf_values.size != math.prod(expected):
            raise DataFormatError(f"tree {mode} leaf values hold {leaf_values.size} "
                                  f"numbers, expected shape {expected}")
        if not (np.isfinite(threshold).all() and np.isfinite(leaf_values).all()):
            raise DataFormatError("tree split threshold or leaf value is not finite")
        return cls.unpacked([{"nodes": nodes, "feature": feature, "threshold": threshold,
                              "right": right, "value": leaf_values}], leaf_shape)


class DecisionTree(TreeSet):
    """One fitted CART tree, a set of one tree (node 0 is the root).

    A tree grown by `fit_tree` also carries ``root_decrease``, the best
    impurity decrease its root search found (0.0 when the root was not
    searched or had no candidate split).  It is not serialized.
    """

    root_decrease: float | None = None

    def __init__(self, feature, threshold, right, value):
        super().__init__(np.array([feature.size]), feature, threshold, right, value)

    @classmethod
    def leaf(cls, value: float) -> "DecisionTree":
        """A one-node regression tree, as `fit_tree` stores a single leaf."""
        return cls(np.array([-1], dtype=np.intp), np.array([0.0]),
                   np.array([-1], dtype=np.intp), np.array([value], dtype=float))

    def predict_value(self, matrix) -> np.ndarray:
        """Leaf payload per row: (n, K) probabilities or (n,) scalars."""
        return self.apply(matrix, lambda values: values[0])

    def predict(self, matrix) -> np.ndarray:
        """Class labels (argmax with lowest-ordinal tie-break)."""
        if self.value.ndim != 2:
            raise DomainError("predict() is for classification trees")
        return np.argmax(self.predict_value(matrix), axis=1)

    def node_count(self) -> int:
        return len(self.feature)


def _encode(key: str, array: np.ndarray) -> str:
    """base64 of the array's `PAYLOAD_DTYPES` bytes, encoded from its own
    buffer when it already has that type."""
    stored = np.ascontiguousarray(array.astype(PAYLOAD_DTYPES[key], copy=False))
    if stored is not array and not np.array_equal(stored, array, equal_nan=True):
        raise DomainError(f"tree {key!r} does not fit the stored type {stored.dtype}")
    return base64.b64encode(stored).decode("ascii")


def _decode(payload: dict, key: str) -> np.ndarray:
    text = payload[key]
    if not isinstance(text, str):
        raise DataFormatError(f"tree {key!r} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataFormatError(f"tree {key!r} is not base64 ({exc})") from exc
    dtype = np.dtype(PAYLOAD_DTYPES[key])
    if len(raw) % dtype.itemsize:
        raise DataFormatError(f"tree {key!r} holds {len(raw)} bytes, not a multiple "
                              f"of its {dtype.itemsize}-byte items")
    return np.frombuffer(raw, dtype)


def row_weights(sample_weight, n: int) -> np.ndarray:
    """The fit's row weights: uniform 1/n by default, else checked to be
    finite, positive and one per row."""
    if sample_weight is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(sample_weight, dtype=float)
    if w.shape != (n,) or not (np.isfinite(w) & (w > 0)).all():
        raise DomainError("sample weights must be finite and positive, one per row")
    return w


def column_codes(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Integer column codes and row ranks of a finite matrix.

    ``codes[j, r]`` is the index of ``X[r, j]`` among column j's sorted
    distinct values (int16 while every column has at most 32,767 of them),
    so a stable sort of a code row orders the rows exactly as a stable sort
    of the column does.  ``rank[r]`` is the row's place in X-lexicographic
    order, shared by identical rows.  An ensemble builds both once per fit
    and hands them to each `fit_tree` call; a bootstrap sample passes
    ``(codes[:, rows], rank[rows])``.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise DomainError("fit_tree needs a non-empty 2-D matrix")
    if not np.isfinite(X).all():
        raise DomainError("tree input holds a non-finite value")
    n, d = X.shape
    columns = X.T.copy()
    # equal values sit together in any sorted order, so no stable sort is needed
    flat = np.argsort(columns, axis=1) + np.arange(0, n * d, n)[:, None]
    ordered = columns.take(flat)
    steps = np.zeros((d, n), dtype=np.intp)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=steps[:, 1:])
    levels = np.cumsum(steps, axis=1)
    narrow = levels[:, -1].max() < np.iinfo(np.int16).max  # <= 32,767 values
    codes = np.empty(n * d, dtype=np.int16 if narrow else np.int32)
    codes[flat] = levels
    codes = codes.reshape(d, n)
    order = np.lexsort(codes[::-1])  # column 0 is the primary key
    ranked = codes[:, order]
    fresh = (ranked[:, 1:] != ranked[:, :-1]).any(axis=0)
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.concatenate(([0], np.cumsum(fresh)))
    return codes, rank


def _best_split_exact(codes, value_rows, mode):
    """Exhaustive midpoint scan over every feature at once.

    codes is (f, m): the node's rows in canonical order, coded per feature
    by `column_codes`.  value_rows carries the per-row split statistics
    with the sample weight in the last column: (m, K+1) weighted one-hot
    counts for classification or (m, 3) [w*y, w*y*y, w] for regression.
    A stable radix sort of the codes orders each feature's rows; the
    statistics are summed cumulatively in that order, and the impurity
    decrease is scored only where the code changes, i.e. between two
    distinct values.  Returns (feature, lo, hi, decrease), where rows lo
    and hi hold the values on either side of the best boundary, or None
    when no boundary exists.
    """
    order = np.argsort(codes, axis=1, kind="stable")
    ranked = codes.take(order + np.arange(0, codes.size, codes.shape[1])[:, None])
    feat, pos = np.nonzero(ranked[:, 1:] != ranked[:, :-1])  # feature-major
    if not feat.size:
        return None
    cum = np.cumsum(value_rows.take(order, axis=0), axis=1)  # (f, m, C)
    total = cum[:, -1]
    left = cum[feat, pos]
    right = total[feat] - left
    tot_w = total[:, -1]
    wl = left[:, -1]
    wr = right[:, -1]
    # extreme weight skew can cancel a side's weight to exactly zero; such
    # positions are ruled out below rather than allowed to go NaN -> argmax
    # (fit_tree silences the division warnings once per tree)
    if mode == "classification":
        gini_left = 1.0 - np.square(left[:, :-1] / wl[:, None]).sum(axis=-1)
        gini_right = 1.0 - np.square(right[:, :-1] / wr[:, None]).sum(axis=-1)
        parent = 1.0 - np.square(total[:, :-1] / tot_w[:, None]).sum(axis=-1)
        decrease = parent[feat] - (wl * gini_left + wr * gini_right) / tot_w[feat]
    else:
        sse_parent = total[:, 1] - np.square(total[:, 0]) / tot_w
        sse_left = left[:, 1] - np.square(left[:, 0]) / wl
        sse_right = right[:, 1] - np.square(right[:, 0]) / wr
        decrease = (sse_parent[feat] - sse_left - sse_right) / tot_w[feat]
    decrease[~np.isfinite(decrease)] = -np.inf
    best = int(decrease.argmax())  # first max: lowest feature, then threshold
    if not np.isfinite(decrease[best]):
        return None
    j, i = int(feat[best]), int(pos[best])
    return j, int(order[j, i]), int(order[j, i + 1]), float(decrease[best])


def _random_splits(X, node_y, node_w, K, rows, node, starts, feats, rng):
    """Extra-trees proposals (Geurts et al., 2006) for every node of a level.

    Per candidate feature the rng draws one uniform placing the threshold
    in [min, max) of the feature over the node's rows; left and right class
    sums come from one bincount over (node, feature, side, class), and each
    node takes its best Gini decrease, tie-broken toward the lowest feature
    index.  A candidate that leaves a side empty (no spread, or a threshold
    rounded up to the maximum) scores -inf.
    """
    nb = starts.size
    sums = np.bincount(node * K + node_y, weights=node_w, minlength=nb * K).reshape(nb, K)
    weight = sums.sum(axis=1)
    if feats is None:
        feats = np.broadcast_to(np.arange(X.shape[1]), (nb, X.shape[1]))
        xs = X[rows]
    else:
        xs = X[rows[:, None], feats[node]]
    mf = feats.shape[1]
    lo = np.minimum.reduceat(xs, starts, axis=0)
    hi = np.maximum.reduceat(xs, starts, axis=0)
    cut = lo + (hi - lo) * rng.random((nb, mf))
    key = ((node[:, None] * mf + np.arange(mf)) * 2 + (xs > cut[node])) * K + node_y[:, None]
    side = np.bincount(key.ravel(), weights=np.repeat(node_w, mf),
                       minlength=nb * mf * 2 * K).reshape(nb, mf, 2, K)
    side_w = side.sum(axis=3)
    gini = 1.0 - np.square(side / side_w[..., None]).sum(axis=3)
    parent = 1.0 - np.square(sums / weight[:, None]).sum(axis=1)
    decrease = parent[:, None] - (side_w * gini).sum(axis=2) / weight[:, None]
    decrease[~(hi > lo) | ~np.isfinite(decrease)] = -np.inf
    pick = np.arange(nb), decrease.argmax(axis=1)  # first max: lowest feature index
    return decrease[pick], feats[pick], cut[pick]


def _exact_splits(X, codes, stats, rows, starts, sizes, open_, feats, mode):
    """The exhaustive best split of every open node of a level, one
    `_best_split_exact` call each, its threshold the midpoint of the two
    values around the best boundary (the lower value where the midpoint
    rounds up to the upper); -inf where a node has none."""
    nb = starts.size
    gain, feature, threshold = np.full(nb, -np.inf), np.full(nb, -1, dtype=np.intp), np.zeros(nb)
    for i in open_.nonzero()[0]:
        idx = rows[starts[i]:starts[i] + sizes[i]]
        node_codes = codes.take(idx, axis=1) if feats is None else codes[feats[i, :, None], idx]
        found = _best_split_exact(node_codes, stats[idx], mode)
        if found is not None:
            j, lo, hi, gain[i] = found
            f = feature[i] = j if feats is None else feats[i, j]
            below, above = X[idx[lo], f], X[idx[hi], f]
            middle = (below + above) / 2.0
            # the midpoint of two adjacent floats can round up to the upper one
            threshold[i] = middle if middle < above else below
    return gain, feature, threshold


def _grow(X, codes, y, w, K, mode, params, rng, leaf_value_fn, rows):
    """CART growth one depth level at a time, every node of a level at once.

    ``rows`` is grouped by node, each group in canonical order.  A node
    below max_depth is open when it holds at least min_samples_split rows
    of more than one target value.  Per level the tree's rng first draws
    the nodes' feature subsets (argsort of one (nodes, d) uniform block,
    first max_features columns, sorted; no draw when every feature is a
    candidate), then the split proposal scores the nodes (`_random_splits`
    or `_exact_splits`).  An open node splits when its best decrease is at
    least min_impurity_decrease; its rows go stably to the left child
    (value <= threshold), then the right.  Leaves take
    ``leaf_value_fn(rows)`` or the weighted class shares / mean, summed per
    node in row order.  Returns preorder node arrays and the root's best
    decrease.
    """
    n, d = X.shape
    mf = d if params.max_features is None else min(params.max_features, d)
    # Last column is the weight itself, so one cumulative sum per node
    # yields all split statistics.
    if mode == "classification":
        stats = np.zeros((n, K + 1))
        stats[np.arange(n), y] = w
        stats[:, K] = w
    else:
        stats = np.column_stack([w * y, w * y * y, w])
    sizes = np.array([n])
    node = np.zeros(n, dtype=np.intp)  # each row's node within its level
    levels = []  # (feature, threshold, value) per level, nodes in level order
    root_decrease = 0.0
    depth = 0
    while True:
        nb = sizes.size
        starts = sizes.cumsum() - sizes
        feats = (np.sort(np.argsort(rng.random((nb, d)), axis=1)[:, :mf], axis=1)
                 if mf < d else None)
        node_y = y[rows]
        open_ = ((depth != params.max_depth) & (sizes >= params.min_samples_split)
                 & (np.minimum.reduceat(node_y, starts) < np.maximum.reduceat(node_y, starts)))
        if params.random_thresholds:
            gain, f, t = _random_splits(X, node_y, w[rows], K, rows, node, starts, feats, rng)
        else:
            gain, f, t = _exact_splits(X, codes, stats, rows, starts, sizes, open_, feats, mode)
        if depth == 0 and open_[0] and np.isfinite(gain[0]):
            root_decrease = float(gain[0])
        split = open_ & (gain >= params.min_impurity_decrease)
        feature, threshold = np.where(split, f, -1), np.where(split, t, 0.0)
        n_split = np.count_nonzero(split)
        value = np.zeros((nb, K) if mode == "classification" else nb)
        if leaf_value_fn is not None:
            for i in (~split).nonzero()[0]:
                value[i] = leaf_value_fn(rows[starts[i]:starts[i] + sizes[i]])
        elif n_split < nb:
            # bincount adds each node's rows one by one in row order, as a
            # running total over the node would
            node_w = w[rows]
            weight = np.bincount(node, weights=node_w, minlength=nb)
            if mode == "classification":
                sums = np.bincount(node * K + y[rows], weights=node_w, minlength=nb * K)
                value = sums.reshape(nb, K) / weight[:, None]
            else:
                value = np.bincount(node, weights=stats[rows, 0], minlength=nb) / weight
            value[split] = 0.0
        levels.append((feature, threshold, value))
        if not n_split:
            break
        # stable partition: each split node's rows go to its left child,
        # then its right child, in canonical order; children keep level order
        keep = split[node]
        rows, at = rows[keep], node[keep]
        child = (2 * split.cumsum() - 2)[at] + (X.take(rows * d + feature[at]) > threshold[at])
        order = np.argsort(child, kind="stable")
        rows, node = rows[order], child[order]
        sizes = np.bincount(child, minlength=2 * n_split)
        depth += 1
    return _preorder(levels) + (root_decrease,)


def _preorder(levels):
    """Level-order node arrays renumbered into preorder: a level's split
    nodes have the next level's nodes as children, (left, right) pairs in
    the order of their parents, so each level's preorder numbers follow
    from its parents' and the left subtrees' sizes."""
    splits = [f >= 0 for f, _, _ in levels]
    subtree = [np.ones(s.size, dtype=np.intp) for s in splits]
    for i in reversed(range(len(levels) - 1)):
        subtree[i][splits[i]] += subtree[i + 1][0::2] + subtree[i + 1][1::2]
    pre = [np.zeros(1, dtype=np.intp)]
    right = np.full(int(subtree[0][0]), -1, dtype=np.intp)
    for split, below in zip(splits, subtree[1:]):
        parents = pre[-1][split]
        children = np.repeat(parents + 1, 2)
        children[1::2] += below[0::2]
        right[parents] = children[1::2]
        pre.append(children)
    order = np.argsort(np.concatenate(pre))
    feature, threshold, value = (np.concatenate(arrays)[order] for arrays in zip(*levels))
    return feature, threshold, right, value


def fit_tree(
    matrix,
    targets,
    sample_weight=None,
    params: TreeParams | None = None,
    mode: str = "classification",
    n_classes: int | None = None,
    rng: np.random.Generator | None = None,
    leaf_value_fn=None,
    codes: tuple[np.ndarray, np.ndarray] | None = None,
) -> DecisionTree:
    """Grow a CART tree, one depth level at a time (`_grow`).

    `leaf_value_fn(row_indices)` overrides the default leaf payload
    (class-probability vector / weighted mean, summed in row order); it
    receives indices into the caller's row order and is called once per
    leaf, and the leaves partition the rows.  `rng` draws the feature
    subsets, one (nodes, d) uniform block per level, and the random
    thresholds, when enabled.  `codes` is `column_codes(matrix)`, built
    once by a caller that fits many trees on the same rows; without it the
    tree builds its own.  Random thresholds grow classification trees with
    class-share leaves only.
    """
    if mode not in ("classification", "regression"):
        raise ConfigError(f"unknown tree mode {mode!r}")
    X = np.ascontiguousarray(matrix, dtype=float)
    codes, rank = column_codes(X) if codes is None else codes
    n, d = X.shape
    if codes.shape != (d, n) or rank.shape != (n,):
        raise DomainError("column codes do not match the matrix")
    y = np.asarray(targets)
    if y.shape != (n,):
        raise DomainError("targets must be one value per row")
    if mode == "classification":
        y = y.astype(int)
        K = int(n_classes) if n_classes is not None else int(y.max()) + 1
    else:
        y = y.astype(float)
        K = None
    w = row_weights(sample_weight, n)
    params = params or TreeParams()
    if (params.max_features is not None or params.random_thresholds) and rng is None:
        raise ConfigError("random feature subsets / thresholds need an rng")
    if params.random_thresholds and (mode != "classification" or leaf_value_fn is not None):
        raise ConfigError("random thresholds grow classification trees with "
                          "class-share leaves only")

    # Canonical row order: X-lexicographic, ties resolved by target and
    # weight, so identical row multisets grow identical trees.
    rows = np.lexsort((w, y, rank))
    with np.errstate(divide="ignore", invalid="ignore"):
        *arrays, root_decrease = _grow(X, codes, y, w, K, mode, params, rng,
                                       leaf_value_fn, rows)
    tree = DecisionTree(*arrays)
    tree.root_decrease = root_decrease
    return tree
