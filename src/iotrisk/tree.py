"""CART decision trees, grown together one depth level at a time.

Every tree -- random-forest members, GBDT stages, AdaBoost learners and
extra-trees -- is grown by one grower (`grow_trees`), in either mode:

* classification -- weighted Gini impurity, leaves hold class-probability
  vectors;
* regression -- weighted variance, leaves hold scalars (these trees carry
  the stages of the gradient-boosted ensemble).

The grower takes a group of trees, each with its own sample of the rows
of one shared matrix, its own targets and its own generator, and
advances all of them one depth level at a time.  Each level
proposes a split for every open node of every tree at once, as
extra-trees were defined (Geurts et al., 2006) and as XGBoost's
depthwise policy grows.  The stops (max_depth, min_samples_split,
purity, min_impurity_decrease), the per-node feature subsets, the leaf
values and the renumbering into preorder are shared; only the split
proposal differs.  Each tree draws from its own generator exactly what
it would draw grown alone, so a tree is the same in any group.

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
float sort and a full scan bit for bit.  A level's open nodes of up to
256 rows go into padded batches by power-of-two size bucket
(`_batched_splits`, the same arithmetic), where the measured crossover
for their rows x candidate features says a batch beats a call per node
(BATCH_FROM), each batch of at most BATCH_CELLS padded cells; every
other node gets its own `_best_split_exact` call.  A group's level holds
many times the small nodes of one tree's, so most of a forest's nodes
are searched in full batches.

The extra-trees proposal (`_random_splits`, classification only) draws one
uniform threshold per candidate feature in [min, max) of the node's rows
and scores the Gini decrease of all of them by one bincount.

Each tree puts its rows into a canonical order first, a three-key sort
(rank, target, weight), so a fit depends only on the row multiset, never
on input row order.  Input must be finite.

An ensemble holds its trees as one `TreeSet`, exactly the arrays its
model file stores (a threshold and right child per split; per leaf a
scalar, or for classification an index into a table of the set's
distinct probability rows, each stored once as in lossless forest
compression, Painsky & Rosset, 2016), and scores them in one traversal:
all (tree, row) pairs descend a level per step, as in Hummingbird
(Nakandala et al., 2020).  The grower returns its group as a `TreeSet`;
`fit_tree`, AdaBoost's learner, grows one exhaustive tree on every row as
a group of one and returns it as a `DecisionTree`, a set of one tree.
"""

import base64
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError


@dataclass
class TreeParams:
    max_depth: int | None = 6
    min_impurity_decrease: float = 0.0
    min_samples_split: int = 2
    max_features: int | None = None  # per-node random feature subset
    random_thresholds: bool = False  # extra-trees style split proposal


# The fewest open nodes that `_exact_splits` searches in one padded batch,
# by the batch's most cells per node (rows x candidate features): the
# measured crossover against a call per node.  Nodes of more cells, or of
# more than 256 rows, are never batched.
BATCH_FROM = {64: 4, 256: 5, 512: 6}
# A batch takes in the next size bucket while it pads fewer cells than
# MERGE_CELLS, about what one more batch's fixed cost buys (~200 us at
# 0.1-0.2 us per padded cell).  It holds at most BATCH_CELLS padded
# cells, about 0.45 MB of temporaries; the crossover runs found the cost
# per cell rising past 6,000-9,000 cells.
MERGE_CELLS = 1 << 10
BATCH_CELLS = 1 << 12

# (tree, row) pairs per traversal block, so a block's leaf payloads stay small
BLOCK_PAIRS = 1 << 14

# Each stored array is one base64 string of these little-endian items; a
# model file never names them, so changing one is a new model format.
# Features are int8 because a design is at most 10 columns wide; floats are
# stored whole, so a loaded model scores bit for bit as the fitted one.  A
# regression set stores ``value``, a classification set ``table`` and
# ``index``; the index is widened to WIDE_INDEX once its table holds more
# than INDEX_ROWS rows, so the table's length decides its type.
PAYLOAD_DTYPES = {"nodes": "<i4", "feature": "<i1", "threshold": "<f8",
                  "right": "<i4", "value": "<f8", "table": "<f8", "index": "<u2"}
INDEX_ROWS, WIDE_INDEX = 1 << 16, "<i4"


class TreeSet:
    """Fitted CART trees as one set of concatenated node arrays, the arrays
    a model file stores.

    ``nodes`` holds each tree's node count and ``feature`` one entry per
    node, -1 at leaves; ``threshold`` and ``right`` hold one entry per
    split.  The leaves, in node order, hold scalars in a regression set's
    ``value``; a classification set's ``value`` is None, its ``table``
    holds its distinct (K-wide) probability rows, compared by their bits,
    in order of first appearance, and ``index`` one table row per leaf.
    Nodes are in preorder within a tree, so a split's left child is the
    next node; ``right`` holds the tree-local index of its right child.
    ``start``, each tree's root, and ``splits_before``, the splits ahead of
    each node, are derived once per set: a split's entry is
    ``splits_before[i]``, a leaf's ``i - splits_before[i]``.
    """

    def __init__(self, nodes, feature, threshold, right, value=None, table=None, index=None):
        self.nodes, self.feature, self.threshold, self.right = nodes, feature, threshold, right
        self.value, self.table, self.index = value, table, index

    start = cached_property(lambda self: np.cumsum(self.nodes) - self.nodes)
    splits_before = cached_property(
        lambda self: np.cumsum(self.feature >= 0) - (self.feature >= 0))

    @classmethod
    def of_leaves(cls, nodes, feature, threshold, right, values) -> "TreeSet":
        """The set whose leaves hold ``values``, (leaves,) scalars or
        (leaves, K) probability rows."""
        if values.ndim == 1:
            return cls(nodes, feature, threshold, right, values)
        table, index = _distinct(values)
        return cls(nodes, feature, threshold, right, table=table, index=index)

    def leaf_values(self, leaves) -> np.ndarray:
        """The payloads of the leaves numbered ``leaves`` in leaf order."""
        return self.value[leaves] if self.table is None else self.table[self.index[leaves]]

    @classmethod
    def concat(cls, trees) -> "TreeSet":
        """The trees of an iterable of sets, in order, as one set (a
        `DecisionTree` is a set of one tree).  Each set is appended in place,
        so a forest grown tree by tree is never held twice; no view of the
        growing arrays exists, which lets them be resized.  Classification
        tables merge into their distinct rows in order and each index is
        remapped to the merged table, so a set's table stays its leaves'
        distinct rows in order of first appearance: forest ranges fitted
        apart join into the set one fit grows."""
        nodes, arrays, tables, rows = [], None, [], 0
        for tree in trees:
            leaves = tree.value if tree.table is None else tree.index + rows
            parts = (tree.feature, tree.threshold, tree.right, leaves)
            arrays = arrays or [np.empty((0,) + p.shape[1:], p.dtype) for p in parts]
            for array, part in zip(arrays, parts):
                start = len(array)
                array.resize((start + len(part),) + part.shape[1:], refcheck=False)
                array[start:] = part
            nodes.append(tree.nodes)
            if tree.table is not None:
                tables.append(tree.table)
                rows += len(tree.table)
        *arrays, leaves = arrays
        if not tables:
            return cls(np.concatenate(nodes), *arrays, leaves)
        table, place = _distinct(np.concatenate(tables))
        return cls(np.concatenate(nodes), *arrays, table=table, index=place[leaves])

    def take(self, trees) -> "TreeSet":
        """The set of the trees at indices ``trees``, in that order."""
        nodes = self.nodes[trees]
        shift = self.start[trees] - (np.cumsum(nodes) - nodes)
        at = np.repeat(shift, nodes) + np.arange(nodes.sum())  # the taken nodes
        feature, before = self.feature[at], self.splits_before[at]
        split = feature >= 0
        return TreeSet.of_leaves(nodes, feature, self.threshold[before[split]],
                                 self.right[before[split]], self.leaf_values((at - before)[~split]))

    def apply(self, matrix, combine, rows=None) -> np.ndarray:
        """``combine(values)`` per block of ``rows`` rows, by default about
        BLOCK_PAIRS (tree, row) pairs, stacked in row order; ``values`` holds
        the block's leaf payloads, (trees, rows, K) or (trees, rows), and
        combine reduces its tree axis."""
        X = np.ascontiguousarray(matrix, dtype=float)
        before = self.splits_before
        step = rows or max(1, BLOCK_PAIRS // self.nodes.size)
        blocks = (self._leaves(X[i:i + step], before) for i in range(0, max(len(X), 1), step))
        return np.concatenate([combine(self.leaf_values(leaf - before[leaf])) for leaf in blocks])

    def _leaves(self, X, before) -> np.ndarray:
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
            split = before[at]
            go_left = X.take(offset[pairs] + feature) <= self.threshold[split]
            node[pairs] = np.where(go_left, at + 1, root[pairs] + self.right[split])
        return node.reshape(self.nodes.size, n)

    def to_payload(self) -> dict:
        """Each array as base64 of its stored bytes (row-major, K numbers
        per table row)."""
        rows = 0 if self.table is None else len(self.table)
        return {key: _encode(key, getattr(self, key), rows)
                for key in PAYLOAD_DTYPES if getattr(self, key) is not None}

    @classmethod
    def from_payload(cls, payload: dict, mode: str, n_classes: int | None,
                     n_features: int) -> "TreeSet":
        """The set of `to_payload` output, checked in one pass: any array
        that does not decode, or does not describe non-empty trees over
        n_features columns with finite scalar leaves (regression) or leaves
        indexing a table of K-wide probability rows (classification), is a
        DataFormatError."""
        nodes, feature, right = (_decode(payload, k).astype(np.intp)
                                 for k in ("nodes", "feature", "right"))
        n = len(feature)
        if not nodes.size or ((nodes < 1) | (nodes > n)).any() or nodes.sum() != n:
            raise DataFormatError(f"tree node counts are not positive or do not sum to {n}")
        bad = feature[(feature < -1) | (feature >= n_features)]
        if bad.size:
            raise DataFormatError(f"split on feature {bad[0]}, outside [0, {n_features})")
        at = np.flatnonzero(feature >= 0)
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
        leaves = n - at.size
        if mode == "regression":
            values = _decode(payload, "value")
            if values.size != leaves:
                raise DataFormatError(f"tree regression leaf values hold {values.size} "
                                      f"numbers for {leaves} leaves")
        else:
            values = _decode(payload, "table")
            if n_classes < 1 or not values.size or values.size % n_classes:
                raise DataFormatError(f"tree classification leaf table holds {values.size} "
                                      f"numbers, not rows of {n_classes} classes")
            values = values.reshape(-1, n_classes)
            index = _decode(payload, "index", len(values)).astype(np.intp)
            if index.size != leaves:
                raise DataFormatError(f"tree classification leaf index holds {index.size} "
                                      f"entries for {leaves} leaves")
            bad = index[(index < 0) | (index >= len(values))]  # a wide index is signed
            if bad.size:
                raise DataFormatError(f"tree classification leaf index {bad[0]} is outside "
                                      f"its table of {len(values)} rows")
        if not (np.isfinite(threshold).all() and np.isfinite(values).all()):
            raise DataFormatError("tree split threshold or leaf value is not finite")
        if mode == "regression":
            return cls(nodes, feature, threshold, right, values)
        if (values < 0).any() or (abs(values.sum(axis=1) - 1) > 1e-9).any():
            raise DataFormatError("tree classification leaf is not a probability row: "
                                  "a value is negative or the row does not sum to 1")
        return cls(nodes, feature, threshold, right, table=values, index=index)


class DecisionTree(TreeSet):
    """One fitted CART tree, a set of one tree (node 0 is the root)."""

    def predict_value(self, matrix) -> np.ndarray:
        """Leaf payload per row: (n, K) probabilities or (n,) scalars."""
        return self.apply(matrix, lambda values: values[0])

    def node_count(self) -> int:
        return len(self.feature)


def _distinct(rows):
    """The distinct rows of a (n, K) float array, compared by their bits,
    in order of first appearance, and each row's place among them.  One
    sort of the rows' bytes, which takes ~10x less than np.unique(axis=0)."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)  # first appearance
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    return rows[first[order]], place[inverse]


def _item_type(key: str, table_rows: int) -> str:
    """The stored type of array ``key`` of a set whose table holds
    ``table_rows`` rows."""
    return WIDE_INDEX if key == "index" and table_rows > INDEX_ROWS else PAYLOAD_DTYPES[key]


def _encode(key: str, array: np.ndarray, table_rows: int = 0) -> str:
    """base64 of the array's stored bytes, encoded from its own buffer when
    it already has that type."""
    stored = np.ascontiguousarray(array.astype(_item_type(key, table_rows), copy=False))
    if stored is not array and not np.array_equal(stored, array, equal_nan=True):
        raise DomainError(f"tree {key!r} does not fit the stored type {stored.dtype}")
    return base64.b64encode(stored).decode("ascii")


def _decode(payload: dict, key: str, table_rows: int = 0) -> np.ndarray:
    text = payload[key]
    if not isinstance(text, str):
        raise DataFormatError(f"tree {key!r} is not a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataFormatError(f"tree {key!r} is not base64 ({exc})") from exc
    dtype = np.dtype(_item_type(key, table_rows))
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


def class_labels(labels, n_classes: int | None) -> tuple[np.ndarray, int]:
    """Integer class labels and their count K, n_classes or the largest
    label + 1; a label that is not a whole number in [0, K) is a
    DomainError that names it."""
    y = np.asarray(labels, dtype=float)
    bad = y[~np.isfinite(y) | (y != np.round(y))]  # 0.5, nan, inf
    if bad.size:
        raise DomainError(f"label {bad[0]} is not a whole class number")
    y = y.astype(int)
    K = int(n_classes) if n_classes is not None else int(y.max()) + 1
    bad = y[(y < 0) | (y >= K)]
    if bad.size:
        raise DomainError(f"label {bad[0]} is outside the {K} classes [0, {K})")
    return y, K


def column_codes(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Integer column codes and row ranks of a finite matrix.

    ``codes[j, r]`` is the index of ``X[r, j]`` among column j's sorted
    distinct values (int16 while every column has at most 32,767 of them),
    so a stable sort of a code row orders the rows exactly as a stable sort
    of the column does.  ``rank[r]`` is the row's place in X-lexicographic
    order, shared by identical rows.  An ensemble builds both once per fit
    and hands them to each `fit_tree` or `grow_trees` call; the grower
    takes the columns of its sample rows itself.
    """
    X = np.asarray(matrix, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise DomainError("tree input must be a non-empty 2-D matrix")
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


def _decreases(total, seq, left, mode):
    """Impurity decrease of each candidate boundary, -inf where it is not
    finite.  ``total`` holds the split statistics of each sorted row
    sequence, ``seq`` each boundary's sequence and ``left`` the statistics
    of the rows before it."""
    right = total[seq] - left
    tot_w = total[:, -1]
    wl = left[:, -1]
    wr = right[:, -1]
    # extreme weight skew can cancel a side's weight to exactly zero; such
    # positions are ruled out below rather than allowed to go NaN -> argmax
    # (grow_trees' np.errstate silences the division warnings)
    if mode == "classification":
        gini_left = 1.0 - np.square(left[:, :-1] / wl[:, None]).sum(axis=-1)
        gini_right = 1.0 - np.square(right[:, :-1] / wr[:, None]).sum(axis=-1)
        parent = 1.0 - np.square(total[:, :-1] / tot_w[:, None]).sum(axis=-1)
        decrease = parent[seq] - (wl * gini_left + wr * gini_right) / tot_w[seq]
    else:
        sse_parent = total[:, 1] - np.square(total[:, 0]) / tot_w
        sse_left = left[:, 1] - np.square(left[:, 0]) / wl
        sse_right = right[:, 1] - np.square(right[:, 0]) / wr
        decrease = (sse_parent[seq] - sse_left - sse_right) / tot_w[seq]
    decrease[~np.isfinite(decrease)] = -np.inf
    return decrease


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
    decrease = _decreases(cum[:, -1], feat, cum[feat, pos], mode)
    best = int(decrease.argmax())  # first max: lowest feature, then threshold
    if not np.isfinite(decrease[best]):
        return None
    j, i = int(feat[best]), int(pos[best])
    return j, int(order[j, i]), int(order[j, i + 1]), float(decrease[best])


def _batched_splits(codes, stats, rows, starts, sizes, nodes, feats, mode):
    """`_best_split_exact` of several nodes of a level in one pass.

    Each (node, candidate feature) pair is one row of an (S, L) code
    matrix, padded to the longest node with a code above every real one,
    so the same stable sort puts the padding last.  Padded cells gather
    the last row of ``stats``, which is zero, so each row's cumulative sum
    is the node's own followed by +0.0 additions; totals are read at the
    last real cell (-0.0 + 0.0 would be +0.0), and boundaries are scored
    only between two real cells, by `_decreases` as in `_best_split_exact`.
    One argmax per node over its (feature slot, position) grid keeps the
    first maximum, the same tie-break.  Returns per node the best decrease
    (-inf where none), its feature and the rows on either side of its
    boundary.
    """
    m = sizes[nodes]
    B, L = nodes.size, int(m.max())
    real = np.arange(L) < m[:, None]
    idx = np.full((B, L), len(stats) - 1)
    idx[real] = rows[(starts[nodes, None] + np.arange(L))[real]]
    d, n = codes.shape
    fs = np.broadcast_to(np.arange(d), (B, d)) if feats is None else feats[nodes]
    mf = fs.shape[1]
    cells = np.where(real[:, None], codes[fs[:, :, None], np.minimum(idx, n - 1)[:, None]],
                     np.iinfo(codes.dtype).max).reshape(B * mf, L)
    order = np.argsort(cells, axis=1, kind="stable")
    ranked = np.take_along_axis(cells, order, axis=1)
    ordered = np.take_along_axis(np.repeat(idx, mf, axis=0), order, axis=1)
    cum = np.cumsum(stats[ordered], axis=1)  # (S, L, C)
    last = np.repeat(m - 1, mf)
    total = cum[np.arange(B * mf), last]
    seq, pos = np.nonzero((ranked[:, 1:] != ranked[:, :-1]) & (np.arange(L - 1) < last[:, None]))
    decrease = _decreases(total, seq, cum[seq, pos], mode)
    grid = np.full((B, mf * (L - 1)), -np.inf)
    grid[seq // mf, seq % mf * (L - 1) + pos] = decrease
    best = grid.argmax(axis=1)  # first max: lowest feature slot, then threshold
    slot, at = np.divmod(best, L - 1)
    pick = np.arange(B) * mf + slot
    return grid[np.arange(B), best], fs[np.arange(B), slot], ordered[pick, at], ordered[pick, at + 1]


def _random_splits(X, node_y, node_w, K, rows, node, starts, feats, draws):
    """Extra-trees proposals (Geurts et al., 2006) for every node of a level.

    ``rows`` are the level's rows of X.  Per candidate feature a uniform
    of ``draws`` (nodes, candidates) places the threshold in [min, max) of
    the feature over the node's rows; left and right class sums come from
    one bincount over (node, feature, side, class), and each node takes its
    best Gini decrease, tie-broken toward the lowest feature index.  A
    candidate that leaves a side empty (no spread, or a threshold rounded
    up to the maximum) scores -inf.
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
    cut = lo + (hi - lo) * draws
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


@cache
def _fewest_batched(mf, table):
    """The fewest nodes of mf candidate features batched in each size
    bucket of up to 2^e rows, e = 0..8, by the (cells, fewest) table."""
    return tuple(next((fewest for top, fewest in table if mf << e <= top), math.inf)
                 for e in range(9))


def _exact_splits(X, src, codes, stats, rows, starts, sizes, open_, feats, mode):
    """The exhaustive best split of every open node of a level, its
    threshold the midpoint of the two values around the best boundary (the
    lower value where the midpoint rounds up to the upper); -inf where a
    node has none.  ``rows`` and ``codes`` number the sample rows, and
    ``src`` maps them to rows of X.

    Open nodes of up to 256 rows go into padded batches (`_batched_splits`)
    by size bucket, bucket e holding the nodes of 2^(e-1) + 1 to 2^e rows.
    Buckets are taken from the smallest up.  A batch closes at bucket e
    once it holds at least ``BATCH_FROM`` nodes for its cells per node
    (2^e rows x candidate features), unless the next non-empty bucket can
    join it and the batch pads fewer than MERGE_CELLS cells or that
    bucket's nodes are too few for a batch of their own.  It is searched
    in parts of at most BATCH_CELLS padded cells, smallest bucket first;
    every other open node gets its own `_best_split_exact` call.  Both
    give the same split bit for bit; the grouping only moves the cost.  A
    lone call costs a flat ~40 us of numpy overhead, which dominates a
    node of a few rows, while a batch costs about four lone calls plus
    ~0.1-0.2 us per padded cell.

    The crossover: the fewest nodes from which one batch beat a call per
    node at every larger count measured (up to 32 nodes), for nodes
    within the bucket / nodes of 2 rows up to the bucket's top; median of
    41 alternating runs per point, bundled corpus, 2-vCPU host.

        bucket rows      2    4    8    16   32   64    128  256
        3 features       3/3  3/3  3/3  3/3  3/3  3/4   4/5  never
        10 features      4/4  4/4  4/5  5/5  5/7  8/16  never never

    So BATCH_FROM asks 4 nodes up to 64 cells per node, 5 up to 256 and 6
    up to 512, and never batches more: at 640 cells a part of 4,096 cells
    holds only 6 nodes.  GBDT levels of 4-7 small nodes, which try all 10
    features, mostly stay per node.
    """
    nb = starts.size
    gain, feature, threshold = np.full(nb, -np.inf), np.full(nb, -1, dtype=np.intp), np.zeros(nb)
    mf = codes.shape[0] if feats is None else feats.shape[1]
    single = open_.copy()
    small = open_ & (sizes <= 256)
    if np.count_nonzero(small) >= min(BATCH_FROM.values()):
        bucket = np.frexp(sizes - 1)[1]  # 2^(e-1) < rows <= 2^e
        least = _fewest_batched(mf, tuple(BATCH_FROM.items()))
        counts = np.bincount(bucket[small], minlength=9).tolist()
        filled = [e for e in range(9) if counts[e]]
        low, count = 0, 0
        for e, up in zip(filled, filled[1:] + [None]):
            count += counts[e]  # the open nodes of buckets low..e
            if count < least[e] or up is not None and least[up] <= count + counts[up] and (
                    count * (mf << e) < MERGE_CELLS or counts[up] < least[up]):
                continue  # too few yet, or the next bucket joins
            nodes = np.flatnonzero(small & (bucket >= low) & (bucket <= e))
            nodes = nodes[np.argsort(bucket[nodes], kind="stable")]  # parts pad less
            low, count = e + 1, 0
            per_part = BATCH_CELLS // (mf * int(sizes[nodes].max()))
            for part in np.array_split(nodes, -(-nodes.size // per_part)):
                if part.size < least[e]:
                    continue
                best, f, lo, hi = _batched_splits(codes, stats, rows, starts, sizes, part,
                                                  feats, mode)
                single[part] = False
                found = np.isfinite(best)
                part, f = part[found], f[found]
                below, above = X[src[lo[found]], f], X[src[hi[found]], f]
                middle = (below + above) / 2.0
                gain[part], feature[part] = best[found], f
                threshold[part] = np.where(middle < above, middle, below)  # the rule below
    for i in single.nonzero()[0]:
        idx = rows[starts[i]:starts[i] + sizes[i]]
        node_codes = codes.take(idx, axis=1) if feats is None else codes[feats[i, :, None], idx]
        found = _best_split_exact(node_codes, stats[idx], mode)
        if found is not None:
            j, lo, hi, gain[i] = found
            f = feature[i] = j if feats is None else feats[i, j]
            below, above = X[src[idx[lo]], f], X[src[idx[hi]], f]
            middle = (below + above) / 2.0
            # the midpoint of two adjacent floats can round up to the upper one
            threshold[i] = middle if middle < above else below
    return gain, feature, threshold


@np.errstate(divide="ignore", invalid="ignore")
def grow_trees(X, codes, K, mode, params, samples, leaf_value_fn=None):
    """Grow a group of CART trees together, one depth level at a time.

    ``X`` is the shared C-contiguous matrix and ``codes`` its
    `column_codes`.  ``samples`` yields per tree (rows, y, w, rng): its
    sample as rows of X (a bootstrap repeats some), the target of each
    sample row (class ordinals below K, or regression targets), one
    positive weight per sample row, and the generator of its feature
    subsets and thresholds.  So the trees of a group may fit different
    targets on the same rows, as a GBDT stage's class trees do.  The
    sample rows of all trees are numbered in one sequence, tree by tree,
    and each tree puts its own in canonical order.  A level holds
    every tree's nodes at that depth, tree by tree, and each node is open
    when it is below max_depth and holds at least min_samples_split rows
    of more than one target value.  Per level each tree's rng first draws
    its nodes' feature subsets (argsort of one (nodes, d) uniform block,
    first max_features columns, sorted; no draw when every feature is a
    candidate), then, for random thresholds, one (nodes, max_features)
    block of threshold uniforms, so a tree grows as it would alone.  An
    open node splits when its best decrease is at least
    min_impurity_decrease; its rows go stably to the left child (value <=
    threshold), then the right.  Leaves take ``leaf_value_fn(rows)``, the
    node's sample numbers in the group's sequence (tree t's follow the
    sample rows of trees 0..t-1), or the weighted class shares / mean,
    summed per node in row order.  Returns the trees as one TreeSet and
    each tree's best root decrease (0.0 where the root found none).
    """
    n, d = X.shape
    codes, rank = codes
    mf = d if params.max_features is None else min(params.max_features, d)
    rows, y, w, rngs = zip(*samples)
    sizes = np.array([r.size for r in rows])
    # X row, target and weight of each sample row
    src, y, w = np.concatenate(rows), np.concatenate(y), np.concatenate(w)
    del rows  # a group holds its samples once
    tree = np.arange(sizes.size)  # each node's tree
    node = np.repeat(tree, sizes)  # each row's node within its level
    # Canonical row order per tree: X-lexicographic, ties resolved by target
    # and weight, so identical row multisets grow identical trees.  A stable
    # sort by (tree, rank) orders every row but identical ones of a tree,
    # which the three-key sort orders among themselves.
    key = node * n + rank[src]
    rows = np.argsort(key, kind="stable")
    key = key[rows]
    tie = np.zeros(src.size + 1, dtype=bool)
    tie[1:-1] = key[1:] == key[:-1]
    tie = tie[1:] | tie[:-1]
    if tie.any():
        tied = rows[tie]
        rows[tie] = tied[np.lexsort((w[tied], y[tied], key[tie]))]
    if not params.random_thresholds:
        # Last column is the weight itself, so one cumulative sum per node
        # yields all split statistics; the zero row after the sample rows
        # pads `_batched_splits`.
        stats = np.zeros((src.size + 1, K + 1 if mode == "classification" else 3))
        if mode == "classification":
            stats[np.arange(src.size), y] = w
            stats[:-1, K] = w
        else:
            stats[:-1] = np.column_stack([w * y, w * y * y, w])
        if src.size != n or (src != np.arange(n)).any():
            codes = codes.take(src, axis=1)
    levels = []  # (feature, threshold, value) per level, nodes in level order
    depth = 0
    while True:
        nb = sizes.size
        starts = sizes.cumsum() - sizes
        if mf < d or params.random_thresholds:  # each tree draws for its own nodes
            drawn = [(rng, count) for rng, count in
                     zip(rngs, np.bincount(tree, minlength=len(rngs)).tolist()) if count]
        feats = None
        if mf < d:
            block = np.concatenate([rng.random((count, d)) for rng, count in drawn])
            feats = np.sort(np.argsort(block, axis=1)[:, :mf], axis=1)
        node_y = y[rows]
        open_ = ((depth != params.max_depth) & (sizes >= params.min_samples_split)
                 & (np.minimum.reduceat(node_y, starts) < np.maximum.reduceat(node_y, starts)))
        if params.random_thresholds:
            draws = np.concatenate([rng.random((count, mf)) for rng, count in drawn])
            gain, f, threshold = _random_splits(X, node_y, w[rows], K, src[rows], node, starts,
                                                feats, draws)
        else:
            gain, f, threshold = _exact_splits(X, src, codes, stats, rows, starts, sizes, open_,
                                               feats, mode)
        if depth == 0:
            root_decrease = np.where(open_ & np.isfinite(gain), gain, 0.0)
        split = open_ & (gain >= params.min_impurity_decrease)
        feature = np.where(split, f, -1)
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
                sums = np.bincount(node * K + node_y, weights=node_w, minlength=nb * K)
                value = sums.reshape(nb, K) / weight[:, None]
            else:
                value = np.bincount(node, weights=stats[rows, 0], minlength=nb) / weight
        levels.append((feature, threshold, value))
        if not n_split:
            break
        # stable partition: each split node's rows go to its left child,
        # then its right child, in canonical order; children keep level order
        keep = split[node]
        rows, at = rows[keep], node[keep]
        child = (2 * split.cumsum() - 2)[at] + (X.take(src[rows] * d + feature[at]) > threshold[at])
        order = np.argsort(child, kind="stable")
        rows, node = rows[order], child[order]
        sizes = np.bincount(child, minlength=2 * n_split)
        tree = np.repeat(tree[split], 2)
        depth += 1
    return _preorder(levels), root_decrease


def _preorder(levels):
    """Level-order node arrays of a group of trees, the first level their
    roots, as one TreeSet with each tree in preorder.  A level's split
    nodes have the next level's nodes as children, (left, right) pairs in
    the order of their parents, so each level's preorder numbers follow
    from its parents' and the left subtrees' sizes; a tree's nodes follow
    the whole trees before it."""
    splits = [f >= 0 for f, _, _ in levels]
    subtree = [np.ones(s.size, dtype=np.intp) for s in splits]
    for i in reversed(range(len(levels) - 1)):
        subtree[i][splits[i]] += subtree[i + 1][0::2] + subtree[i + 1][1::2]
    nodes = subtree[0]
    pre = [nodes.cumsum() - nodes]
    right = np.full(int(nodes.sum()), -1, dtype=np.intp)
    for split, below in zip(splits, subtree[1:]):
        parents = pre[-1][split]
        children = np.repeat(parents + 1, 2)
        children[1::2] += below[0::2]
        right[parents] = children[1::2]
        pre.append(children)
    right -= np.repeat(pre[0], nodes)  # local to its tree
    order = np.argsort(np.concatenate(pre))
    feature, threshold, value = (np.concatenate(arrays)[order] for arrays in zip(*levels))
    split = feature >= 0
    return TreeSet.of_leaves(nodes, feature, threshold[split], right[split], value[~split])


def fit_tree(
    matrix,
    targets,
    sample_weight=None,
    params: TreeParams | None = None,
    mode: str = "classification",
    n_classes: int | None = None,
    codes: tuple[np.ndarray, np.ndarray] | None = None,
) -> DecisionTree:
    """Grow one exhaustive CART tree on every row, a group of one.

    A class label outside [0, K), K being n_classes or the largest label
    + 1, or a regression target that is not finite, is a DomainError.
    Random feature subsets or thresholds are a ConfigError: such trees
    grow through `grow_trees`, each from its own generator.  `codes` is
    `column_codes(matrix)`, built once by a caller that fits many trees on
    the same rows; without it the tree builds its own.
    """
    if mode not in ("classification", "regression"):
        raise ConfigError(f"unknown tree mode {mode!r}")
    params = params or TreeParams()
    if params.max_features is not None or params.random_thresholds:
        raise ConfigError("fit_tree searches every feature exhaustively; random feature "
                          "subsets and thresholds grow through grow_trees")
    X = np.ascontiguousarray(matrix, dtype=float)
    codes = column_codes(X) if codes is None else codes
    n, d = X.shape
    if codes[0].shape != (d, n) or codes[1].shape != (n,):
        raise DomainError("column codes do not match the matrix")
    y = np.asarray(targets)
    if y.shape != (n,):
        raise DomainError("targets must be one value per row")
    if mode == "classification":
        y, K = class_labels(y, n_classes)
    else:
        y, K = y.astype(float), None
        if not np.isfinite(y).all():
            raise DomainError("regression targets must be finite")
    sample = (np.arange(n), y, row_weights(sample_weight, n), None)
    grown = grow_trees(X, codes, K, mode, params, [sample])[0]
    return DecisionTree(grown.nodes, grown.feature, grown.threshold, grown.right, grown.value,
                        grown.table, grown.index)
