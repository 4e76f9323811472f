"""CART decision trees grown by exhaustive best-split search.

One grower serves both modes:

* classification -- weighted Gini impurity, leaves hold class-probability
  vectors;
* regression -- weighted variance, leaves hold scalars (these trees carry
  the stages of the gradient-boosted ensemble).

Split candidates are the midpoints between consecutive distinct sorted
values of a feature; rows with value <= threshold go left.  The accepted
split maximizes the weighted impurity decrease (normalized to the node's
own weight), tie-broken toward the lowest feature index and then the
lowest threshold.  Rows are put into a canonical order before growth, so a
fit depends only on the row multiset, never on input row order.
"""

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


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: object = None  # class-probability vector or scalar at leaves
    n_samples: int = 0
    decrease: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


class DecisionTree:
    """A fitted CART tree plus the parameters it was grown with."""

    def __init__(self, root: TreeNode, mode: str, n_classes: int | None, params: TreeParams):
        self.root = root
        self.mode = mode
        self.n_classes = n_classes
        self.params = params

    def predict_value(self, matrix) -> np.ndarray:
        """Leaf payload per row: (n, K) probabilities or (n,) scalars."""
        X = np.asarray(matrix, dtype=float)
        n = X.shape[0]
        if self.mode == "classification":
            out = np.empty((n, self.n_classes), dtype=float)
        else:
            out = np.empty(n, dtype=float)
        stack = [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def predict(self, matrix) -> np.ndarray:
        """Class labels (argmax with lowest-ordinal tie-break)."""
        if self.mode != "classification":
            raise DomainError("predict() is for classification trees")
        return np.argmax(self.predict_value(matrix), axis=1)

    def node_count(self) -> int:
        count, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return count

    def max_path_length(self) -> int:
        deepest, stack = 0, [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, depth)
            else:
                stack.append((node.left, depth + 1))
                stack.append((node.right, depth + 1))
        return deepest

    def to_preorder(self) -> list[dict]:
        """Flat preorder node list: {"f","t"} for splits, {"v"} for leaves."""
        items, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                value = node.value
                if isinstance(value, np.ndarray):
                    value = value.tolist()
                items.append({"v": value})
            else:
                items.append({"f": int(node.feature), "t": float(node.threshold)})
                stack.append(node.right)
                stack.append(node.left)
        return items

    @classmethod
    def from_preorder(
        cls, items: list[dict], mode: str, n_classes: int | None = None,
        n_features: int | None = None,
    ) -> "DecisionTree":
        """Rebuild a tree from `to_preorder` output.

        A split feature outside [0, n_features), a classification leaf
        without n_classes values, or a regression leaf that is not a
        scalar is a DataFormatError.
        """
        leaf_shape = () if mode == "regression" else (n_classes,)

        def make(item):
            if "v" in item:
                value = item["v"]
                if isinstance(value, list):
                    value = np.asarray(value, dtype=float)
                else:
                    value = float(value)
                if getattr(value, "shape", ()) != leaf_shape:
                    raise DataFormatError(
                        f"{mode} leaf has shape {np.shape(value)}, expected {leaf_shape}"
                    )
                return TreeNode(value=value)
            feature = int(item["f"])
            if n_features is not None and not 0 <= feature < n_features:
                raise DataFormatError(
                    f"split on feature {feature}, outside [0, {n_features})"
                )
            return TreeNode(feature=feature, threshold=float(item["t"]))

        if not items:
            raise DomainError("empty tree serialization")
        root = make(items[0])
        pending = [] if root.is_leaf else [root]
        for item in items[1:]:
            node = make(item)
            if not pending:
                raise DomainError("malformed tree serialization: dangling nodes")
            parent = pending[-1]
            if parent.left is None:
                parent.left = node
            else:
                parent.right = node
                pending.pop()
            if not node.is_leaf:
                pending.append(node)
        if pending:
            raise DomainError("truncated tree serialization")
        return cls(root=root, mode=mode, n_classes=n_classes, params=TreeParams())


def _best_split_sorted(Xn, value_rows, mode):
    """Exhaustive midpoint scan over every feature at once.

    value_rows carries the per-row split statistics with the sample weight
    in the last column: (m, K+1) weighted one-hot counts for classification
    or (m, 3) [w*y, w*y*y, w] for regression.  Returns (feature, threshold,
    decrease) or None when no boundary between distinct values exists.
    """
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
    # extreme weight skew can cancel a side's weight to exactly zero; such
    # positions are ruled out below rather than allowed to go NaN -> argmax
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
    best_pos = decrease.argmax(axis=0)  # first max: lowest threshold
    per_feature = decrease[best_pos, np.arange(decrease.shape[1])]
    j = int(per_feature.argmax())  # first max: lowest feature index
    if not np.isfinite(per_feature[j]):
        return None
    i = int(best_pos[j])
    threshold = (xs[i, j] + xs[i + 1, j]) / 2.0
    return j, float(threshold), float(per_feature[j])


def _best_split_random(Xn, value_rows, mode, rng):
    """One uniform-random threshold per feature (extra-trees proposal)."""
    lo = Xn.min(axis=0)
    hi = Xn.max(axis=0)
    spread = hi > lo
    if not spread.any():
        return None
    thresholds = rng.uniform(lo, hi)
    mask = Xn <= thresholds  # both sides non-empty wherever spread holds
    left = np.einsum("mk,mf->fk", value_rows, mask)
    total = value_rows.sum(axis=0)
    right = total[None, :] - left
    tot_w = total[-1]
    wl = left[:, -1]
    wr = right[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode == "classification":
            gini_left = 1.0 - np.square(left[:, :-1] / wl[:, None]).sum(axis=-1)
            gini_right = 1.0 - np.square(right[:, :-1] / wr[:, None]).sum(axis=-1)
            parent = 1.0 - np.square(total[:-1] / tot_w).sum()
            decrease = parent - (wl * gini_left + wr * gini_right) / tot_w
        else:
            sse_parent = total[1] - total[0] ** 2 / tot_w
            sse_left = left[:, 1] - np.square(left[:, 0]) / wl
            sse_right = right[:, 1] - np.square(right[:, 0]) / wr
            decrease = (sse_parent - sse_left - sse_right) / tot_w
    decrease[~spread | ~np.isfinite(decrease)] = -np.inf
    j = int(decrease.argmax())
    if not np.isfinite(decrease[j]):
        return None
    return j, float(thresholds[j]), float(decrease[j])


def fit_tree(
    matrix,
    targets,
    sample_weight=None,
    params: TreeParams | None = None,
    mode: str = "classification",
    n_classes: int | None = None,
    rng: np.random.Generator | None = None,
    leaf_value_fn=None,
) -> DecisionTree:
    """Grow a CART tree.

    `leaf_value_fn(row_indices)` overrides the default leaf payload
    (class-probability vector / weighted mean); it receives indices into
    the caller's row order.  `rng` drives the per-node feature subsets and
    the random thresholds, when enabled.
    """
    X = np.ascontiguousarray(matrix, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DomainError("fit_tree needs a non-empty 2-D matrix")
    if mode not in ("classification", "regression"):
        raise ConfigError(f"unknown tree mode {mode!r}")
    n, d = X.shape
    y = np.asarray(targets)
    if y.shape != (n,):
        raise DomainError("targets must be one value per row")
    if mode == "classification":
        y = y.astype(int)
        K = int(n_classes) if n_classes is not None else int(y.max()) + 1
    else:
        y = y.astype(float)
        K = None
    if sample_weight is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(sample_weight, dtype=float)
        if w.shape != (n,) or (w <= 0).any():
            raise DomainError("sample weights must be positive, one per row")
    params = params or TreeParams()
    if (params.max_features is not None or params.random_thresholds) and rng is None:
        raise ConfigError("random feature subsets / thresholds need an rng")

    # Canonical row order: ties in a feature column are resolved by target
    # and weight, so identical row multisets grow identical trees.
    keys = [w, y] + [X[:, j] for j in range(d - 1, -1, -1)]
    order0 = np.lexsort(tuple(keys))
    Xc, yc, wc = X[order0], y[order0], w[order0]

    # Last value column is the weight itself, so one cumulative sum per
    # node yields all split statistics.
    if mode == "classification":
        values = np.zeros((n, K + 1), dtype=float)
        values[np.arange(n), yc] = wc
        values[:, K] = wc
    else:
        values = np.column_stack([wc * yc, wc * yc * yc, wc])

    def leaf_payload(idx):
        if leaf_value_fn is not None:
            return leaf_value_fn(order0[idx])
        sums = values[idx].sum(axis=0)
        if mode == "classification":
            return sums[:-1] / sums[-1]
        return float(sums[0] / sums[-1])

    root = TreeNode()
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        node.n_samples = int(idx.size)
        split = None
        depth_ok = params.max_depth is None or depth < params.max_depth
        if depth_ok and idx.size >= params.min_samples_split:
            node_y = yc[idx]
            if not (node_y == node_y[0]).all():
                if params.max_features is not None and params.max_features < d:
                    feats = np.sort(rng.choice(d, size=params.max_features, replace=False))
                    Xn = Xc[idx][:, feats]
                else:
                    feats = None
                    Xn = Xc[idx]
                vn = values[idx]
                if params.random_thresholds:
                    split = _best_split_random(Xn, vn, mode, rng)
                else:
                    split = _best_split_sorted(Xn, vn, mode)
                if split is not None and feats is not None:
                    split = (int(feats[split[0]]), split[1], split[2])
        if split is None or split[2] < params.min_impurity_decrease:
            node.value = leaf_payload(idx)
            continue
        node.feature, node.threshold, node.decrease = split
        mask = Xc[idx, node.feature] <= node.threshold
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~mask], depth + 1))
        stack.append((node.left, idx[mask], depth + 1))
    return DecisionTree(root=root, mode=mode, n_classes=K, params=params)
