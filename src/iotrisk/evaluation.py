"""Repeated stratified k-fold cross-validation, stratified splits,
multiclass metrics at per-class / macro / micro level, exhaustive grid
search, and per-feature ablation."""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .ensemble import ModelSpec, fit_model, model_members
from .errors import ConfigError, DomainError, EvaluationError
from .nvd import RISK_CLASSES, RiskClass
from .util import derived_seed, largest_remainder, run_cells


def _class_name(ordinal: int) -> str:
    try:
        return RiskClass(ordinal).name
    except ValueError:
        return str(ordinal)


@dataclass
class FoldPlan:
    """Per repeat, a fold index for every row; a pure function of
    (labels, k, repeats, seed)."""

    k: int
    repeats: int
    assignments: list[np.ndarray]

    def test_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repeat] == fold)

    def train_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repeat] != fold)


def make_fold_plan(labels, k: int, repeats: int, seed: int) -> FoldPlan:
    """Deal each class's shuffled rows round-robin into k folds.

    The dealing pointer continues across classes, so fold sizes stay
    within one of each other while every fold's per-class count is within
    one of n_c / k.
    """
    labels = np.asarray(labels, dtype=int)
    if k < 2:
        raise DomainError("k must be >= 2")
    if repeats < 1:
        raise DomainError("repeats must be >= 1")
    counts = np.bincount(labels)
    for ordinal, count in enumerate(counts):
        if 0 < count < k:
            raise DomainError(
                f"class {_class_name(ordinal)} has {count} rows, fewer than k={k}"
            )
    assignments = []
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        fold_of = np.empty(len(labels), dtype=int)
        pointer = 0
        for ordinal in range(len(counts)):
            idx = np.flatnonzero(labels == ordinal)
            if idx.size == 0:
                continue
            rng.shuffle(idx)
            fold_of[idx] = (pointer + np.arange(idx.size)) % k
            pointer = (pointer + idx.size) % k
        assignments.append(fold_of)
    return FoldPlan(k=k, repeats=repeats, assignments=assignments)


def stratified_split(labels, test_fraction: float, seed: int):
    """Disjoint, covering (train_indices, test_indices).

    Per-class test counts are the largest-remainder rounding of
    n_c * test_fraction; each class must keep at least one row on both
    sides.
    """
    labels = np.asarray(labels, dtype=int)
    if not 0.0 < test_fraction < 1.0:
        raise DomainError("test fraction must be inside (0, 1)")
    counts = np.bincount(labels)
    present = np.flatnonzero(counts)
    targets = counts[present] * test_fraction
    total_test = int(np.floor(len(labels) * test_fraction + 0.5))
    test_counts = largest_remainder(targets, total_test)
    for ordinal, take in zip(present, test_counts):
        if take < 1 or take >= counts[ordinal]:
            raise DomainError(
                f"fraction {test_fraction} leaves class {_class_name(int(ordinal))} "
                "empty on one side"
            )
    rng = np.random.default_rng(seed)
    test_parts = []
    for ordinal, take in zip(present, test_counts):
        idx = np.flatnonzero(labels == ordinal)
        rng.shuffle(idx)
        test_parts.append(idx[:take])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(len(labels), dtype=bool)
    mask[test_idx] = False
    return np.flatnonzero(mask), test_idx


def macro_average(values) -> float:
    """Unweighted mean over classes."""
    return float(np.mean(np.asarray(values, dtype=float)))


@dataclass
class MetricsReport:
    """Confusion matrix (rows true, columns predicted) plus the per-class,
    macro and micro precision/recall/F1 and accuracy."""

    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float
    accuracy: float
    zero_division: tuple[tuple[int, str], ...] = ()


def compute_metrics(true_labels, predicted_labels) -> MetricsReport:
    """Per-class precision/recall/F1 over the four risk classes, with macro
    (unweighted class mean) and micro (pooled counts) aggregation.

    A zero denominator yields 0 for the affected metric and is flagged as
    (class ordinal, metric name).
    """
    y_true = np.asarray(true_labels, dtype=int)
    y_pred = np.asarray(predicted_labels, dtype=int)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise DomainError("label vectors must be non-empty and equally long")
    n_classes = len(RISK_CLASSES)
    confusion = np.bincount(
        y_true * n_classes + y_pred, minlength=n_classes * n_classes
    ).reshape(n_classes, n_classes)
    tp = np.diag(confusion).astype(float)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp

    flags = []
    precision = np.zeros(n_classes)
    recall = np.zeros(n_classes)
    f1 = np.zeros(n_classes)
    for c in range(n_classes):
        if tp[c] + fp[c] > 0:
            precision[c] = tp[c] / (tp[c] + fp[c])
        else:
            flags.append((c, "precision"))
        if tp[c] + fn[c] > 0:
            recall[c] = tp[c] / (tp[c] + fn[c])
        else:
            flags.append((c, "recall"))
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])

    pooled_tp = tp.sum()
    micro_precision = pooled_tp / (pooled_tp + fp.sum())
    micro_recall = pooled_tp / (pooled_tp + fn.sum())
    if micro_precision + micro_recall > 0:
        micro_f1 = 2 * micro_precision * micro_recall / (micro_precision + micro_recall)
    else:
        micro_f1 = 0.0
    return MetricsReport(
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=macro_average(precision),
        macro_recall=macro_average(recall),
        macro_f1=macro_average(f1),
        micro_precision=float(micro_precision),
        micro_recall=float(micro_recall),
        micro_f1=float(micro_f1),
        accuracy=float(np.trace(confusion) / confusion.sum()),
        zero_division=tuple(flags),
    )


CV_METRICS = ("accuracy", "macro_f1")


@dataclass
class CvResult:
    """Per-evaluation scores in (repeat, fold) order: R1-F1 .. R2-Fk."""

    accuracies: np.ndarray
    mean: float
    std: float
    fold_labels: tuple[str, ...]


def cross_validate(runs, labels, plan: FoldPlan, metric: str = "accuracy",
                   threads: int = 1) -> list[CvResult]:
    """Cross-validate each (spec, matrix) run: train on k-1 folds and score
    the held-out fold, for every (repeat, fold).  The cells of every run
    go to one `run_cells` call of `threads` worker processes, ordered
    (run, repeat, fold).  Each evaluation derives its own seed from (spec
    seed, repeat, fold).  Accuracy is the default score; macro_f1 is
    available for imbalance-sensitive selection.  A spec `model_members`
    refuses is a ConfigError before any cell runs."""
    if metric not in CV_METRICS:
        raise ConfigError(f"metric must be one of {'/'.join(CV_METRICS)}")
    y = np.asarray(labels, dtype=int)
    runs = [(spec, np.asarray(matrix, dtype=float)) for spec, matrix in runs]
    for spec, _ in runs:
        model_members(spec)  # a bad spec fails here, not inside every cell
    if any(len(plan.assignments[0]) != X.shape[0] for _, X in runs):
        raise DomainError("fold plan does not match the matrix rows")
    cells = [(r, f) for r in range(plan.repeats) for f in range(plan.k)]

    def score(index: int) -> float:
        run, cell = divmod(index, len(cells))
        spec, X = runs[run]
        repeat, fold = cells[cell]
        train = plan.train_indices(repeat, fold)
        test = plan.test_indices(repeat, fold)
        eval_spec = ModelSpec(
            spec.family, dict(spec.params), derived_seed(spec.seed, repeat, fold)
        )
        try:
            model = fit_model(eval_spec, X[train], y[train])
        except Exception as exc:
            raise EvaluationError(
                f"training failed on repeat {repeat + 1} fold {fold + 1}: {exc}"
            ) from exc
        predicted = model.predict(X[test])
        if metric == "macro_f1":
            return compute_metrics(y[test], predicted).macro_f1
        return float((predicted == y[test]).mean())

    scores = run_cells(score, len(runs) * len(cells), threads, died=EvaluationError)
    results = []
    for start in range(0, len(scores), len(cells)):
        run_scores = np.array(scores[start:start + len(cells)])
        results.append(CvResult(
            accuracies=run_scores,
            mean=float(run_scores.mean()),
            std=float(run_scores.std()),
            fold_labels=tuple(f"R{r + 1}-F{f + 1}" for r, f in cells),
        ))
    return results


@dataclass
class TuneResult:
    """Every configuration's CV mean/std, plus the deterministic winner."""

    configs: list[dict]
    means: np.ndarray
    stds: np.ndarray
    winner_index: int
    ranking: list[int]  # indices by descending mean, stable
    metric: str = "accuracy"

    @property
    def winner(self) -> dict:
        return self.configs[self.winner_index]


def grid_configs(family: str, grid: dict[str, list],
                 base_params: dict | None = None) -> list[dict]:
    """Every configuration of a grid, in lexicographic order of the grid as
    given, each checked as a `family` spec over base_params, so that a bad
    grid fails before any data is encoded or cross-validated."""
    if not grid:
        raise ConfigError("empty parameter grid")
    for name, choices in grid.items():
        if not choices:
            raise ConfigError(f"grid entry {name!r} has no values")
    configs = [dict(zip(grid, combo)) for combo in product(*grid.values())]
    for config in configs:
        model_members(ModelSpec(family, {**(base_params or {}), **config}))
    return configs


def grid_search(
    family: str,
    grid: dict[str, list],
    matrix,
    labels,
    plan: FoldPlan,
    seed: int = 0,
    base_params: dict | None = None,
    metric: str = "accuracy",
    threads: int = 1,
) -> TuneResult:
    """Exhaustively cross-validate every configuration of the grid, all
    (configuration, repeat, fold) cells across one set of `threads`
    worker processes.

    Configurations enumerate as `grid_configs` gives them; the winner
    maximizes the mean selection metric (accuracy by default,
    macro_f1 behind the flag), ties resolved to the earliest configuration.
    """
    configs = grid_configs(family, grid, base_params)
    runs = [(ModelSpec(family, {**(base_params or {}), **config},
                       derived_seed(seed, index)), matrix)
            for index, config in enumerate(configs)]
    results = cross_validate(runs, labels, plan, metric, threads=threads)
    means = np.array([r.mean for r in results])
    stds = np.array([r.std for r in results])
    winner = int(means.argmax())  # first maximum: earliest config
    ranking = sorted(range(len(configs)), key=lambda i: (-means[i], i))
    return TuneResult(
        configs=configs, means=means, stds=stds,
        winner_index=winner, ranking=ranking, metric=metric,
    )


@dataclass
class AblationEntry:
    feature: str
    mean: float
    delta: float


@dataclass
class AblationReport:
    baseline_mean: float
    baseline_std: float
    entries: list[AblationEntry] = field(default_factory=list)


def ablation_study(
    spec: ModelSpec,
    matrix,
    labels,
    plan: FoldPlan,
    feature_names=None,
    threads: int = 1,
) -> AblationReport:
    """Re-run cross-validation with each feature column removed, all
    (dropped column, repeat, fold) cells across one set of `threads`
    worker processes.

    Entries report the mean-accuracy delta against the full-matrix
    baseline, sorted ascending (most damaging drop first).
    """
    X = np.asarray(matrix, dtype=float)
    if X.shape[1] < 2:
        raise DomainError("ablation needs at least two feature columns")
    names = list(feature_names) if feature_names else [
        f"col{j}" for j in range(X.shape[1])
    ]
    runs = [(spec, X)] + [(spec, np.delete(X, j, axis=1)) for j in range(X.shape[1])]
    baseline, *reduced = cross_validate(runs, labels, plan, threads=threads)
    entries = []
    for j, result in enumerate(reduced):
        entries.append(
            AblationEntry(
                feature=names[j],
                mean=result.mean,
                delta=result.mean - baseline.mean,
            )
        )
    entries.sort(key=lambda e: e.delta)
    return AblationReport(
        baseline_mean=baseline.mean, baseline_std=baseline.std, entries=entries
    )
