import multiprocessing
import os

import numpy as np
import pytest

from iotrisk.dataset import REFERENCE_CLASS_COUNTS, SynthesisSpec, synthesize_corpus
from iotrisk.encoding import CorpusEncoder
from iotrisk.ensemble import ModelSpec
from iotrisk.errors import ConfigError, DomainError, EvaluationError
from iotrisk import evaluation, util
from iotrisk.evaluation import (
    CV_METRICS,
    ablation_study,
    compute_metrics,
    cross_validate,
    grid_search,
    macro_average,
    make_fold_plan,
    stratified_split,
)
from iotrisk.nvd import RISK_CLASSES
from iotrisk.util import run_cells


def reference_labels(seed=0):
    labels = np.repeat(
        [int(c) for c in RISK_CLASSES],
        [REFERENCE_CLASS_COUNTS[c] for c in RISK_CLASSES],
    )
    np.random.default_rng(seed).shuffle(labels)
    return labels


class TestFoldPlan:
    def test_reference_distribution_k5(self):
        labels = reference_labels()
        plan = make_fold_plan(labels, k=5, repeats=2, seed=3)
        expected_ranges = {0: (35, 36), 1: (27, 28), 2: (36, 37), 3: (131, 132)}
        for assignment in plan.assignments:
            sizes = np.bincount(assignment, minlength=5)
            assert set(sizes.tolist()) <= {230, 231}
            for ordinal, (lo, hi) in expected_ranges.items():
                per_fold = np.bincount(assignment[labels == ordinal], minlength=5)
                assert per_fold.min() >= lo and per_fold.max() <= hi

    def test_exact_divisibility(self):
        labels = np.tile([0, 1, 2, 3], 2)
        plan = make_fold_plan(labels, k=2, repeats=1, seed=0)
        for fold in (0, 1):
            fold_labels = labels[plan.assignments[0] == fold]
            assert sorted(fold_labels.tolist()) == [0, 1, 2, 3]

    def test_deterministic(self):
        labels = reference_labels()
        a = make_fold_plan(labels, 5, 2, seed=9)
        b = make_fold_plan(labels, 5, 2, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a.assignments, b.assignments))

    def test_partition_property(self):
        labels = reference_labels(1)
        plan = make_fold_plan(labels, 5, 2, seed=1)
        for assignment in plan.assignments:
            assert assignment.shape == labels.shape
            assert set(np.unique(assignment)) == set(range(5))

    def test_small_class_named_in_error(self):
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(DomainError, match="Medium"):
            make_fold_plan(labels, k=4, repeats=1, seed=0)

    def test_k_and_repeats_validation(self):
        labels = np.tile([0, 1], 5)
        with pytest.raises(DomainError):
            make_fold_plan(labels, k=1, repeats=1, seed=0)
        with pytest.raises(DomainError):
            make_fold_plan(labels, k=2, repeats=0, seed=0)


class TestStratifiedSplit:
    def test_quarter_classes(self):
        labels = np.repeat([0, 1, 2, 3], 25)
        train, test = stratified_split(labels, 0.2, seed=0)
        assert np.bincount(labels[test]).tolist() == [5, 5, 5, 5]
        assert len(train) + len(test) == 100
        assert not set(train) & set(test)

    def test_reference_counts(self):
        labels = reference_labels(2)
        _, test = stratified_split(labels, 0.2, seed=1)
        assert np.bincount(labels[test]).tolist() == [35, 28, 37, 131]
        assert len(test) == 231

    def test_deterministic(self):
        labels = reference_labels(3)
        first = stratified_split(labels, 0.25, seed=4)
        second = stratified_split(labels, 0.25, seed=4)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_fraction_emptying_a_class(self):
        labels = np.array([0] * 50 + [1])
        with pytest.raises(DomainError):
            stratified_split(labels, 0.2, seed=0)

    def test_fraction_domain(self):
        with pytest.raises(DomainError):
            stratified_split(np.array([0, 1]), 0.0, seed=0)


class TestMetrics:
    def test_reference_macro_row(self):
        assert macro_average([75.0, 50.0, 56.7, 76.6]) == pytest.approx(64.6, abs=0.05)

    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 3, 2, 1])
        report = compute_metrics(y, y)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.micro_precision == 1.0
        assert np.trace(report.confusion) == 6

    def test_micro_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            y_true = rng.integers(0, 4, 60)
            y_pred = rng.integers(0, 4, 60)
            report = compute_metrics(y_true, y_pred)
            assert abs(report.micro_precision - report.accuracy) < 1e-12
            assert abs(report.micro_recall - report.accuracy) < 1e-12
            assert abs(report.micro_f1 - report.accuracy) < 1e-12

    def test_confusion_orientation_and_total(self):
        report = compute_metrics([0, 0, 1], [1, 0, 1])
        assert report.confusion[0, 1] == 1  # true Low predicted Medium
        assert report.confusion.sum() == 3

    def test_zero_denominator_flagged(self):
        report = compute_metrics([0, 1, 2], [0, 1, 1])
        assert (2, "precision") in report.zero_division
        assert report.precision[2] == 0.0

    def test_macro_f1_bounded_by_class_extremes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            y_true = rng.integers(0, 4, 40)
            y_pred = rng.integers(0, 4, 40)
            report = compute_metrics(y_true, y_pred)
            assert report.f1.min() - 1e-12 <= report.macro_f1 <= report.f1.max() + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            compute_metrics([0, 1], [0])

    def test_macro_is_unweighted_mean(self):
        report = compute_metrics([0, 0, 0, 1, 2, 3], [0, 0, 0, 1, 2, 3])
        assert report.macro_precision == pytest.approx(report.precision.mean())


def encoded_corpus(total, signal, seed):
    records = synthesize_corpus(
        SynthesisSpec(seed=seed, total=total, signal_strength=signal)
    )
    encoder = CorpusEncoder.fit(records)
    encoded = encoder.transform(records)
    return encoded.data, encoded.labels, encoded.columns


QUICK_GBDT = {"n_stages": 15, "learning_rate": 0.2, "max_depth": 3}
# one single-leaf stage: predicts the training folds' most common class
CONSTANT = ModelSpec("gbdt", {"n_stages": 1, "max_depth": 0})


class TestCrossValidate:
    def test_ten_evaluations_in_order(self):
        X, y, _ = encoded_corpus(200, 0.5, seed=1)
        plan = make_fold_plan(y, 5, 2, seed=2)
        result = cross_validate([(CONSTANT, X)], y, plan)[0]
        assert len(result.scores) == 10
        assert result.fold_labels == (
            "R1-F1", "R1-F2", "R1-F3", "R1-F4", "R1-F5",
            "R2-F1", "R2-F2", "R2-F3", "R2-F4", "R2-F5",
        )

    def test_constant_model_tracks_majority_share(self):
        labels = reference_labels(4)
        X = np.zeros((len(labels), 2))
        plan = make_fold_plan(labels, 5, 2, seed=5)
        result = cross_validate([(CONSTANT, X)], labels, plan)[0]
        assert np.all(np.abs(result.scores - 656 / 1153) < 0.02)

    def test_noise_labels_bounded_by_prior_ceiling(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(160, 4))
        y = rng.integers(0, 4, 160)
        while np.bincount(y, minlength=4).min() < 8:
            y = rng.integers(0, 4, 160)
        plan = make_fold_plan(y, 4, 1, seed=6)
        result = cross_validate([(ModelSpec("gbdt", QUICK_GBDT, seed=1), X)], y, plan)[0]
        assert 0.05 < result.mean < 0.45

    def test_deterministic_given_seed_and_plan(self):
        X, y, _ = encoded_corpus(150, 0.7, seed=2)
        plan = make_fold_plan(y, 3, 1, seed=3)
        spec = ModelSpec("rfc", {"n_trees": 5}, seed=11)
        a = cross_validate([(spec, X)], y, plan)[0]
        b = cross_validate([(spec, X)], y, plan)[0]
        assert np.array_equal(a.scores, b.scores)

    def test_plan_row_mismatch(self):
        X, y, _ = encoded_corpus(80, 0.5, seed=3)
        plan = make_fold_plan(y, 4, 1, seed=1)
        with pytest.raises(DomainError):
            cross_validate([(CONSTANT, X[:-1])], y[:-1], plan)[0]

    def test_training_failure_reports_fold(self):
        # a non-finite value reaches only the folds that train on its row;
        # placed in fold 2's test rows, fold 1 is the first to fail
        X, y, _ = encoded_corpus(80, 0.5, seed=4)
        plan = make_fold_plan(y, 4, 1, seed=1)
        X[plan.test_indices(0, 1)[0], 0] = np.nan
        with pytest.raises(EvaluationError, match="repeat 1 fold 1: .*non-finite"):
            cross_validate([(ModelSpec("gbdt", QUICK_GBDT), X)], y, plan)[0]

    @pytest.mark.parametrize("spec", [
        ModelSpec("gbdt", {"bogus": 1}),
        ModelSpec("majority"),
        ModelSpec("voting", {"members": [{"params": {}}]}),
    ])
    def test_bad_spec_is_a_config_error_before_any_fit(self, spec, monkeypatch):
        X, y, _ = encoded_corpus(80, 0.5, seed=4)
        plan = make_fold_plan(y, 4, 1, seed=1)
        monkeypatch.setattr(evaluation, "run_cells", None)  # never reached
        with pytest.raises(ConfigError):
            cross_validate([(spec, X)], y, plan)[0]
        with pytest.raises(ConfigError):
            ablation_study(spec, X, y, plan)


class TestRunCells:
    def test_cells_run_in_forked_workers_and_return_in_order(self):
        assert run_cells(lambda i: i * i, 7, threads=3) == [i * i for i in range(7)]
        pids = run_cells(lambda i: os.getpid(), 6, threads=2)
        assert os.getpid() not in pids and len(set(pids)) <= 2
        assert multiprocessing.active_children() == []

    def test_one_worker_or_one_cell_runs_without_a_pool(self, monkeypatch):
        def no_pool(size, score):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(util, "_fork_pool", no_pool)
        assert run_cells(lambda i: i + 1, 3, threads=1) == [1, 2, 3]
        assert run_cells(lambda i: os.getpid(), 1, threads=4) == [os.getpid()]

    def test_the_lowest_failing_cell_is_raised(self):
        def score(index):
            if index in (2, 5):
                raise EvaluationError(f"cell {index} failed")
            return float(index)

        for threads in (1, 2, 3):
            with pytest.raises(EvaluationError, match="^cell 2 failed$"):
                run_cells(score, 6, threads=threads)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("metric", CV_METRICS)
    def test_cv_identical_at_any_worker_count(self, metric):
        X, y, _ = encoded_corpus(150, 0.7, seed=2)
        plan = make_fold_plan(y, 3, 2, seed=3)
        spec = ModelSpec("gbdt", QUICK_GBDT, seed=11)
        results = [cross_validate([(spec, X)], y, plan, metric=metric, threads=threads)[0]
                   for threads in (1, 2, 4)]
        for other in results[1:]:
            assert other.scores.tobytes() == results[0].scores.tobytes()
            assert (other.mean, other.std) == (results[0].mean, results[0].std)


    @pytest.mark.parametrize("metric", CV_METRICS)
    def test_the_parent_scores_every_cell_through_compute_metrics(self, metric,
                                                                   monkeypatch):
        X, y, _ = encoded_corpus(150, 0.7, seed=2)
        plan = make_fold_plan(y, 3, 2, seed=3)
        runs = [(ModelSpec("gbdt", QUICK_GBDT, seed=11), X), (CONSTANT, X)]
        calls = []  # filled only by calls made in this process

        def recorder(true_labels, predicted_labels):
            report = compute_metrics(true_labels, predicted_labels)
            calls.append((np.array(true_labels), report))
            return report

        monkeypatch.setattr(evaluation, "compute_metrics", recorder)
        results = cross_validate(runs, y, plan, metric=metric, threads=2)
        tests = [plan.test_indices(r, f) for r in range(2) for f in range(3)]
        assert len(calls) == len(runs) * len(tests)
        for index, (true_labels, report) in enumerate(calls):
            run, cell = divmod(index, len(tests))
            assert np.array_equal(true_labels, y[tests[cell]])
            assert (results[run].scores[cell].tobytes()
                    == np.float64(getattr(report, metric)).tobytes())


class TestGridSearch:
    def test_single_point_grid(self):
        X, y, _ = encoded_corpus(120, 0.8, seed=5)
        plan = make_fold_plan(y, 3, 1, seed=2)
        result = grid_search("gbdt", {"n_stages": [10]}, X, y, plan,
                             base_params={"learning_rate": 0.2, "max_depth": 3})
        assert result.winner == {"n_stages": 10}
        assert len(result.configs) == 1

    def test_two_by_two_grid_full_ranking(self):
        X, y, _ = encoded_corpus(120, 0.8, seed=6)
        plan = make_fold_plan(y, 3, 1, seed=2)
        grid = {"n_stages": [5, 10], "max_depth": [2, 3]}
        result = grid_search("gbdt", grid, X, y, plan,
                             base_params={"learning_rate": 0.2})
        assert len(result.configs) == 4
        assert sorted(result.ranking) == [0, 1, 2, 3]
        assert result.configs[0] == {"n_stages": 5, "max_depth": 2}
        assert all(result.means[result.winner_index] >= m for m in result.means)

    def test_winner_tie_breaks_to_earliest(self):
        X = np.zeros((40, 2))
        y = np.tile([0, 1, 2, 3], 10)
        plan = make_fold_plan(y, 2, 1, seed=0)
        result = grid_search("gbdt", {"n_stages": [1, 2]}, X, y, plan,
                             base_params=CONSTANT.params)
        assert result.means[0] == result.means[1]
        assert result.winner_index == 0

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            grid_search("gbdt", {}, np.zeros((4, 1)), np.zeros(4, int), None)

    def test_macro_f1_selection_metric(self):
        labels = reference_labels(9)
        X = np.zeros((len(labels), 2))
        plan = make_fold_plan(labels, 3, 1, seed=1)
        grid = {"n_stages": [1]}
        by_accuracy = grid_search("gbdt", grid, X, labels, plan, base_params=CONSTANT.params)
        by_macro = grid_search("gbdt", grid, X, labels, plan, base_params=CONSTANT.params,
                               metric="macro_f1")
        # the constant model scores the majority share on accuracy but is
        # punished by the unweighted class mean
        assert by_accuracy.means[0] > 0.5
        assert by_macro.means[0] < 0.3
        assert by_macro.metric == "macro_f1"

    def test_unknown_metric_rejected(self):
        labels = np.tile([0, 1, 2, 3], 6)
        plan = make_fold_plan(labels, 2, 1, seed=0)
        with pytest.raises(ConfigError):
            cross_validate([(CONSTANT, np.zeros((24, 2)))], labels,
                           plan, metric="rmse")[0]

    def test_reported_scale_parameters_runnable(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(24, 4))
        y = np.tile([0, 1, 2, 3], 6)
        plan = make_fold_plan(y, 2, 1, seed=3)
        grid = {
            "n_stages": [10000],
            "learning_rate": [0.01],
            "max_depth": [500],
            "min_impurity_decrease": [0.01],
        }
        result = grid_search("gbdt", grid, X, y, plan, seed=5)
        assert result.winner["n_stages"] == 10000
        assert np.isfinite(result.means).all()


class TestAblation:
    def test_duplicated_column_is_redundant(self):
        rng = np.random.default_rng(1)
        n = 120
        signal = rng.normal(size=n)
        y = np.digitize(signal, [-0.7, 0.0, 0.7])
        X = np.column_stack([signal, signal, rng.normal(size=n)])
        plan = make_fold_plan(y, 3, 1, seed=2)
        spec = ModelSpec("gbdt", QUICK_GBDT, seed=0)
        report = ablation_study(spec, X, y, plan, feature_names=["dup_a", "dup_b", "noise"])
        dup_delta = next(e.delta for e in report.entries if e.feature == "dup_a")
        assert abs(dup_delta) <= max(report.baseline_std, 1e-9)

    def test_dropping_planted_signal_feature_hurts(self):
        X, y, columns = encoded_corpus(300, 1.0, seed=7)
        plan = make_fold_plan(y, 3, 1, seed=4)
        spec = ModelSpec("gbdt", QUICK_GBDT, seed=1)
        report = ablation_study(spec, X, y, plan, feature_names=columns)
        category = next(e for e in report.entries if e.feature == "category")
        assert category.delta < 0
        assert report.entries[0].feature == "category"  # sorted ascending by delta

    def test_two_feature_report_has_two_rows(self):
        X = np.random.default_rng(2).normal(size=(40, 2))
        y = np.tile([0, 1, 2, 3], 10)
        plan = make_fold_plan(y, 2, 1, seed=0)
        report = ablation_study(CONSTANT, X, y, plan)
        assert len(report.entries) == 2

    def test_single_feature_rejected(self):
        with pytest.raises(DomainError):
            ablation_study(CONSTANT, np.zeros((4, 1)),
                           np.array([0, 1, 2, 3]), None)
