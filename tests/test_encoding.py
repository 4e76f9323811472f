import warnings

import numpy as np
import pytest

from iotrisk.encoding import (
    CorpusEncoder,
    apply_scaler,
    correlation_matrix,
    fit_frequency,
    fit_scaler,
)
from iotrisk.errors import ConfigError, DomainError
from iotrisk.reporting import correlation_report

from conftest import make_record


def brand_corpus(values, **kw):
    return [make_record(brand=v, **kw) for v in values]


class TestFrequency:
    def test_direct_counting(self):
        table = fit_frequency(brand_corpus(["a", "a", "b", "c"]), "brand")
        assert table.frequencies == {"a": 0.5, "b": 0.25, "c": 0.25}
        assert table.n_fit == 4

    def test_single_value(self):
        table = fit_frequency(brand_corpus(["x", "x"]), "brand")
        assert table.frequencies == {"x": 1.0}

    def test_reference_label_shares(self):
        values = ["Critical"] * 656 + ["High"] * 183 + ["Low"] * 176 + ["Medium"] * 138
        table = fit_frequency(brand_corpus(values), "brand")
        expected = {"Critical": 0.569, "High": 0.159, "Low": 0.153, "Medium": 0.120}
        for value, share in expected.items():
            assert abs(table.frequencies[value] - share) <= 0.001

    def test_frequencies_sum_to_one(self):
        rng = np.random.default_rng(0)
        values = [f"v{rng.integers(7)}" for _ in range(200)]
        table = fit_frequency(brand_corpus(values), "brand")
        assert abs(sum(table.frequencies.values()) - 1.0) < 1e-9

    def test_row_order_invariance(self):
        values = ["a", "b", "a", "c", "b", "a"]
        forward = fit_frequency(brand_corpus(values), "brand")
        backward = fit_frequency(brand_corpus(values[::-1]), "brand")
        assert forward.frequencies == backward.frequencies

    def test_unknown_feature(self):
        with pytest.raises(ConfigError):
            fit_frequency(brand_corpus(["a"]), "warranty")

    def test_price_not_frequency_encoded(self):
        with pytest.raises(ConfigError):
            fit_frequency(brand_corpus(["a"]), "price_usd")

    def test_empty_corpus(self):
        with pytest.raises(DomainError):
            fit_frequency([], "brand")

    def test_empty_corpus_encoder_refused_with_one_message(self):
        with pytest.raises(DomainError, match="^cannot fit on an empty corpus$"):
            CorpusEncoder.fit([])


class TestScaler:
    def test_two_point_column(self):
        scaler = fit_scaler(np.array([[2.0], [4.0]]))
        assert scaler.means[0] == 3.0 and scaler.stds[0] == 1.0
        out = apply_scaler(np.array([[2.0], [4.0]]), scaler)
        assert out[:, 0].tolist() == [-1.0, 1.0]

    def test_constant_column_maps_to_zero(self):
        scaler = fit_scaler(np.array([[5.0], [5.0], [5.0]]))
        assert scaler.constant[0]
        assert apply_scaler(np.array([[5.0], [5.0], [5.0]]), scaler)[:, 0].tolist() == [
            0.0, 0.0, 0.0,
        ]

    def test_random_matrix_standardized(self):
        rng = np.random.default_rng(1)
        matrix = rng.normal(3.0, 2.5, size=(100, 3))
        out = apply_scaler(matrix, fit_scaler(matrix))
        assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(out.std(axis=0) - 1.0) < 1e-9)


class TestTransform:
    def test_frequency_column_pre_scaling(self):
        corpus = brand_corpus(["a", "a", "b", "c"])
        encoder = CorpusEncoder.fit(corpus)
        pre = encoder.frequency_matrix(corpus, [])
        assert pre[:, 0].tolist() == [0.5, 0.5, 0.25, 0.25]

    def test_constant_column_scales_to_zero(self):
        corpus = brand_corpus(["a", "a", "b", "c"])
        encoded = CorpusEncoder.fit(corpus).transform(corpus)
        # every record shares the same category value
        column = encoded.columns.index("category")
        assert np.all(encoded.data[:, column] == 0.0)

    def test_column_order_and_labels(self):
        corpus = brand_corpus(["a", "b", "c", "d"])
        encoded = CorpusEncoder.fit(corpus).transform(corpus)
        assert encoded.columns == (
            "brand", "product_type", "category", "price_usd", "protocols",
            "data_storage", "personal_information", "location_track",
            "communication_capability", "authorisation_encryption",
        )
        assert encoded.labels.tolist() == [0, 0, 0, 0]

    def test_output_finite_and_deterministic(self):
        rng = np.random.default_rng(2)
        corpus = [
            make_record(brand=f"b{rng.integers(5)}", price_usd=float(rng.uniform(5, 500)))
            for _ in range(60)
        ]
        first = CorpusEncoder.fit(corpus).transform(corpus)
        second = CorpusEncoder.fit(corpus).transform(corpus)
        assert np.isfinite(first.data).all()
        assert first.data.tobytes() == second.data.tobytes()

    def test_unseen_smoothed_without_warning(self):
        corpus = brand_corpus(["a", "a", "b", "c"])
        encoder = CorpusEncoder.fit(corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the result's `unseen` is the one channel
            encoded = encoder.transform(brand_corpus(["zz"]))
        pre = 1.0 / (4 + 1)
        expected = (pre - encoder.scaler.means[0]) / encoder.scaler.stds[0]
        assert encoded.data[0, 0] == pytest.approx(expected)
        assert encoded.unseen == ((0, "brand", "zz"),)

    def test_sidecar_round_trip_preserves_fingerprint(self):
        corpus = brand_corpus(["a", "b", "b", "c", "c", "c"])
        encoder = CorpusEncoder.fit(corpus)
        clone = CorpusEncoder.from_payload(encoder.to_payload())
        assert clone.fingerprint() == encoder.fingerprint()
        assert np.array_equal(
            clone.transform(corpus).data, encoder.transform(corpus).data
        )


class TestCorrelation:
    def _encoded(self, data, columns, labels=None):
        from iotrisk.encoding import EncodedMatrix

        return EncodedMatrix(
            data=np.asarray(data, float), columns=tuple(columns),
            labels=labels,
        )

    def test_self_correlation_is_one(self):
        x = np.arange(10.0)
        report = correlation_matrix(self._encoded(np.column_stack([x, x]), ["a", "b"]))
        assert report.matrix[0, 1] == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        x = np.arange(10.0)
        report = correlation_matrix(self._encoded(np.column_stack([x, -x]), ["a", "b"]))
        assert report.matrix[0, 1] == pytest.approx(-1.0)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(10000, 3))
        report = correlation_matrix(self._encoded(data, ["a", "b", "c"]))
        off_diagonal = report.matrix[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off_diagonal) < 0.05)

    def test_single_row_rejected(self):
        with pytest.raises(DomainError):
            correlation_matrix(self._encoded([[1.0, 2.0]], ["a", "b"]))

    def test_constant_column_flagged_zero(self):
        data = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        report = correlation_matrix(self._encoded(data, ["a", "b"]))
        assert report.constant == ("b",)
        assert report.matrix[0, 1] == 0.0
        assert report.matrix[1, 1] == 1.0

    def test_include_label_and_csv(self):
        x = np.arange(6.0)
        report = correlation_matrix(
            self._encoded(np.column_stack([x, x[::-1]]), ["a", "b"],
                          labels=np.array([0, 0, 1, 1, 2, 3])),
            include_label=True,
        )
        assert report.names[-1] == "risk_score"
        text = correlation_report(report)
        assert text.splitlines()[0] == ",a,b,risk_score"
        assert len(text.splitlines()) == 4

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(50, 4))
        report = correlation_matrix(self._encoded(data, list("abcd")))
        assert np.allclose(report.matrix, report.matrix.T)
        assert np.allclose(np.diag(report.matrix), 1.0)
