import signal

import numpy as np
import pytest

from iotrisk.dataset import (
    DEFAULT_CARDINALITIES,
    REFERENCE_CLASS_COUNTS,
    REFERENCE_TOTAL,
    SynthesisSpec,
    build_bundled_corpus,
    bundled_corpus_path,
    class_distribution,
    load_corpus,
    load_devices,
    load_fixture_devices,
    reference_class_fractions,
    save_corpus,
    synthesize_corpus,
    validate,
)
from iotrisk.errors import ConfigError, DataFormatError, DomainError
from iotrisk.nvd import RISK_CLASSES, RiskClass
from iotrisk.util import largest_remainder

from conftest import make_record


class TestValidate:
    def test_complete_record_passes(self):
        assert validate(make_record(category="SmartHome")) == []

    def test_out_of_set_encryption(self):
        violations = validate(make_record(authorisation_encryption="RSA"))
        assert len(violations) == 1
        assert "Symmetric/Asymmetric/None/Both" in violations[0]

    def test_negative_price(self):
        violations = validate(make_record(price_usd=-5))
        assert violations == ["price_usd: negative price"]

    def test_empty_field(self):
        assert any("brand" in v for v in validate(make_record(brand="")))

    def test_missing_label(self):
        record = make_record(risk_score=None)
        assert any("risk_score" in v for v in validate(record))
        assert validate(record, require_label=False) == []


class TestClassDistribution:
    def test_one_record_per_class(self):
        records = [make_record(risk_score=c) for c in RISK_CLASSES]
        summary = class_distribution(records)
        assert summary.total == 4
        assert all(summary.per_class[c] == (1, 0.25) for c in RISK_CLASSES)

    def test_reference_counts_display_rounding(self):
        records = []
        for cls, count in REFERENCE_CLASS_COUNTS.items():
            records.extend(make_record(risk_score=cls) for _ in range(count))
        summary = class_distribution(records)
        shares = {c: round(100 * f) for c, (_, f) in summary.per_class.items()}
        assert shares == {
            RiskClass.Low: 15, RiskClass.Medium: 12,
            RiskClass.High: 16, RiskClass.Critical: 57,
        }
        assert abs(sum(f for _, f in summary.per_class.values()) - 1.0) < 1e-9

    def test_single_class(self):
        summary = class_distribution([make_record()] * 5)
        assert summary.per_class[RiskClass.Low] == (5, 1.0)
        assert summary.per_class[RiskClass.Critical] == (0, 0.0)

    def test_two_per_class(self):
        records = [make_record(risk_score=c) for c in RISK_CLASSES] * 2
        summary = class_distribution(records)
        assert all(f == 0.25 for _, f in summary.per_class.values())

    def test_empty_is_domain_error(self):
        with pytest.raises(DomainError):
            class_distribution([])


class TestCorpusIo:
    def test_round_trip_identity(self, tmp_path):
        records = synthesize_corpus(SynthesisSpec(seed=5, total=50))
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        loaded, _ = load_corpus(path)
        assert loaded == records

    def test_shuffled_header_rejected(self, tmp_path):
        path = tmp_path / "corpus.csv"
        save_corpus([make_record()], path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        header[0], header[1] = header[1], header[0]
        path.write_text("\n".join([",".join(header)] + lines[1:]) + "\n")
        with pytest.raises(DataFormatError, match="header"):
            load_corpus(path)

    def test_short_row_reported_not_crashed(self, tmp_path):
        path = tmp_path / "corpus.csv"
        save_corpus([make_record()], path)
        with open(path, "a") as handle:
            handle.write("only,three,cells\n")
        with pytest.raises(DataFormatError, match="line 3.*cells"):
            load_corpus(path)

    def test_invalid_rows_all_reported(self, tmp_path):
        records = [
            make_record(),
            make_record(authorisation_encryption="RSA"),
            make_record(price_usd=-1),
        ]
        path = tmp_path / "corpus.csv"
        save_corpus(records, path)
        with pytest.raises(DataFormatError) as excinfo:
            load_corpus(path)
        message = str(excinfo.value)
        assert "line 3" in message and "line 4" in message

    def test_bundled_corpus_counts(self):
        records, summary = load_corpus(bundled_corpus_path())
        assert summary.total == REFERENCE_TOTAL == 1153
        counts = {c: n for c, (n, _) in summary.per_class.items()}
        assert counts == REFERENCE_CLASS_COUNTS

    def test_bundled_corpus_matches_regeneration(self, tmp_path):
        regenerated = build_bundled_corpus()
        path = tmp_path / "regen.csv"
        save_corpus(regenerated, path)
        assert path.read_bytes() == bundled_corpus_path().read_bytes()

    def test_fixture_devices(self):
        fixtures = load_fixture_devices()
        assert len(fixtures) == 8
        assert all(r.synthetic for r in fixtures)
        per_class = class_distribution(fixtures).per_class
        assert all(per_class[c][0] == 2 for c in RISK_CLASSES)
        assert len({r.product_type for r in fixtures}) == 2

    def test_load_devices_without_label(self, tmp_path):
        path = tmp_path / "devices.csv"
        header = "brand,product_type,category,price_usd,protocols,data_storage,"
        header += "personal_information,location_track,communication_capability,"
        header += "authorisation_encryption,synthetic"
        path.write_text(
            header + "\nacme,cam,SmartHome,10.0,wifi,Local,No,No,wifi_2_4ghz,None,false\n"
        )
        devices = load_devices(path)
        assert len(devices) == 1 and devices[0].risk_score is None


class TestLargestRemainder:
    def test_reference_fractions_hit_reference_counts(self):
        fractions = [reference_class_fractions()[c] for c in RISK_CLASSES]
        counts = largest_remainder([f * REFERENCE_TOTAL for f in fractions],
                                   REFERENCE_TOTAL)
        assert counts.tolist() == [176, 138, 183, 656]

    def test_ties_go_to_lowest_index(self):
        assert largest_remainder([1.5, 1.5, 1.0], 4).tolist() == [2, 1, 1]

    def test_exact_targets_unchanged(self):
        assert largest_remainder([2.0, 3.0, 5.0], 10).tolist() == [2, 3, 5]

    def test_positive_total_without_targets_raises_within_deadline(self):
        # nothing can take the units, so the allocation loop must not start
        def expire(signum, frame):
            raise TimeoutError("largest_remainder([], 3) did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match="at least one target"):
                largest_remainder([], 3)
            assert largest_remainder([], 0).tolist() == []
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestSynthesize:
    def test_reference_total_gives_reference_counts(self):
        records = synthesize_corpus(SynthesisSpec(seed=1, total=REFERENCE_TOTAL))
        counts = {c: n for c, (n, _) in class_distribution(records).per_class.items()}
        assert counts == REFERENCE_CLASS_COUNTS

    def test_equal_fractions_total_four(self):
        spec = SynthesisSpec(
            seed=1, total=4, class_fractions={c: 0.25 for c in RISK_CLASSES}
        )
        records = synthesize_corpus(spec)
        assert sorted(r.risk_score for r in records) == list(RISK_CLASSES)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_corpus(synthesize_corpus(SynthesisSpec(seed=9, total=120)), a)
        save_corpus(synthesize_corpus(SynthesisSpec(seed=9, total=120)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_every_row_valid(self):
        records = synthesize_corpus(SynthesisSpec(seed=2, total=150))
        assert all(validate(r) == [] for r in records)
        assert all(r.synthetic for r in records)

    def test_distinct_values_within_cardinalities(self):
        spec = SynthesisSpec(seed=3, total=3000, signal_strength=0.4)
        records = synthesize_corpus(spec)
        for feature, cap in DEFAULT_CARDINALITIES.items():
            distinct = {getattr(r, feature) for r in records}
            assert len(distinct) <= cap, feature

    def test_bad_fractions_rejected(self):
        spec = SynthesisSpec(
            seed=1, total=10, class_fractions={c: 0.3 for c in RISK_CLASSES}
        )
        with pytest.raises(ConfigError):
            synthesize_corpus(spec)

    def test_full_signal_is_a_function(self):
        records = synthesize_corpus(
            SynthesisSpec(seed=4, total=2000, signal_strength=1.0)
        )
        mapping = {}
        for r in records:
            key = (r.category, r.authorisation_encryption, r.protocols)
            mapping.setdefault(key, set()).add(r.risk_score)
        assert all(len(labels) == 1 for labels in mapping.values())

    def test_zero_signal_is_independent(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        records = synthesize_corpus(
            SynthesisSpec(seed=6, total=20000, signal_strength=0.0)
        )
        labels = [int(r.risk_score) for r in records]
        for feature in ("category", "authorisation_encryption", "protocols"):
            values = [getattr(r, feature) for r in records]
            names = sorted(set(values))
            table = np.zeros((len(names), 4))
            for value, label in zip(values, labels):
                table[names.index(value), label] += 1
            result = scipy_stats.chi2_contingency(table)
            assert result.pvalue > 0.001, feature
