import gzip

import pytest

from iotrisk.errors import ConfigError, DataFormatError, DomainError
from iotrisk.nvd import (
    CveEntry,
    IotRule,
    RiskClass,
    candidate_devices,
    filter_by_year,
    filter_iot,
    load_rules,
    parse_cpe_uri,
    parse_feed,
    read_feed,
    serialize_cpe,
    severity_class,
)

from conftest import feed_document, feed_item

CAM = "cpe:2.3:h:vendorx:cam123:1.0:*:*:*:*:*:*:*"
FW = "cpe:2.3:o:vendorx:fw:2.1:*:*:*:*:*:*:*"
APP = "cpe:2.3:a:vendorx:viewer_app:3.2:*:*:*:*:*:*:*"


class TestSeverityClass:
    @pytest.mark.parametrize(
        "score,expected",
        [
            (0.1, RiskClass.Low),
            (3.9, RiskClass.Low),
            (4.0, RiskClass.Medium),
            (6.9, RiskClass.Medium),
            (7.0, RiskClass.High),
            (8.9, RiskClass.High),
            (9.0, RiskClass.Critical),
            (10.0, RiskClass.Critical),
        ],
    )
    def test_bins(self, score, expected):
        assert severity_class(score) is expected

    @pytest.mark.parametrize("score", [0.0, -0.1, 10.1, 0.05])
    def test_rejected_scores(self, score):
        with pytest.raises(DomainError):
            severity_class(score)

    def test_monotone_over_scored_range(self):
        scores = [round(0.1 * i, 1) for i in range(1, 101)]
        classes = [severity_class(s) for s in scores]
        assert all(a <= b for a, b in zip(classes, classes[1:]))

    def test_total_order(self):
        assert list(RiskClass) == sorted(RiskClass)
        assert RiskClass.Low < RiskClass.Medium < RiskClass.High < RiskClass.Critical
        assert len(RiskClass) == 4


class TestParseCpe:
    def test_hardware_uri(self):
        cpe = parse_cpe_uri(CAM)
        assert (cpe.part, cpe.vendor, cpe.product, cpe.version) == (
            "h", "vendorx", "cam123", "1.0",
        )
        assert cpe.raw == CAM

    def test_os_part(self):
        assert parse_cpe_uri(FW).part == "o"

    def test_unsupported_prefix(self):
        with pytest.raises(DataFormatError, match="component 1"):
            parse_cpe_uri("cpe:2.2:h:x:y")

    def test_too_few_components(self):
        with pytest.raises(DataFormatError, match="component"):
            parse_cpe_uri("cpe:2.3:h:vendorx:cam123")

    def test_bad_part(self):
        with pytest.raises(DataFormatError, match="component 2"):
            parse_cpe_uri("cpe:2.3:x:vendorx:cam123:1.0:*:*:*:*:*:*:*")

    def test_escaped_colon_does_not_split(self):
        uri = "cpe:2.3:a:vendor\\:x:prod:1.0:*:*:*:*:*:*:*"
        cpe = parse_cpe_uri(uri)
        assert cpe.vendor == "vendor:x"
        assert cpe.product == "prod"

    @pytest.mark.parametrize("uri", [CAM, FW, APP])
    def test_round_trip(self, uri):
        assert serialize_cpe(parse_cpe_uri(uri)) == uri

    def test_round_trip_escaped(self):
        uri = "cpe:2.3:a:vendor\\:x:prod:1.0:*:*:*:*:*:*:*"
        assert serialize_cpe(parse_cpe_uri(uri)) == uri


class TestParseFeed:
    def test_two_item_fixture(self):
        doc = feed_document(
            [feed_item(cpe_uris=[CAM]), feed_item("CVE-2019-0002", base_score=None)]
        )
        result = parse_feed(doc)
        assert len(result.entries) == 1
        assert result.skipped == 1
        assert result.entries[0].cve_id == "CVE-2019-0001"
        assert result.entries[0].cvss_v3_base == 9.8
        assert len(result.entries[0].cpe_uris) == 1

    def test_empty_feed(self):
        result = parse_feed(feed_document([]))
        assert result.entries == [] and result.skipped == 0

    def test_three_cpe_uris_in_document_order(self):
        doc = feed_document([feed_item(cpe_uris=[CAM, FW, APP])])
        entry = parse_feed(doc).entries[0]
        assert [c.raw for c in entry.cpe_uris] == [CAM, FW, APP]

    def test_missing_cve_id_collected(self):
        items = [feed_item(cpe_uris=[CAM])]
        broken = feed_item("CVE-2019-0003", cpe_uris=[FW])
        del broken["cve"]["CVE_data_meta"]["ID"]
        items.append(broken)
        result = parse_feed(feed_document(items))
        assert len(result.entries) == 1
        assert len(result.item_errors) == 1
        assert "item 1" in result.item_errors[0]

    def test_malformed_document_reports_offset(self):
        with pytest.raises(DataFormatError, match="byte offset"):
            parse_feed('{"CVE_Items": [')

    def test_missing_items_array(self):
        with pytest.raises(DataFormatError, match="CVE_Items"):
            parse_feed("{}")

    def test_accounting_identity(self):
        items = [
            feed_item(cpe_uris=[CAM]),
            feed_item("CVE-2019-0004", base_score=None),
            feed_item("CVE-2019-0005", base_score=5.0, cpe_uris=[FW]),
        ]
        broken = feed_item()
        del broken["cve"]["CVE_data_meta"]["ID"]
        items.append(broken)
        result = parse_feed(feed_document(items))
        assert len(result.entries) + result.skipped + len(result.item_errors) == len(items)

    @pytest.mark.parametrize("score", [0.0, 0.05, -1.0, 10.5])
    def test_score_without_severity_class_is_an_item_error(self, score):
        items = [feed_item(cpe_uris=[CAM]), feed_item("CVE-2019-0002", score, [FW])]
        result = parse_feed(feed_document(items))
        assert [e.cve_id for e in result.entries] == ["CVE-2019-0001"]
        assert result.item_errors == [
            f"item 1: base score {score} outside the scored range [0.1, 10.0]"]

    def test_bad_cpe_uri_keeps_item(self):
        doc = feed_document([feed_item(cpe_uris=["cpe:2.2:h:x:y", CAM])])
        result = parse_feed(doc)
        assert len(result.entries) == 1
        assert len(result.entries[0].cpe_uris) == 1
        assert len(result.uri_errors) == 1

    @pytest.mark.parametrize("defect, message", [
        ("description_list", "description is not an object"),
        ("impact_list", "impact is not an object"),
        ("cvss_string", "cvssV3 is not an object"),
        ("score_text", "baseScore is not a number"),
        ("score_too_large", "baseScore is not a number"),
        ("node_int", "an entry of nodes is not an object"),
        ("cpe_match_int", "an entry of cpe_match is not an object"),
        ("description_data_int", "an entry of description_data is not an object"),
        ("published_int", "publishedDate is not a string"),
        ("id_int", "ID is not a string"),
    ])
    def test_mistyped_field_is_an_item_error(self, defect, message):
        broken = feed_item("CVE-2019-0002", cpe_uris=[FW])
        if defect == "description_list":
            broken["cve"]["description"] = ["smart_camera"]
        elif defect == "impact_list":
            broken["impact"] = [9.8]
        elif defect == "cvss_string":
            broken["impact"]["baseMetricV3"]["cvssV3"] = "9.8"
        elif defect in ("score_text", "score_too_large"):
            score = "abc" if defect == "score_text" else 10 ** 400
            broken["impact"]["baseMetricV3"]["cvssV3"]["baseScore"] = score
        elif defect == "node_int":
            broken["configurations"]["nodes"].append(5)
        elif defect == "cpe_match_int":
            broken["configurations"]["nodes"][0]["cpe_match"].append(5)
        elif defect == "description_data_int":
            broken["cve"]["description"]["description_data"].append(5)
        elif defect == "published_int":
            broken["publishedDate"] = 2019
        else:
            broken["cve"]["CVE_data_meta"]["ID"] = 5
        items = [feed_item(cpe_uris=[CAM]), broken, feed_item("CVE-2019-0003", base_score=None)]
        result = parse_feed(feed_document(items))
        assert [e.cve_id for e in result.entries] == ["CVE-2019-0001"]
        assert result.skipped == 1 and result.uri_errors == []
        assert result.item_errors == [f"item 1: {message}"]

    def test_non_string_cpe_uri_is_a_uri_error(self):
        broken = feed_item(cpe_uris=[CAM])
        broken["configurations"]["nodes"][0]["cpe_match"].append({"cpe23Uri": 5})
        result = parse_feed(feed_document([broken]))
        assert len(result.entries) == 1 and len(result.entries[0].cpe_uris) == 1
        assert result.item_errors == []
        assert result.uri_errors == ["item 0 (CVE-2019-0001): cpe23Uri 5 is not a string"]

    def test_gzip_read(self, tmp_path):
        doc = feed_document([feed_item(cpe_uris=[CAM])])
        path = tmp_path / "feed.json.gz"
        path.write_bytes(gzip.compress(doc.encode()))
        assert len(read_feed(path).entries) == 1

    def test_year_filter(self):
        doc = feed_document(
            [
                feed_item("CVE-2012-9999", published="2012-07-01T00:00Z"),
                feed_item("CVE-2014-0001", published="2014-07-01T00:00Z"),
            ]
        )
        entries = parse_feed(doc).entries
        kept = filter_by_year(entries, 2013)
        assert [e.cve_id for e in kept] == ["CVE-2014-0001"]


def _entry(product, description="", part="h", vendor="vendorx", score=9.8):
    uri = f"cpe:2.3:{part}:{vendor}:{product}:1.0:*:*:*:*:*:*:*"
    return CveEntry(
        cve_id="CVE-2020-1000",
        description=description,
        published="2020-01-01T00:00Z",
        cvss_v3_base=score,
        cpe_uris=(parse_cpe_uri(uri),),
    )


class TestFilterIot:
    def test_substring_rule_retains(self):
        rules = [IotRule("SmartHome", "camera")]
        matched = filter_iot([_entry("smart_camera")], rules)
        assert matched == [(_entry("smart_camera"), "SmartHome")]

    def test_no_match_drops(self):
        rules = [IotRule("SmartHome", "camera")]
        assert filter_iot([_entry("router_os")], rules) == []

    def test_priority_tie_break(self):
        rules = [IotRule("Medical", "monitor"), IotRule("Other", "monitor")]
        matched = filter_iot([_entry("patient_monitor")], rules)
        assert matched[0][1] == "Medical"

    def test_empty_rules_is_config_error(self):
        with pytest.raises(ConfigError):
            filter_iot([_entry("smart_camera")], [])

    def test_output_is_subsequence(self):
        rules = [IotRule("SmartHome", "camera"), IotRule("Telecomm", "router")]
        entries = [_entry("smart_camera"), _entry("toaster"), _entry("router_os")]
        matched = filter_iot(entries, rules)
        assert [e.cve_id for e, _ in matched] == [
            e.cve_id for e in entries if e is not entries[1]
        ]
        assert [m[0] for m in matched] == [entries[0], entries[2]]

    def test_part_restriction(self):
        rules = [IotRule("Telecomm", "fw")]
        entry = _entry("fw", part="o")
        assert filter_iot([entry], rules, parts=("h",)) == []
        assert len(filter_iot([entry], rules, parts=("o",))) == 1

    def test_description_keyword_match(self):
        rules = [IotRule("SmartHome", "doorbell")]
        entry = _entry("deviceA", description="doorbell firmware flaw")
        assert filter_iot([entry], rules)[0][1] == "SmartHome"


class TestCandidates:
    def test_one_row_per_distinct_vendor_product(self):
        uris = (CAM, FW, CAM)
        entry = CveEntry(
            "CVE-2020-2000", "", "2020-01-01", 9.8,
            tuple(parse_cpe_uri(u) for u in uris),
        )
        rows = candidate_devices([(entry, "SmartHome")])
        assert [(r["brand"], r["product_type"]) for r in rows] == [
            ("vendorx", "cam123"), ("vendorx", "fw"),
        ]
        assert all(r["risk_score"] == "Critical" for r in rows)
        assert all("price_usd" not in r for r in rows)  # no enrichment key

    def test_part_restriction(self):
        entry = CveEntry(
            "CVE-2020-2001", "", "2020-01-01", 5.0,
            (parse_cpe_uri(CAM), parse_cpe_uri(APP)),
        )
        rows = candidate_devices([(entry, "Other")], parts=("h",))
        assert len(rows) == 1 and rows[0]["product_type"] == "cam123"


class TestRulesFile:
    def test_bundled_rules_load(self):
        from iotrisk.dataset import default_rules_path

        rules = load_rules(default_rules_path())
        assert rules and all(r.pattern == r.pattern.lower() for r in rules)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text("pattern,category\nSmartHome,camera\n")
        with pytest.raises(DataFormatError):
            load_rules(path)

    def test_unknown_category(self, tmp_path):
        path = tmp_path / "rules.csv"
        path.write_text("category,pattern\nGadgets,camera\n")
        with pytest.raises(DataFormatError):
            load_rules(path)
