"""NVD JSON 1.1 feed parsing and IoT candidate filtering.

Covers the ingestion side of the pipeline: reading feed documents
(optionally gzip-compressed), binding CPE 2.3 identities, mapping CVSS v3
base scores onto the four-class severity space, and keeping only entries
that match a keyword rule set for consumer IoT device categories.

All functions are pure over immutable inputs; distinct documents can be
parsed concurrently.
"""

import gzip
import json
import re
import sys
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

from .errors import ConfigError, DataFormatError, DomainError

#: The five device categories a rule file may assign.
IOT_CATEGORIES = ("SmartHome", "Medical", "Wearable", "Telecomm", "Other")

CPE_PARTS = ("a", "o", "h")
_CPE_COMPONENTS = 13  # "cpe" ":" "2.3" + 11 attributes


class RiskClass(IntEnum):
    """CVSS-v3 qualitative severity classes with a fixed total order."""

    Low = 0
    Medium = 1
    High = 2
    Critical = 3

    def __str__(self) -> str:
        return self.name


RISK_CLASSES = tuple(RiskClass)
#: Class names in ordinal order: report columns and a model file's classes.
CLASS_NAMES = tuple(c.name for c in RISK_CLASSES)


def severity_class(base_score: float) -> RiskClass:
    """Map a CVSS v3 base score onto its qualitative severity class.

    Bins: Low [0.1, 3.9], Medium [4.0, 6.9], High [7.0, 8.9],
    Critical [9.0, 10.0].  A score of 0.0 carries the "None" severity,
    which has no class in this label space, so it is rejected along with
    anything outside [0, 10].
    """
    score = float(base_score)
    if not (0.0 <= score <= 10.0) or score < 0.1:
        raise DomainError(
            f"base score {base_score} outside the scored range [0.1, 10.0]"
        )
    if score < 4.0:
        return RiskClass.Low
    if score < 7.0:
        return RiskClass.Medium
    if score < 9.0:
        return RiskClass.High
    return RiskClass.Critical


@dataclass(frozen=True)
class CpeIdentity:
    """The positional identity fields of a CPE 2.3 URI."""

    part: str
    vendor: str
    product: str
    version: str
    raw: str


def parse_cpe_uri(uri: str) -> CpeIdentity:
    """Bind the positional fields of a ``cpe:2.3:`` URI.

    Escaped colons (``\\:``) inside a component do not split it.  Raises
    DataFormatError when `uri` is not a string, and naming the offending
    component when the prefix is wrong or the URI has fewer than 13
    components.
    """
    if not isinstance(uri, str):
        raise DataFormatError(f"cpe23Uri {uri!r} is not a string")
    components = re.split(r"(?<!\\):", uri)
    if len(components) < 2 or components[0] != "cpe":
        raise DataFormatError(f"component 0 of {uri!r}: expected 'cpe'")
    if components[1] != "2.3":
        raise DataFormatError(
            f"component 1 of {uri!r}: unsupported CPE version {components[1]!r}"
        )
    if len(components) < _CPE_COMPONENTS:
        raise DataFormatError(
            f"component {len(components)} of {uri!r}: missing "
            f"(need {_CPE_COMPONENTS} colon-separated components)"
        )
    part = components[2]
    if part not in CPE_PARTS:
        raise DataFormatError(f"component 2 of {uri!r}: part {part!r} not in {{a,o,h}}")
    unescape = lambda s: s.replace("\\:", ":")
    return CpeIdentity(
        part=part,
        vendor=unescape(components[3]),
        product=unescape(components[4]),
        version=unescape(components[5]),
        raw=uri,
    )


def serialize_cpe(cpe: CpeIdentity) -> str:
    """Rebuild a CPE 2.3 URI from the bound fields, wildcarding the tail."""
    escape = lambda s: s.replace(":", "\\:")
    head = [escape(f) for f in (cpe.part, cpe.vendor, cpe.product, cpe.version)]
    return "cpe:2.3:" + ":".join(head + ["*"] * 7)


@dataclass(frozen=True)
class CveEntry:
    """One scored vulnerability record from a feed document."""

    cve_id: str
    description: str
    published: str
    cvss_v3_base: float
    cpe_uris: tuple[CpeIdentity, ...] = ()


@dataclass
class ParsedFeed:
    """parse_feed output: entries plus an exact accounting of the rest.

    ``len(entries) + skipped + len(item_errors)`` always equals the number
    of items in the document.
    """

    entries: list[CveEntry] = field(default_factory=list)
    skipped: int = 0  # items without a CVSS v3 base metric block
    item_errors: list[str] = field(default_factory=list)  # dropped items
    uri_errors: list[str] = field(default_factory=list)  # bad CPE URIs, item kept


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", float: "a number"}


def _get(obj: dict, key: str, kind, default=None):
    """obj[key], or `default` when it is absent or null.  A value of another
    JSON type than `kind` (for float, a finite number) raises DataFormatError."""
    value = obj.get(key)
    if value is None:
        return default
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max if kind is float
            else isinstance(value, kind)):
        raise DataFormatError(f"{key} is not {_JSON_TYPES[kind]}")
    return value


def _entries(obj: dict, key: str) -> list[dict]:
    """The array obj[key] (empty when absent), whose entries are objects."""
    values = _get(obj, key, list, [])
    if not all(isinstance(v, dict) for v in values):
        raise DataFormatError(f"an entry of {key} is not an object")
    return values


def _iter_cpe_uris(configurations: dict):
    """Yield cpe23Uri values from a configurations block in document order."""
    stack = list(reversed(_entries(configurations, "nodes")))
    while stack:
        node = stack.pop()
        for match in _entries(node, "cpe_match"):
            uri = match.get("cpe23Uri")
            if uri is not None:
                yield uri
        stack.extend(reversed(_entries(node, "children")))


def _parse_item(index: int, item, result: ParsedFeed) -> None:
    """Add one feed item to `result`: an entry and its CPE URI errors, or a
    skip when it has no CVSS v3 score.  An item without an id, with a field
    of the wrong JSON type, or with a base score that has no severity class
    raises DataFormatError and adds nothing."""
    if not isinstance(item, dict):
        raise DataFormatError("not an object")
    cve = _get(item, "cve", dict, {})
    cve_id = _get(_get(cve, "CVE_data_meta", dict, {}), "ID", str)
    if not cve_id:
        raise DataFormatError("missing CVE id")
    v3 = _get(_get(item, "impact", dict, {}), "baseMetricV3", dict, {})
    base = _get(_get(v3, "cvssV3", dict, {}), "baseScore", float)
    if base is None:
        result.skipped += 1
        return
    try:
        severity_class(base)
    except DomainError as exc:  # 0.0 ("None") or off the scale
        raise DataFormatError(str(exc)) from None
    descriptions = _entries(_get(cve, "description", dict, {}), "description_data")
    description = " ".join(
        _get(d, "value", str, "") for d in descriptions if d.get("lang", "en") == "en"
    ).strip()
    published = _get(item, "publishedDate", str, "")
    cpes = []
    # a malformed node raises before any URI error of the item is recorded
    for uri in list(_iter_cpe_uris(_get(item, "configurations", dict, {}))):
        try:
            cpes.append(parse_cpe_uri(uri))
        except DataFormatError as exc:
            result.uri_errors.append(f"item {index} ({cve_id}): {exc}")
    result.entries.append(
        CveEntry(
            cve_id=cve_id,
            description=description,
            published=published,
            cvss_v3_base=float(base),
            cpe_uris=tuple(cpes),
        )
    )


def parse_feed(document: bytes | str) -> ParsedFeed:
    """Parse an NVD JSON 1.1 feed document.

    Every item carrying a CVSS v3 base score yields one CveEntry, in
    document order.  Items without a v3 score are counted and skipped;
    items missing the mandatory CVE id, holding a field of the wrong JSON
    type, or scored outside the severity classes' [0.1, 10.0] are
    collected as item-level errors and parsing continues.
    A structurally malformed document raises DataFormatError with the byte
    offset of the failure.
    """
    if isinstance(document, bytes):
        if document[:2] == b"\x1f\x8b":
            document = gzip.decompress(document)
        text = document.decode("utf-8")
    else:
        text = document
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(
            f"malformed feed document at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    items = payload.get("CVE_Items") if isinstance(payload, dict) else None
    if not isinstance(items, list):
        raise DataFormatError("feed document lacks a top-level CVE_Items array")

    result = ParsedFeed()
    for index, item in enumerate(items):
        try:
            _parse_item(index, item, result)
        except DataFormatError as exc:
            result.item_errors.append(f"item {index}: {exc}")
    return result


def read_feed(path: str | Path) -> ParsedFeed:
    """parse_feed over a feed file, transparently gunzipping by magic bytes."""
    return parse_feed(Path(path).read_bytes())


def published_year(entry: CveEntry) -> int:
    """Year of the published date, or 0 when it cannot be read."""
    match = re.match(r"^(\d{4})", entry.published or "")
    return int(match.group(1)) if match else 0


def filter_by_year(entries, min_year: int = 2013) -> list[CveEntry]:
    """Drop entries published before `min_year` (ingest default 2013)."""
    return [e for e in entries if published_year(e) >= min_year]


@dataclass(frozen=True)
class IotRule:
    """One keyword rule: a lowercase substring pattern mapped to a category."""

    category: str
    pattern: str


def load_rules(path: str | Path) -> list[IotRule]:
    """Read a versioned category rule file (priority = line order).

    Format: ``#``-comment lines, then a ``category,pattern`` header, then
    one rule per line.
    """
    lines = [
        line.strip()
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines or lines[0] != "category,pattern":
        raise DataFormatError(f"{path}: expected a 'category,pattern' header")
    rules = []
    for line in lines[1:]:
        category, _, pattern = line.partition(",")
        if category not in IOT_CATEGORIES:
            raise DataFormatError(f"{path}: unknown category {category!r}")
        if not pattern:
            raise DataFormatError(f"{path}: rule {line!r} lacks a pattern")
        rules.append(IotRule(category=category, pattern=pattern.lower()))
    return rules


def filter_iot(
    entries,
    rules: list[IotRule],
    parts: tuple[str, ...] | None = None,
) -> list[tuple[CveEntry, str]]:
    """Keep entries matching at least one rule, tagged with the category of
    the first matching rule in priority order.

    Patterns are matched as substrings against each CPE's vendor and
    product (restricted to `parts` when given) and against the entry
    description.  Output order follows input order.
    """
    if not rules:
        raise ConfigError("empty category rule set")
    matched = []
    for entry in entries:
        texts = [
            f"{cpe.vendor} {cpe.product}".lower()
            for cpe in entry.cpe_uris
            if parts is None or cpe.part in parts
        ]
        texts.append(entry.description.lower())
        for rule in rules:
            if any(rule.pattern in text for text in texts):
                matched.append((entry, rule.category))
                break
    return matched


def candidate_devices(
    matched: list[tuple[CveEntry, str]],
    parts: tuple[str, ...] | None = None,
) -> list[dict]:
    """Expand filtered entries into device candidate rows.

    The dataset row unit is a device, so an entry with several CPE URIs
    yields one candidate per distinct (vendor, product) pair, in document
    order.  A row holds only the corpus columns a feed gives, the severity
    label derived from the base score; the enrichment columns (price,
    protocols, ...) are left out, for manual completion.
    """
    rows = []
    for entry, category in matched:
        seen = set()
        for cpe in entry.cpe_uris:
            if parts is not None and cpe.part not in parts:
                continue
            key = (cpe.vendor, cpe.product)
            if key in seen:
                continue
            seen.add(key)
            rows.append(
                {
                    "brand": cpe.vendor,
                    "product_type": cpe.product,
                    "category": category,
                    "risk_score": severity_class(entry.cvss_v3_base).name,
                    "synthetic": "false",
                }
            )
    return rows
