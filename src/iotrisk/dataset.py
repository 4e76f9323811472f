"""The eleven-feature device corpus: schema, validation, CSV persistence,
and seeded synthesis with a tunable planted signal.

A corpus row is one vulnerable device.  Ten publicly observable features
describe it; the output label is its severity class.  Corpora must be
complete: any invalid row aborts a load, listing every violation found.
"""

import csv
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError
from .nvd import IOT_CATEGORIES, RISK_CLASSES, RiskClass
from .util import largest_remainder

ENCRYPTION_MODES = ("Symmetric", "Asymmetric", "None", "Both")
DATA_STORAGE = ("Local", "Remote")
YES_NO = ("Yes", "No")

#: Reference class counts for a 1153-row corpus.
REFERENCE_CLASS_COUNTS = {
    RiskClass.Low: 176,
    RiskClass.Medium: 138,
    RiskClass.High: 183,
    RiskClass.Critical: 656,
}
REFERENCE_TOTAL = sum(REFERENCE_CLASS_COUNTS.values())

#: Distinct synthesized values of the features not drawn from a fixed pool.
DEFAULT_CARDINALITIES = {
    "brand": 129,
    "product_type": 71,
    "communication_capability": 31,
}

_PROTOCOL_POOL = (
    "wifi",
    "bluetooth",
    "zigbee",
    "zwave",
    "ble",
    "lorawan",
    "cellular",
    "ethernet",
)
_COMM_POOL = (
    "wifi_2_4ghz",
    "wifi_5ghz",
    "bluetooth_le",
    "zigbee_mesh",
    "ethernet_lan",
    "cellular_lte",
    "nfc",
    "thread",
)

BUNDLED_CORPUS_SEED = 7
BUNDLED_CORPUS_SIGNAL = 0.35


def reference_class_fractions() -> dict[RiskClass, float]:
    """Exact class fractions of the reference 1153-row distribution."""
    return {c: n / REFERENCE_TOTAL for c, n in REFERENCE_CLASS_COUNTS.items()}


@dataclass(frozen=True)
class DeviceRecord:
    """One device row.  `risk_score` is None only for rows awaiting scoring."""

    brand: str
    product_type: str
    category: str
    price_usd: float
    protocols: str
    data_storage: str
    personal_information: str
    location_track: str
    communication_capability: str
    authorisation_encryption: str
    risk_score: RiskClass | None
    synthetic: bool = False


#: Corpus CSV columns: the record's fields, in declaration order.
CSV_HEADER = tuple(f.name for f in fields(DeviceRecord))

#: Model-facing feature columns, in corpus order (label excluded).
FEATURE_COLUMNS = CSV_HEADER[:10]

#: Categorical/binary features; everything here is frequency-encoded.
CATEGORICAL_FEATURES = tuple(f for f in FEATURE_COLUMNS if f != "price_usd")


def validate(record: DeviceRecord, require_label: bool = True) -> list[str]:
    """Field-level violations for a record; an empty list means ok."""
    violations = []
    for name in CATEGORICAL_FEATURES:
        if not getattr(record, name):
            violations.append(f"{name}: empty")
    if record.category and record.category not in IOT_CATEGORIES:
        violations.append(
            f"category: {record.category!r} not in {'/'.join(IOT_CATEGORIES)}"
        )
    if (
        record.authorisation_encryption
        and record.authorisation_encryption not in ENCRYPTION_MODES
    ):
        violations.append(
            "authorisation_encryption: "
            f"{record.authorisation_encryption!r} not in {'/'.join(ENCRYPTION_MODES)}"
        )
    if record.data_storage and record.data_storage not in DATA_STORAGE:
        violations.append(f"data_storage: {record.data_storage!r} not Local/Remote")
    for name in ("personal_information", "location_track"):
        value = getattr(record, name)
        if value and value not in YES_NO:
            violations.append(f"{name}: {value!r} not Yes/No")
    if record.price_usd is None or not np.isfinite(record.price_usd):
        violations.append("price_usd: missing or non-finite")
    elif record.price_usd < 0:
        violations.append("price_usd: negative price")
    if require_label and record.risk_score is None:
        violations.append("risk_score: empty")
    return violations


@dataclass
class CorpusSummary:
    """Total row count and per-class (count, fraction) pairs."""

    total: int
    per_class: dict[RiskClass, tuple[int, float]]


def class_distribution(records) -> CorpusSummary:
    """Exact class counts and fractions (rounding is left to display)."""
    if not records:
        raise DomainError("class distribution of an empty corpus")
    counts = {c: 0 for c in RISK_CLASSES}
    for record in records:
        counts[record.risk_score] += 1
    total = len(records)
    return CorpusSummary(
        total=total,
        per_class={c: (n, n / total) for c, n in counts.items()},
    )


def _cell(value) -> str:
    """One corpus CSV cell: class names, true/false flags, "" for no label,
    and prices as repr(float(price)), since numpy 2 reprs an np.float64
    with its type."""
    if isinstance(value, str):
        return value
    if isinstance(value, RiskClass):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else repr(float(value))


def _row_to_record(cells: list[str], header, require_label: bool) -> DeviceRecord:
    if len(cells) != len(header):
        raise DataFormatError(f"{len(cells)} cells, expected {len(header)}")
    row = dict(zip(header, cells))
    label = row.get("risk_score", "")
    if label and label not in RiskClass.__members__:
        raise DataFormatError(f"unknown risk_score {label!r}")
    if not label and require_label:
        raise DataFormatError("risk_score: empty")
    try:
        price = float(row["price_usd"])
    except ValueError:
        raise DataFormatError(f"price_usd: {row['price_usd']!r} is not a number") from None
    return DeviceRecord(**{
        **row,
        "price_usd": price,
        "risk_score": RiskClass[label] if label else None,
        "synthetic": row.get("synthetic", "false").lower() == "true",
    })


def save_corpus(records, path: str | Path) -> None:
    """Write records as UTF-8 CSV with the fixed 12-column header."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows([_cell(getattr(r, name)) for name in CSV_HEADER] for r in records)


def _read_rows(path, expected_header):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if tuple(header) != tuple(expected_header):
            raise DataFormatError(
                f"{path}: header mismatch, expected {','.join(expected_header)}"
            )
        return list(reader)


def _load_records(path, header, require_label: bool, what: str) -> list[DeviceRecord]:
    """Read, convert and validate every row of a CSV with `header`; any
    invalid row aborts with a DataFormatError "<path>: <what>" listing
    every violation."""
    records, problems = [], []
    for number, cells in enumerate(_read_rows(path, header), start=2):
        try:
            record = _row_to_record(cells, header, require_label)
        except DataFormatError as exc:
            problems.append(f"line {number}: {exc}")
            continue
        for violation in validate(record, require_label=require_label):
            problems.append(f"line {number}: {violation}")
        records.append(record)
    if problems:
        raise DataFormatError(f"{path}: {what}\n  " + "\n  ".join(problems))
    return records


def load_corpus(path: str | Path) -> tuple[list[DeviceRecord], CorpusSummary]:
    """Load and validate a labelled corpus.

    Any invalid row aborts the load with a DataFormatError listing every
    violation; a corpus must be complete.
    """
    records = _load_records(path, CSV_HEADER, True, "invalid corpus")
    if not records:
        raise DataFormatError(f"{path}: no rows")
    return records, class_distribution(records)


def load_devices(path: str | Path) -> list[DeviceRecord]:
    """Load unlabelled device rows (corpus header minus risk_score)."""
    header = tuple(c for c in CSV_HEADER if c != "risk_score")
    return _load_records(path, header, False, "invalid device rows")


@dataclass
class SynthesisSpec:
    """Parameters for the seeded corpus generator.

    `signal_strength` controls how predictive the planted feature subset
    (category, authorisation_encryption, protocols) is: each row keeps its
    label's planted value triple with this probability and draws uniformly
    otherwise.  Class c's triple is (category c, the first encryption mode,
    the first protocol), so the classes differ in category alone.
    """

    seed: int
    total: int
    class_fractions: dict[RiskClass, float] = field(
        default_factory=reference_class_fractions
    )
    signal_strength: float = 0.0


def synthesize_corpus(spec: SynthesisSpec) -> list[DeviceRecord]:
    """Generate a schema-complete corpus, deterministic for a fixed seed.

    Class counts are the largest-remainder rounding of the class fractions
    against the total; brands, product types and communication
    capabilities number at most DEFAULT_CARDINALITIES, the other features
    take the values of their fixed pools.
    """
    if not isinstance(spec.total, (int, np.integer)) or spec.total < 1:
        raise ConfigError(f"total must be a positive row count, got {spec.total!r}")
    fractions = [spec.class_fractions.get(c, 0.0) for c in RISK_CLASSES]
    if not all(0.0 <= f <= 1.0 for f in fractions):  # also refuses NaN
        raise ConfigError(f"class fractions must lie in [0, 1], got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"class fractions sum to {sum(fractions)}, expected 1")
    if not 0.0 <= spec.signal_strength <= 1.0:
        raise ConfigError("signal_strength must be within [0, 1]")

    counts = largest_remainder([f * spec.total for f in fractions], spec.total)
    labels = np.repeat(np.arange(len(RISK_CLASSES)), counts)
    rng = np.random.default_rng(spec.seed)
    rng.shuffle(labels)
    n = spec.total

    cards = DEFAULT_CARDINALITIES
    brands = [f"brand_{i:03d}" for i in range(cards["brand"])]
    types = [f"type_{i:03d}" for i in range(cards["product_type"])]
    comms = _COMM_POOL + tuple(
        f"comm_{i:03d}" for i in range(len(_COMM_POOL), cards["communication_capability"]))

    # One vectorized draw per field, in a fixed order, keeps generation
    # byte-reproducible for a given seed.
    brand_idx = rng.integers(0, len(brands), n)
    type_idx = rng.integers(0, len(types), n)
    price = np.round(rng.lognormal(mean=4.0, sigma=0.9, size=n), 2)
    storage_idx = rng.integers(0, 2, n)
    personal_idx = rng.integers(0, 2, n)
    location_idx = rng.integers(0, 2, n)
    comm_idx = rng.integers(0, len(comms), n)
    uniform_cat = rng.integers(0, len(IOT_CATEGORIES), n)
    uniform_enc = rng.integers(0, len(ENCRYPTION_MODES), n)
    uniform_proto = rng.integers(0, len(_PROTOCOL_POOL), n)
    keep_signal = rng.random(n) < spec.signal_strength

    cat_idx = np.where(keep_signal, labels, uniform_cat)
    enc_idx = np.where(keep_signal, 0, uniform_enc)
    proto_idx = np.where(keep_signal, 0, uniform_proto)

    records = []
    for i in range(n):
        records.append(
            DeviceRecord(
                brand=brands[brand_idx[i]],
                product_type=types[type_idx[i]],
                category=IOT_CATEGORIES[cat_idx[i]],
                price_usd=float(price[i]),
                protocols=_PROTOCOL_POOL[proto_idx[i]],
                data_storage=DATA_STORAGE[storage_idx[i]],
                personal_information=YES_NO[personal_idx[i]],
                location_track=YES_NO[location_idx[i]],
                communication_capability=comms[comm_idx[i]],
                authorisation_encryption=ENCRYPTION_MODES[enc_idx[i]],
                risk_score=RiskClass(int(labels[i])),
                synthetic=True,
            )
        )
    return records


def _data_path(name: str) -> Path:
    return Path(resources.files("iotrisk").joinpath("data", name))


def load_fixture_devices() -> list[DeviceRecord]:
    """The eight hand-written fixture devices shipped with the package
    (two products, one record per severity class, flagged synthetic)."""
    records, _ = load_corpus(_data_path("fixture_devices.csv"))
    return records


def build_bundled_corpus() -> list[DeviceRecord]:
    """Reconstruct the bundled 1153-row corpus from its seed.

    1145 generated rows plus the eight fixture devices, hitting the
    reference class counts exactly.
    """
    fixtures = load_fixture_devices()
    remaining = REFERENCE_TOTAL - len(fixtures)
    fractions = {
        c: (REFERENCE_CLASS_COUNTS[c] - count) / remaining
        for c, (count, _) in class_distribution(fixtures).per_class.items()
    }
    generated = synthesize_corpus(
        SynthesisSpec(
            seed=BUNDLED_CORPUS_SEED,
            total=remaining,
            class_fractions=fractions,
            signal_strength=BUNDLED_CORPUS_SIGNAL,
        )
    )
    return generated + fixtures


def bundled_corpus_path() -> Path:
    """Path of the packaged 1153-row corpus CSV."""
    return _data_path("bundled_corpus.csv")


def default_rules_path() -> Path:
    """Path of the packaged, versioned category rule file."""
    return _data_path("iot_rules.csv")
