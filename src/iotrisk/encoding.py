"""Device records -> numeric matrix.

The model-facing representation of a categorical value is its relative
frequency in the fitting corpus.  Price passes through numerically.  All columns are
then standard-scaled with population statistics; constant columns map to
zero and are flagged.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .dataset import CATEGORICAL_FEATURES, FEATURE_COLUMNS
from .errors import ConfigError, DomainError

#: The only policy a sidecar may name: unseen values smooth to 1/(n_fit+1).
UNSEEN_POLICY = "smooth"


@dataclass
class FrequencyTable:
    """value -> relative frequency over the fitting corpus (sums to 1)."""

    frequencies: dict[str, float]
    n_fit: int


@dataclass
class StandardScaler:
    """Per-column mean and population standard deviation (divisor n)."""

    means: np.ndarray
    stds: np.ndarray  # exactly 0 where a column is constant

    constant = property(lambda self: self.stds == 0.0)  # zero-spread column flags


@dataclass
class EncodedMatrix:
    """Row-major numeric matrix plus column metadata and provenance."""

    data: np.ndarray
    columns: tuple[str, ...]
    labels: np.ndarray | None
    stages: tuple[str, ...]
    unseen: tuple[tuple[int, str, str], ...] = ()


def _column_values(records, feature):
    if feature not in FEATURE_COLUMNS:
        raise ConfigError(f"unknown feature {feature!r}")
    return [getattr(record, feature) for record in records]


def fit_frequency(records, feature: str) -> FrequencyTable:
    """Fit relative frequencies count(v)/n for one categorical feature."""
    if not records:
        raise DomainError("cannot fit on an empty corpus")
    if feature == "price_usd":
        raise ConfigError("price_usd is continuous, not frequency-encoded")
    values = _column_values(records, feature)
    counts: dict[str, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    n = len(values)
    return FrequencyTable(
        frequencies={v: c / n for v, c in counts.items()}, n_fit=n
    )


def fit_scaler(matrix: np.ndarray) -> StandardScaler:
    """Fit per-column mean and population std; zero-spread columns are flagged.

    Constancy is detected on the values themselves, not on the computed
    std, which can pick up ulp-level noise from the mean.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        raise DomainError("cannot fit a scaler on an empty matrix")
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0)
    constant = (matrix == matrix[0]).all(axis=0)
    return StandardScaler(means=means, stds=np.where(constant, 0.0, stds))


def apply_scaler(matrix: np.ndarray, scaler: StandardScaler) -> np.ndarray:
    """x' = (x - mean) / std per column; constant columns map to 0."""
    matrix = np.asarray(matrix, dtype=float)
    safe = np.where(scaler.constant, 1.0, scaler.stds)
    out = (matrix - scaler.means) / safe
    if scaler.constant.any():
        out[:, scaler.constant] = 0.0
    return out


class CorpusEncoder:
    """Fitted frequency tables + scaler for the ten feature columns.

    A value absent from the fitting corpus encodes as 1/(n_fit+1) at
    transform time and is listed in the result's `unseen`.
    """

    def __init__(self, tables, scaler):
        self.tables = tables
        self.scaler = scaler

    @classmethod
    def fit(cls, records) -> "CorpusEncoder":
        tables = {f: fit_frequency(records, f) for f in CATEGORICAL_FEATURES}
        encoder = cls(tables, None)
        encoder.scaler = fit_scaler(encoder.frequency_matrix(records, []))
        return encoder

    def frequency_matrix(self, records, unseen: list) -> np.ndarray:
        """The pre-scaling matrix: frequency values plus raw price.  Each
        smoothed (row, feature, value) is appended to `unseen`."""
        n = len(records)
        out = np.empty((n, len(FEATURE_COLUMNS)), dtype=float)
        for j, feature in enumerate(FEATURE_COLUMNS):
            if feature == "price_usd":
                out[:, j] = [r.price_usd for r in records]
                continue
            table = self.tables[feature]
            fallback = 1.0 / (table.n_fit + 1)
            for i, value in enumerate(_column_values(records, feature)):
                freq = table.frequencies.get(value)
                if freq is None:
                    unseen.append((i, feature, value))
                    freq = fallback
                out[i, j] = freq
        return out

    def transform(self, records) -> EncodedMatrix:
        """Encode and scale records; labels come along when all rows have one."""
        if not records:
            raise DomainError("cannot transform an empty record list")
        unseen: list[tuple[int, str, str]] = []
        data = apply_scaler(self.frequency_matrix(records, unseen), self.scaler)
        labels = None
        if all(r.risk_score is not None for r in records):
            labels = np.array([int(r.risk_score) for r in records], dtype=int)
        return EncodedMatrix(
            data=data,
            columns=FEATURE_COLUMNS,
            labels=labels,
            stages=("frequency", "scale"),
            unseen=tuple(unseen),
        )

    def to_payload(self) -> dict:
        return {
            "unseen_policy": UNSEEN_POLICY,
            "features": {
                f: {
                    "frequencies": self.tables[f].frequencies,
                    "n_fit": self.tables[f].n_fit,
                }
                for f in CATEGORICAL_FEATURES
            },
            "scaler": {
                "columns": list(FEATURE_COLUMNS),
                "means": self.scaler.means.tolist(),
                "stds": self.scaler.stds.tolist(),
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CorpusEncoder":
        if payload["unseen_policy"] != UNSEEN_POLICY:
            raise ValueError(f"unseen_policy {payload['unseen_policy']!r}, "
                             f"expected {UNSEEN_POLICY!r}")
        features = payload["features"]
        tables = {
            f: FrequencyTable(
                frequencies={k: float(v) for k, v in features[f]["frequencies"].items()},
                n_fit=features[f]["n_fit"],
            )
            for f in CATEGORICAL_FEATURES
        }
        scaler = StandardScaler(
            means=np.array(payload["scaler"]["means"], dtype=float),
            stds=np.array(payload["scaler"]["stds"], dtype=float),
        )
        return cls(tables, scaler)

    def fingerprint(self) -> str:
        """Stable digest of the fitted state; model files pin this."""
        canonical = json.dumps(self.to_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CorrelationReport:
    """Pairwise Pearson correlations with unit diagonal.

    Constant columns get correlation 0 against everything by convention
    and are listed in `constant`.
    """

    names: tuple[str, ...]
    matrix: np.ndarray
    constant: tuple[str, ...] = ()


def correlation_matrix(
    encoded: EncodedMatrix, include_label: bool = False
) -> CorrelationReport:
    """Pearson correlation over the encoded columns (optionally the label)."""
    data = np.asarray(encoded.data, dtype=float)
    names = list(encoded.columns)
    if include_label:
        if encoded.labels is None:
            raise DomainError("correlation with label requested on unlabelled rows")
        data = np.column_stack([data, encoded.labels.astype(float)])
        names.append("risk_score")
    if data.shape[0] < 2:
        raise DomainError("correlation needs at least two rows")
    scaler = fit_scaler(data)
    constant = scaler.constant  # zero-spread columns correlate 0 by convention
    normed = apply_scaler(data, scaler)
    corr = (normed.T @ normed) / data.shape[0]
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    np.fill_diagonal(corr, 1.0)
    corr = np.clip(corr, -1.0, 1.0)
    return CorrelationReport(
        names=tuple(names),
        matrix=corr,
        constant=tuple(n for n, flag in zip(names, constant) if flag),
    )
