"""Versioned on-disk formats for encoders and trained models.

Both artifacts are canonical JSON (sorted keys, fixed separators), so a
run with identical inputs and seed writes byte-identical files.  A model
file pins the fingerprint of the encoder it was trained with, and loading
rejects a mismatched sidecar.  Any payload that does not parse into a
model or an encoder is a DataFormatError naming the file.
"""

import json
from pathlib import Path

import numpy as np

from .dataset import FEATURE_COLUMNS
from .dimred import KmeansModel, PcaModel
from .encoding import CorpusEncoder, StandardScaler
from .ensemble import model_from_payload
from .errors import DataFormatError
from .nvd import RISK_CLASSES
from .pipeline import MODES, DimredArtifacts, PipelineModel

ENCODER_FORMAT = "iotrisk-encoders/2"
MODEL_FORMAT = "iotrisk-model/2"

# what a payload with a missing key or a mistyped value raises while parsed
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)

CLASS_ORDERING = [c.name for c in RISK_CLASSES]


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def save_encoder(path: str | Path, encoder: CorpusEncoder) -> None:
    payload = {"format": ENCODER_FORMAT}
    payload.update(encoder.to_payload())
    # the sidecar is meant to be read by people; fingerprints hash the
    # canonical compact form, so the indentation changes nothing
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_encoder(path: str | Path) -> CorpusEncoder:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc.msg})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != ENCODER_FORMAT:
        raise DataFormatError(f"{path}: expected format {ENCODER_FORMAT}, got {found!r}")
    try:
        return CorpusEncoder.from_payload(payload)
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed encoder payload ({exc!r})") from exc


def _scaler_payload(scaler: StandardScaler) -> dict:
    return {"means": scaler.means.tolist(), "stds": scaler.stds.tolist()}


def _array(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a finite float array of `shape`, where None stands for
    any non-zero length."""
    array = np.asarray(value, dtype=float)
    if array.ndim != len(shape) or any(
        found == 0 or want not in (None, found)
        for found, want in zip(array.shape, shape)
    ):
        expected = ", ".join("*" if n is None else str(n) for n in shape)
        raise DataFormatError(f"{what} has shape {array.shape}, expected ({expected})")
    if not np.isfinite(array).all():
        raise DataFormatError(f"{what} holds a non-finite value")
    return array


def _cluster_scaler_from(payload) -> StandardScaler:
    stds = _array(payload["stds"], "cluster_scaler stds", (1,))
    return StandardScaler(
        means=_array(payload["means"], "cluster_scaler means", (1,)),
        stds=stds,
        constant=stds == 0.0,
    )


def _dimred_payload(artifacts: DimredArtifacts) -> dict:
    payload: dict = {"mode": artifacts.mode}
    if artifacts.pca is not None:
        payload["pca"] = {
            "components": artifacts.pca.components.tolist(),
            "explained_variance_ratio": artifacts.pca.explained_variance_ratio.tolist(),
            "means": artifacts.pca.means.tolist(),
        }
    if artifacts.kmeans is not None:
        payload["kmeans"] = {
            "centroids": artifacts.kmeans.centroids.tolist(),
            "seed": artifacts.kmeans.seed,
        }
        payload["cluster_freqs"] = artifacts.cluster_freqs.tolist()
        payload["cluster_scaler"] = _scaler_payload(artifacts.cluster_scaler)
    if artifacts.tsne_kl is not None:
        payload["tsne_kl"] = list(artifacts.tsne_kl)
    return payload


def _dimred_from(payload: dict, mode) -> DimredArtifacts:
    """The reduction stage of a model of `mode`, checked to be usable."""
    if mode not in MODES or payload["mode"] != mode:
        raise DataFormatError(
            f"model mode {mode!r} with a dimred stage of mode {payload['mode']!r}"
        )
    artifacts = DimredArtifacts(mode=mode)
    if mode == "wo_dr":
        return artifacts
    width = None  # of the space k-means ran in; a t-SNE embedding's is free
    if mode == "pca":
        n_features = len(FEATURE_COLUMNS)
        components = _array(
            payload["pca"]["components"], "pca components", (None, n_features)
        )
        width = len(components)
        artifacts.pca = PcaModel(
            components=components,
            explained_variance_ratio=_array(
                payload["pca"]["explained_variance_ratio"],
                "pca explained_variance_ratio", (width,),
            ),
            means=_array(payload["pca"]["means"], "pca means", (n_features,)),
        )
    centroids = _array(
        payload["kmeans"]["centroids"], "k-means centroids", (None, width)
    )
    artifacts.kmeans = KmeansModel(
        centroids=centroids,
        assignments=np.empty(0, dtype=int),
        inertia=0.0,
        n_iter=0,
        seed=int(payload["kmeans"]["seed"]),
    )
    artifacts.cluster_freqs = _array(
        payload["cluster_freqs"], "cluster_freqs", (len(centroids),)
    )
    artifacts.cluster_scaler = _cluster_scaler_from(payload["cluster_scaler"])
    if "tsne_kl" in payload:
        artifacts.tsne_kl = tuple(payload["tsne_kl"])
    return artifacts


def save_model(
    path: str | Path, pipeline: PipelineModel, encoder_fingerprint: str
) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "classes": CLASS_ORDERING,
        "encoder_fingerprint": encoder_fingerprint,
        "mode": pipeline.mode,
        "family": pipeline.family,
        "seed": pipeline.seed,
        "params": pipeline.params,
        "dimred": _dimred_payload(pipeline.dimred),
        "model": pipeline.model.to_payload(),
    }
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def load_model(
    path: str | Path, expected_fingerprint: str | None = None
) -> PipelineModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc.msg})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MODEL_FORMAT:
        raise DataFormatError(f"{path}: expected format {MODEL_FORMAT}, got {found!r}")
    if payload.get("classes") != CLASS_ORDERING:
        raise DataFormatError(f"{path}: unexpected class ordering {payload.get('classes')}")
    if (
        expected_fingerprint is not None
        and payload.get("encoder_fingerprint") != expected_fingerprint
    ):
        raise DataFormatError(
            f"{path}: encoder fingerprint mismatch; the model was trained "
            "with a different encoder"
        )
    try:
        return PipelineModel(
            mode=payload["mode"],
            family=payload["family"],
            seed=int(payload["seed"]),
            params=payload["params"],
            dimred=_dimred_from(payload["dimred"], payload["mode"]),
            model=model_from_payload(payload["model"]),
        )
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed model payload ({exc!r})") from exc
