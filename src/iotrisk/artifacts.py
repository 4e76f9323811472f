"""Versioned on-disk formats for encoders and trained models.

Both artifacts are canonical JSON (sorted keys, fixed separators), so a
run with identical inputs and seed writes byte-identical files.  A model's
tree arrays are base64 strings of little-endian binary (`tree.TreeSet`),
so a load parses no float text.  A model file pins the fingerprint of the
encoder it was trained with, and loading rejects a mismatched sidecar.
Any payload that does not parse into a model or an encoder is a
DataFormatError naming the file.
"""

import json
from pathlib import Path

import numpy as np

from .dataset import FEATURE_COLUMNS
from .dimred import KmeansModel, PcaModel
from .encoding import CorpusEncoder, StandardScaler
from .ensemble import VotingModel, model_from_payload
from .errors import DataFormatError
from .nvd import CLASS_NAMES
from .pipeline import MODES, DimredArtifacts, PipelineModel

ENCODER_FORMAT = "iotrisk-encoders/2"
MODEL_FORMAT = "iotrisk-model/4"

# what a payload with a missing key or a mistyped value raises while parsed
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


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
        encoder = CorpusEncoder.from_payload(payload)
        # the values a transform divides by or looks up must be usable
        encoder.scaler = _scaler_from(payload["scaler"], "scaler", len(FEATURE_COLUMNS))
        for feature, table in encoder.tables.items():
            if type(table.n_fit) is not int or table.n_fit < 1:
                raise DataFormatError(f"{feature} n_fit is {table.n_fit!r}, not an integer >= 1")
            frequencies = _array([*table.frequencies.values()], f"{feature} frequencies", (None,))
            if not ((frequencies > 0) & (frequencies <= 1)).all():
                raise DataFormatError(f"{feature} frequencies hold a value outside (0, 1]")
        return encoder
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
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


def _scaler_from(payload, what: str, width: int) -> StandardScaler:
    """A scaler of `width` finite means and finite, non-negative stds."""
    scaler = StandardScaler(means=_array(payload["means"], f"{what} means", (width,)),
                            stds=_array(payload["stds"], f"{what} stds", (width,)))
    if (scaler.stds < 0).any():
        raise DataFormatError(f"{what} stds holds a negative value")
    return scaler


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
    artifacts.cluster_scaler = _scaler_from(payload["cluster_scaler"], "cluster_scaler", 1)
    if "tsne_kl" in payload:
        artifacts.tsne_kl = tuple(payload["tsne_kl"])
    return artifacts


def _check_classes(model) -> None:
    """Every model in a file, each voting member too, must score exactly
    the file's classes."""
    if isinstance(model, VotingModel):
        for member in model.members:
            _check_classes(member)
    elif model.n_classes != len(CLASS_NAMES):
        raise DataFormatError(f"{model.family} model scores {model.n_classes} "
                              f"classes, not the file's {len(CLASS_NAMES)}")


def save_model(
    path: str | Path, pipeline: PipelineModel, encoder_fingerprint: str
) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "classes": CLASS_NAMES,
        "encoder_fingerprint": encoder_fingerprint,
        "mode": pipeline.mode,
        "family": pipeline.family,
        "seed": pipeline.seed,
        "params": pipeline.params,
        "dimred": _dimred_payload(pipeline.dimred),
        "model": pipeline.model.to_payload(),
    }
    with open(path, "w", encoding="utf-8") as out:
        _write_json(out, payload)
        out.write("\n")


_SLICE = 1 << 16  # characters of a long string written at a time


def _write_json(out, value) -> None:
    """Write what json.dump(value, out, sort_keys=True, separators=(",", ":"))
    writes, piece by piece, so the whole text is never held at once, and a
    string in slices, so a base64 tree array is never copied whole."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        out.write("{")
        for i, key in enumerate(sorted(value)):
            out.write(("," if i else "") + json.dumps(key) + ":")
            _write_json(out, value[key])
        out.write("}")
    elif isinstance(value, (list, tuple)):
        out.write("[")
        for i, item in enumerate(value):
            out.write("," if i else "")
            _write_json(out, item)
        out.write("]")
    elif isinstance(value, str):  # escapes are per character, so slices join
        out.write('"')
        for start in range(0, len(value), _SLICE):
            out.write(json.dumps(value[start:start + _SLICE])[1:-1])
        out.write('"')
    else:
        out.write(json.dumps(value, sort_keys=True, separators=(",", ":")))


def load_model(
    path: str | Path, expected_fingerprint: str | None = None
) -> PipelineModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc.msg})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != MODEL_FORMAT:
        raise DataFormatError(f"{path}: expected format {MODEL_FORMAT}, got {found!r}; "
                              "retrain the model")
    if payload.get("classes") != list(CLASS_NAMES):
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
        pipeline = PipelineModel(
            mode=payload["mode"],
            family=payload["family"],
            seed=int(payload["seed"]),
            params=payload["params"],
            dimred=_dimred_from(payload["dimred"], payload["mode"]),
            model=model_from_payload(payload["model"]),
        )
        _check_classes(pipeline.model)
        return pipeline
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed model payload ({exc!r})") from exc
