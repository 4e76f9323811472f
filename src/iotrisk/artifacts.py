"""The file envelope of versioned encoders and trained models: canonical
JSON (sorted keys, fixed separators, so identical runs write identical
bytes) with a format string, and for a model the class list and the
fingerprint of its encoder, so loading rejects a mismatched sidecar.
Each section reads and writes itself: the encoder, the reduction stage
(`pipeline.DimredArtifacts`) and the classifier, whose tree arrays are
base64 little-endian binary (`tree.TreeSet`).  A payload that does not
parse is a DataFormatError naming the file.
"""

import json
from contextlib import contextmanager
from pathlib import Path

from .encoding import CorpusEncoder
from .ensemble import model_from_payload
from .errors import DataFormatError
from .nvd import CLASS_NAMES
from .pipeline import DimredArtifacts, PipelineModel

ENCODER_FORMAT = "iotrisk-encoders/2"
MODEL_FORMAT = "iotrisk-model/5"

# what a payload with a missing key or a mistyped value raises while parsed
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def _read(path: str | Path, fmt: str, hint: str = "") -> dict:
    """The JSON object in `path`, checked to carry format `fmt`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON ({exc.msg})") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != fmt:
        raise DataFormatError(f"{path}: expected format {fmt}, got {found!r}{hint}")
    return payload


@contextmanager
def _named(path: str | Path, what: str):
    """Re-raise a failure to parse the `what` payload as an error naming `path`."""
    try:
        yield
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    except _MALFORMED as exc:
        raise DataFormatError(f"{path}: malformed {what} payload ({exc!r})") from exc


def save_encoder(path: str | Path, encoder: CorpusEncoder) -> None:
    payload = {"format": ENCODER_FORMAT}
    payload.update(encoder.to_payload())
    # the sidecar is meant to be read by people; fingerprints hash the
    # canonical compact form, so the indentation changes nothing
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_encoder(path: str | Path) -> CorpusEncoder:
    payload = _read(path, ENCODER_FORMAT)
    with _named(path, "encoder"):
        return CorpusEncoder.from_payload(payload)


def _check_classes(model) -> None:
    """Every model in a file, each voting member too, must score exactly
    the file's classes."""
    for member in getattr(model, "members", [model]):
        if member.n_classes != len(CLASS_NAMES):
            raise DataFormatError(f"{member.family} model scores {member.n_classes} "
                                  f"classes, not the file's {len(CLASS_NAMES)}")


def save_model(path: str | Path, pipeline: PipelineModel, encoder_fingerprint: str) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "classes": CLASS_NAMES,
        "encoder_fingerprint": encoder_fingerprint,
        "mode": pipeline.mode,
        "family": pipeline.family,
        "seed": pipeline.seed,
        "params": pipeline.params,
        "dimred": pipeline.dimred.to_payload(),
        "model": pipeline.model.to_payload(),
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(payload, out, sort_keys=True, separators=(",", ":"))
        out.write("\n")


def load_model(path: str | Path, expected_fingerprint: str | None = None) -> PipelineModel:
    payload = _read(path, MODEL_FORMAT, "; retrain the model")
    with _named(path, "model"):
        if payload.get("classes") != list(CLASS_NAMES):
            raise DataFormatError(f"unexpected class ordering {payload.get('classes')}")
        fingerprint = payload.get("encoder_fingerprint")
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise DataFormatError("encoder fingerprint mismatch; the model was trained "
                                  "with a different encoder")
        pipeline = PipelineModel(
            mode=payload["mode"],
            family=payload["family"],
            seed=int(payload["seed"]),
            params=payload["params"],
            dimred=DimredArtifacts.from_payload(payload["dimred"], payload["mode"]),
            model=model_from_payload(payload["model"]),
        )
        _check_classes(pipeline.model)
        return pipeline
