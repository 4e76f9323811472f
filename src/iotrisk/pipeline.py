"""Pipeline assembly: mode handling (plain / t-SNE / PCA), the reduction
stage and its stored form, parameter profiles, model fitting over a
corpus, and device scoring.

The reduced modes embed the scaled matrix, cluster the embedding with
k-means, and append the cluster id as a frequency-encoded, rescaled
column; the classifier then trains on the augmented matrix.  Embedding
and clustering run over the full matrix before any split, mirroring the
staged flow the evaluation tables assume.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import FEATURE_COLUMNS, DeviceRecord
from .dimred import (
    KmeansModel,
    PcaModel,
    TsneConfig,
    check_cluster_count,
    cluster_frequencies,
    kmeans_assign,
    kmeans_fit,
    pca_fit,
    pca_transform,
    tsne_embed,
)
from .encoding import (CorpusEncoder, EncodedMatrix, StandardScaler, apply_scaler,
                       checked_array, fit_scaler)
from .ensemble import ModelSpec, fit_model, model_members
from .errors import ConfigError, DataFormatError
from .nvd import RiskClass
from .util import derived_seed

MODES = ("wo_dr", "tsne", "pca")
FAMILIES = ("gbdt", "rfc", "voting")
PROFILES = ("desk", "paper")

# the desk row of every family; the paper profile differs only in GBDT's
_DESK_PARAMS = {
    "gbdt": {"n_stages": 300, "learning_rate": 0.05, "max_depth": 6,
             "min_impurity_decrease": 1e-3},
    "rfc": {"n_trees": 100, "class_weights": "balanced"},
    "etc": {"n_trees": 100},
    "abc": {"n_rounds": 50, "base_depth": 1},
}
_PAPER_GBDT = {"n_stages": 10000, "learning_rate": 0.01, "max_depth": 500,
               "min_impurity_decrease": 1e-2}
VOTING_MEMBERS = ("abc", "gbdt", "etc", "rfc")


def profile_params(family: str, profile: str, overrides: dict | None = None) -> dict:
    """Resolved keyword parameters for a model family and profile."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}")
    if family == "voting":
        if overrides:
            raise ConfigError("parameter overrides apply to a single model family")
        return {"members": [{"family": f, "params": profile_params(f, profile)}
                            for f in VOTING_MEMBERS]}
    if family not in _DESK_PARAMS:
        raise ConfigError(f"unknown model family {family!r}")
    paper_gbdt = (family, profile) == ("gbdt", "paper")
    params = dict(_PAPER_GBDT if paper_gbdt else _DESK_PARAMS[family])
    params.update(overrides or {})
    return params


@dataclass
class PipelineConfig:
    """Everything a train / evaluate / cv run needs, seed included."""

    mode: str = "wo_dr"
    family: str = "gbdt"
    profile: str = "desk"
    overrides: dict = field(default_factory=dict)
    seed: int = 0
    clusters: int = 4
    components: int | None = None
    k: int = 5
    repeats: int = 2
    test_fraction: float = 0.2

    def validate(self) -> "PipelineConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {'/'.join(MODES)}, got {self.mode!r}")
        if self.family not in FAMILIES:
            raise ConfigError(
                f"model must be one of {'/'.join(FAMILIES)}, got {self.family!r}"
            )
        if self.seed is None:
            raise ConfigError("a seed is mandatory; there is no wall-clock seeding")
        # settings no data can satisfy; data-dependent bounds fail where used
        for name, low in (("clusters", 1), ("k", 2), ("repeats", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.components is not None and self.components < 1:
            raise ConfigError(f"components must be >= 1 or unset, got {self.components}")
        if not 0.0 < self.test_fraction < 1.0:  # also refuses NaN
            raise ConfigError(f"test fraction must be inside (0, 1), got {self.test_fraction}")
        model_members(self.model_spec())
        return self

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            family=self.family,
            params=profile_params(self.family, self.profile, self.overrides),
            seed=self.seed,
        )


@dataclass
class DimredArtifacts:
    """Fitted reduction stage; `apply` turns encoded rows into design rows."""

    mode: str
    pca: PcaModel | None = None
    kmeans: KmeansModel | None = None
    cluster_freqs: np.ndarray | None = None
    cluster_scaler: StandardScaler | None = None
    tsne_kl: tuple[float, float] | None = None

    def apply(self, encoded: EncodedMatrix, assignments=None) -> EncodedMatrix:
        """The design rows of encoded rows: unchanged without a reduction,
        else with each row's cluster appended as its scaled relative cluster
        size.  Rows without `assignments` take the fitted PCA and k-means."""
        if self.mode == "wo_dr":
            return encoded
        if assignments is None:
            if self.mode == "tsne":
                raise ConfigError("tsne-mode models cannot score new devices: the "
                                  "embedding has no out-of-sample transform")
            assignments = kmeans_assign(pca_transform(encoded.data, self.pca), self.kmeans)
        column = apply_scaler(self.cluster_freqs[assignments][:, None], self.cluster_scaler)
        return replace(encoded, data=np.column_stack([encoded.data, column]),
                       columns=encoded.columns + ("cluster",))

    def to_payload(self) -> dict:
        payload: dict = {"mode": self.mode}
        if self.pca is not None:
            payload["pca"] = {
                "components": self.pca.components.tolist(),
                "explained_variance_ratio": self.pca.explained_variance_ratio.tolist(),
                "means": self.pca.means.tolist(),
            }
        if self.kmeans is not None:
            payload["kmeans"] = {"centroids": self.kmeans.centroids.tolist(),
                                 "seed": self.kmeans.seed}
            payload["cluster_freqs"] = self.cluster_freqs.tolist()
            payload["cluster_scaler"] = self.cluster_scaler.to_payload()
        if self.tsne_kl is not None:
            payload["tsne_kl"] = list(self.tsne_kl)
        return payload

    @classmethod
    def from_payload(cls, payload: dict, mode) -> "DimredArtifacts":
        """The stored stage of a model of `mode`, checked to be usable; its
        k-means keeps the centroids and seed, not the fit's assignments."""
        if mode not in MODES or payload["mode"] != mode:
            raise DataFormatError(
                f"model mode {mode!r} with a dimred stage of mode {payload['mode']!r}"
            )
        artifacts = cls(mode=mode)
        if mode == "wo_dr":
            return artifacts
        width = None  # of the space k-means ran in; a t-SNE embedding's is free
        if mode == "pca":
            stored = payload["pca"]
            n_features = len(FEATURE_COLUMNS)
            components = checked_array(stored["components"], "pca components",
                                       (None, n_features))
            width = len(components)
            artifacts.pca = PcaModel(
                components=components,
                explained_variance_ratio=checked_array(
                    stored["explained_variance_ratio"], "pca explained_variance_ratio",
                    (width,)),
                means=checked_array(stored["means"], "pca means", (n_features,)),
            )
        centroids = checked_array(payload["kmeans"]["centroids"], "k-means centroids",
                                  (None, width))
        artifacts.kmeans = KmeansModel(centroids=centroids, assignments=np.empty(0, dtype=int),
                                       inertia=0.0, n_iter=0,
                                       seed=int(payload["kmeans"]["seed"]))
        artifacts.cluster_freqs = checked_array(payload["cluster_freqs"], "cluster_freqs",
                                                (len(centroids),))
        artifacts.cluster_scaler = StandardScaler.from_payload(payload["cluster_scaler"],
                                                               "cluster_scaler", 1)
        if "tsne_kl" in payload:
            artifacts.tsne_kl = tuple(checked_array(payload["tsne_kl"], "tsne_kl", (2,)).tolist())
        return artifacts


def build_design(
    encoded: EncodedMatrix, config: PipelineConfig
) -> tuple[EncodedMatrix, DimredArtifacts]:
    """Apply the reduction stage of the config's mode to an encoded matrix."""
    if config.mode not in MODES:
        raise ConfigError(f"unknown mode {config.mode!r}")
    artifacts = DimredArtifacts(mode=config.mode)
    if config.mode == "wo_dr":
        return artifacts.apply(encoded), artifacts
    check_cluster_count(config.clusters, len(encoded.data))  # before the reduction runs
    if config.mode == "tsne":
        embedding = tsne_embed(encoded.data, TsneConfig(seed=derived_seed(config.seed, 101)))
        points = embedding.coordinates
        artifacts.tsne_kl = (embedding.kl_initial, embedding.kl_final)
    else:
        artifacts.pca = pca_fit(encoded.data, config.components)
        points = pca_transform(encoded.data, artifacts.pca)
    artifacts.kmeans = kmeans_fit(points, config.clusters, seed=derived_seed(config.seed, 102))
    assignments = artifacts.kmeans.assignments
    artifacts.cluster_freqs = cluster_frequencies(
        assignments, len(artifacts.kmeans.centroids)
    )
    artifacts.cluster_scaler = fit_scaler(artifacts.cluster_freqs[assignments][:, None])
    return artifacts.apply(encoded, assignments), artifacts


def fit_design(
    records: list[DeviceRecord], config: PipelineConfig
) -> tuple[CorpusEncoder, EncodedMatrix, DimredArtifacts]:
    """Fit the encoder on a labelled corpus and build the design matrix of
    the config's mode over all of its rows."""
    encoder = CorpusEncoder.fit(records)
    design, artifacts = build_design(encoder.transform(records), config)
    return encoder, design, artifacts


@dataclass
class PipelineModel:
    """A fitted classifier plus the stage artifacts needed to score rows."""

    mode: str
    family: str
    seed: int
    params: dict
    dimred: DimredArtifacts
    model: object


def fit_pipeline(
    records: list[DeviceRecord], config: PipelineConfig, threads: int = 1
) -> tuple[CorpusEncoder, PipelineModel]:
    """Fit encoder, reduction stage and classifier on a labelled corpus,
    the classifier in `threads` worker processes (see `fit_model`)."""
    config.validate()
    encoder, design, artifacts = fit_design(records, config)
    spec = config.model_spec()
    model = fit_model(spec, design.data, design.labels, threads=threads)
    return encoder, PipelineModel(
        mode=config.mode,
        family=config.family,
        seed=config.seed,
        params=spec.params,
        dimred=artifacts,
        model=model,
    )


@dataclass
class Prediction:
    risk: RiskClass
    probabilities: np.ndarray
    warnings: tuple[str, ...] = ()


def predict_devices(
    encoder: CorpusEncoder, pipeline: PipelineModel, records
) -> list[Prediction]:
    """Score device rows; unseen-category smoothing is reported per row."""
    design = pipeline.dimred.apply(encoder.transform(records))
    probabilities = pipeline.model.predict_proba(design.data)
    labels = np.argmax(probabilities, axis=1)
    notes: dict[int, list[str]] = {}
    for row, feature, value in design.unseen:
        notes.setdefault(row, []).append(
            f"{feature}={value!r} was not in the training corpus"
        )
    return [
        Prediction(
            risk=RiskClass(int(labels[i])),
            probabilities=probabilities[i],
            warnings=tuple(notes.get(i, ())),
        )
        for i in range(len(records))
    ]
