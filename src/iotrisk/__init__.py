"""iotrisk: severity-class prediction for IoT devices from publicly
observable features.

The library walks the whole pipeline: NVD feed ingestion, corpus
construction and synthesis, frequency encoding and scaling, optional
embedding/clustering stages, from-scratch tree ensembles, and repeated
stratified cross-validation with macro/micro metric reporting.  The
``iotrisk`` command drives the same stages from the shell.
"""

import os

# One BLAS thread for the process, set before the first numpy import:
# OpenBLAS rounds full-shape products differently at different thread
# counts, which exact t-SNE amplifies into another layout.  A caller that
# imported numpy first keeps its own BLAS threading.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .dataset import (
    CorpusSummary,
    DeviceRecord,
    SynthesisSpec,
    class_distribution,
    load_corpus,
    save_corpus,
    synthesize_corpus,
    validate,
)
from .dimred import (
    KmeansModel,
    PcaModel,
    TsneConfig,
    TsneEmbedding,
    kmeans_fit,
    pca_fit,
    pca_transform,
    tsne_embed,
)
from .encoding import (
    CorpusEncoder,
    EncodedMatrix,
    FrequencyTable,
    StandardScaler,
    apply_scaler,
    correlation_matrix,
    fit_frequency,
    fit_scaler,
)
from .ensemble import (
    AdaboostModel,
    ForestModel,
    GbdtModel,
    GbdtParams,
    ModelSpec,
    adaboost_fit,
    balanced_class_weights,
    fit_model,
    forest_fit,
    gbdt_fit,
    voting_predict,
)
from .errors import IotRiskError
from .evaluation import (
    FoldPlan,
    MetricsReport,
    TuneResult,
    ablation_study,
    compute_metrics,
    cross_validate,
    grid_search,
    make_fold_plan,
    stratified_split,
)
from .nvd import (
    CpeIdentity,
    CveEntry,
    RiskClass,
    filter_iot,
    parse_cpe_uri,
    parse_feed,
    severity_class,
)
from .pipeline import PipelineConfig, build_design, fit_pipeline, predict_devices
from .tree import DecisionTree, TreeParams, fit_tree

__version__ = "0.1.0"
