"""Spans around calls into the iotrisk layers, recorded from outside the package.

Each public function is replaced, for the length of a traced pass, at the
name its caller looks it up by: the ensembles call ``fit_tree`` through
``iotrisk.ensemble``, so that is the attribute wrapped, while the stump
probe calls ``iotrisk.tree.fit_tree`` and stays untraced.  The originals
are put back afterwards and the package source is never edited.

A span records its name, start, end, parent span, thread and the request
it belongs to.  Spans opened in a worker thread have no parent; the
request id ties them to the call that started the pool.
"""

import functools
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("dataset.load_corpus_s", "s", "lower"),
    ("dataset.synthesize_corpus_s", "s", "lower"),
    ("encoding.fit_s", "s", "lower"),
    ("encoding.transform_s", "s", "lower"),
    ("dimred.tsne_calibration_s", "s", "lower"),
    ("dimred.tsne_iter_ms", "ms", "lower"),
    ("dimred.tsne_s", "s", "lower"),
    ("dimred.kmeans_fit_s", "s", "lower"),
    ("dimred.kmeans_iters", "count", "lower"),
    ("tree.fit_tree_calls", "count", "lower"),
    ("tree.fit_tree_s", "s", "lower"),
    ("tree.fit_tree_ms.p50", "ms", "lower"),
    ("tree.nodes", "count", "lower"),
    ("tree.single_leaf_frac", "fraction", "lower"),
    ("tree.predict_value_calls", "count", "lower"),
    ("tree.predict_value_s", "s", "lower"),
    ("tree.predict_ns_per_tree_row", "ns", "lower"),
    ("tree.stump_ms.n60", "ms", "lower"),
    ("tree.stump_ms.n300", "ms", "lower"),
    ("tree.stump_ms.n1153", "ms", "lower"),
    ("ensemble.gbdt_fit_s", "s", "lower"),
    ("ensemble.gbdt_stage_ms", "ms", "lower"),
    ("ensemble.forest_fit_s.rfc", "s", "lower"),
    ("ensemble.forest_fit_s.etc", "s", "lower"),
    ("ensemble.adaboost_fit_s", "s", "lower"),
    ("ensemble.predict_proba_s", "s", "lower"),
    ("evaluation.cross_validate_s", "s", "lower"),
    ("evaluation.fit_model_calls", "count", "lower"),
    ("evaluation.fit_model_s.p50", "s", "lower"),
    ("evaluation.worker_busy_frac", "fraction", "higher"),
    ("pipeline.fit_pipeline_s", "s", "lower"),
    ("pipeline.build_design_s", "s", "lower"),
    ("pipeline.predict_devices_s", "s", "lower"),
    ("artifacts.save_model_s", "s", "lower"),
    ("artifacts.load_model_s", "s", "lower"),
    ("artifacts.load_encoder_s", "s", "lower"),
    ("artifacts.model_bytes", "bytes", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.coverage_frac", "fraction", "higher"),
]

STUMP_SIZES = (60, 300, 1153)


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans; None at a thread's root
    thread: int
    request: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[1])[0])}


def _tree(args, kwargs, tree):
    return {"nodes": tree.node_count()}


def _stages(args, kwargs, model):
    return {"stages": len(model.stages)}


def _variant(args, kwargs, model):
    return {"variant": model.variant}


def _kmeans(args, kwargs, model):
    return {"n_iter": model.n_iter}


def _threads(args, kwargs, result):
    return {"threads": kwargs.get("threads", 1)}


def _file_size(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _targets():
    """(owner, attribute, span name, attrs function) for every wrapped call."""
    import iotrisk.cli as cli
    import iotrisk.dimred as dimred
    import iotrisk.encoding as encoding
    import iotrisk.ensemble as ensemble
    import iotrisk.evaluation as evaluation
    import iotrisk.pipeline as pipeline
    import iotrisk.tree as tree

    return [
        (cli, "load_corpus", "dataset.load_corpus", None),
        (cli, "load_devices", "dataset.load_devices", None),
        (cli, "synthesize_corpus", "dataset.synthesize_corpus", None),
        (encoding.CorpusEncoder, "fit", "encoding.fit", None),
        (encoding.CorpusEncoder, "transform", "encoding.transform", None),
        (pipeline, "tsne_embed", "dimred.tsne", None),
        (dimred, "joint_probabilities", "dimred.tsne_calibration", None),
        (pipeline, "kmeans_fit", "dimred.kmeans_fit", _kmeans),
        (ensemble, "fit_tree", "tree.fit_tree", _tree),
        (tree.DecisionTree, "predict_value", "tree.predict_value", _rows),
        (ensemble, "gbdt_fit", "ensemble.gbdt_fit", _stages),
        (ensemble, "forest_fit", "ensemble.forest_fit", _variant),
        (ensemble, "adaboost_fit", "ensemble.adaboost_fit", None),
        (ensemble.GbdtModel, "predict_proba", "ensemble.predict_proba", None),
        (ensemble.ForestModel, "predict_proba", "ensemble.predict_proba", None),
        (ensemble.AdaboostModel, "predict_proba", "ensemble.predict_proba", None),
        (ensemble.VotingModel, "predict_proba", "ensemble.predict_proba", None),
        (cli, "cross_validate", "evaluation.cross_validate", _threads),
        (evaluation, "fit_model", "evaluation.fit_model", None),
        (cli, "fit_pipeline", "pipeline.fit_pipeline", None),
        (cli, "build_design", "pipeline.build_design", None),
        (pipeline, "build_design", "pipeline.build_design", None),
        (cli, "predict_devices", "pipeline.predict_devices", None),
        (cli, "save_model", "artifacts.save_model", _file_size),
        (cli, "save_encoder", "artifacts.save_encoder", None),
        (cli, "load_model", "artifacts.load_model", None),
        (cli, "load_encoder", "artifacts.load_encoder", None),
    ]


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0  # set by the caller before each request
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None,
                        threading.get_ident(), self.request)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, attrs in _targets():
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self.wrap(name, original.__func__, attrs))
                else:
                    replacement = self.wrap(name, original, attrs)
                setattr(owner, attr, replacement)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _union(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def _self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return [
        span.duration - _union((c.start, c.end) for c in children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called `name` with no ancestor of the same name."""
    picked = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name != name:
            parent = spans[parent].parent
        if parent is None:
            picked.append(span)
    return picked


def layer_metrics(spans: list[Span], traced_wall: float, untraced_wall: float,
                  tsne_iterations: int) -> dict[str, float]:
    """Per-layer figures from one traced pass; absent layers read 0."""
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def busy(group):
        return sum(s.duration for s in group)

    def total(name):
        return busy(by_name.get(name, []))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, []))

    trees = by_name.get("tree.fit_tree", [])
    self_time = _self_times(spans)
    tree_self = sum(t for s, t in zip(spans, self_time) if s.name == "tree.fit_tree")
    predicts = by_name.get("tree.predict_value", [])
    predicted_rows = attr_sum("tree.predict_value", "rows")
    tsne_calls = len(by_name.get("dimred.tsne", []))
    tsne_loop = total("dimred.tsne") - total("dimred.tsne_calibration")
    gbdt_stages = attr_sum("ensemble.gbdt_fit", "stages")
    forests = by_name.get("ensemble.forest_fit", [])
    fits = by_name.get("evaluation.fit_model", [])
    cv_capacity = sum(s.duration * s.attrs["threads"]
                      for s in by_name.get("evaluation.cross_validate", []))
    saves = by_name.get("artifacts.save_model", [])
    covered = _union((s.start, s.end) for s in spans)

    return {
        "dataset.load_corpus_s": total("dataset.load_corpus"),
        "dataset.synthesize_corpus_s": total("dataset.synthesize_corpus"),
        "encoding.fit_s": total("encoding.fit"),
        "encoding.transform_s": total("encoding.transform"),
        "dimred.tsne_calibration_s": total("dimred.tsne_calibration"),
        "dimred.tsne_iter_ms": (
            1000.0 * tsne_loop / (tsne_calls * tsne_iterations) if tsne_calls else 0.0
        ),
        "dimred.tsne_s": total("dimred.tsne"),
        "dimred.kmeans_fit_s": total("dimred.kmeans_fit"),
        "dimred.kmeans_iters": attr_sum("dimred.kmeans_fit", "n_iter"),
        "tree.fit_tree_calls": len(trees),
        "tree.fit_tree_s": tree_self,
        "tree.fit_tree_ms.p50": (
            1000.0 * statistics.median(s.duration for s in trees) if trees else 0.0
        ),
        "tree.nodes": attr_sum("tree.fit_tree", "nodes"),
        "tree.single_leaf_frac": (
            sum(s.attrs["nodes"] == 1 for s in trees) / len(trees) if trees else 0.0
        ),
        "tree.predict_value_calls": len(predicts),
        "tree.predict_value_s": total("tree.predict_value"),
        "tree.predict_ns_per_tree_row": (
            1e9 * total("tree.predict_value") / predicted_rows if predicted_rows else 0.0
        ),
        "ensemble.gbdt_fit_s": total("ensemble.gbdt_fit"),
        "ensemble.gbdt_stage_ms": (
            1000.0 * total("ensemble.gbdt_fit") / gbdt_stages if gbdt_stages else 0.0
        ),
        "ensemble.forest_fit_s.rfc": busy(
            s for s in forests if s.attrs["variant"] == "random_forest"),
        "ensemble.forest_fit_s.etc": busy(
            s for s in forests if s.attrs["variant"] == "extra_trees"),
        "ensemble.adaboost_fit_s": total("ensemble.adaboost_fit"),
        "ensemble.predict_proba_s": busy(
            _outermost(spans, "ensemble.predict_proba")),
        "evaluation.cross_validate_s": total("evaluation.cross_validate"),
        "evaluation.fit_model_calls": len(fits),
        "evaluation.fit_model_s.p50": (
            statistics.median(s.duration for s in fits) if fits else 0.0
        ),
        "evaluation.worker_busy_frac": (
            total("evaluation.fit_model") / cv_capacity if cv_capacity else 0.0
        ),
        "pipeline.fit_pipeline_s": total("pipeline.fit_pipeline"),
        "pipeline.build_design_s": total("pipeline.build_design"),
        "pipeline.predict_devices_s": total("pipeline.predict_devices"),
        "artifacts.save_model_s": total("artifacts.save_model"),
        "artifacts.load_model_s": total("artifacts.load_model"),
        "artifacts.load_encoder_s": total("artifacts.load_encoder"),
        "artifacts.model_bytes": saves[-1].attrs["bytes"] if saves else 0,
        "cli.other_s": traced_wall - covered,
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.coverage_frac": covered / traced_wall,
    }


def stump_probe(seed: int, repeats: int = 25) -> dict[str, float]:
    """Median time of a depth-1 regression tree on seeded row subsets of
    the bundled corpus: split-search cost by node size."""
    from iotrisk.dataset import bundled_corpus_path, load_corpus
    from iotrisk.encoding import CorpusEncoder
    from iotrisk.tree import TreeParams, fit_tree

    records, _ = load_corpus(bundled_corpus_path())
    X = CorpusEncoder.fit(records).transform(records).data
    labels = np.array([int(r.risk_score) for r in records])
    residual = (labels == labels.max()) - (labels == labels.max()).mean()
    rng = np.random.default_rng(seed)
    params = TreeParams(max_depth=1)
    figures = {}
    for size in STUMP_SIZES:
        rows = np.sort(rng.choice(len(X), size=min(size, len(X)), replace=False))
        Xs, ys = X[rows], residual[rows]
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fit_tree(Xs, ys, params=params, mode="regression")
            times.append(time.perf_counter() - start)
        figures[f"tree.stump_ms.n{size}"] = 1000.0 * statistics.median(times)
    return figures


def import_probe(env: dict, cwd, repeats: int = 5) -> float:
    """Median wall-clock for a fresh interpreter to import iotrisk.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import iotrisk.cli"],
                       env=env, cwd=cwd, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
