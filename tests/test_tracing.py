"""The bench tracer wraps package functions by name; renaming or moving
one of them must fail here, not only in a traced bench run."""

import importlib.util
from pathlib import Path

import numpy as np

import iotrisk.cli as cli
import iotrisk.ensemble as ensemble

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_every_target_and_restores_them():
    tracing = load_tracing()
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in tracing._targets()]
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    with tracing.Tracer().installed() as tracer:
        tree = ensemble.fit_tree(X, np.array([0, 0, 1, 1]),
                                 mode="classification", n_classes=2)
        tree.predict_value(X)
    spans = {span.name: span for span in tracer.spans}
    assert spans["tree.fit_tree"].attrs == {"nodes": tree.node_count()} == {"nodes": 3}
    assert spans["tree.predict_value"].attrs == {"rows": 4}
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_traced_cv_records_every_layer_of_its_path(tmp_path):
    tracing = load_tracing()
    corpus = tmp_path / "corpus.csv"
    assert cli.main(["build", "--synthesize", "--total", "120", "--seed", "3",
                     "--signal", "0.8", "--out", str(corpus)]) == 0
    with tracing.Tracer().installed() as tracer:
        assert cli.main(["cv", "--corpus", str(corpus), "--seed", "7", "--k", "2",
                         "--repeats", "1", "--param", "n_stages=3"]) == 0
    assert {span.name for span in tracer.spans} >= {
        "dataset.load_corpus", "encoding.fit", "pipeline.build_design",
        "evaluation.cross_validate", "evaluation.fit_model",
    }
