"""The bench tracer wraps package functions by name; renaming or moving
one of them must fail here, not only in a traced bench run."""

import importlib.util
from pathlib import Path

import numpy as np

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
