"""The bench tracer wraps package functions by name; renaming or moving
one of them must fail here, not only in a traced bench run."""

import csv
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


def test_traced_cv_of_two_modes_records_one_cross_validate_span(tmp_path):
    tracing = load_tracing()
    corpus = tmp_path / "corpus.csv"
    assert cli.main(["build", "--synthesize", "--total", "120", "--seed", "3",
                     "--signal", "0.8", "--out", str(corpus)]) == 0
    with tracing.Tracer().installed() as tracer:
        assert cli.main(["cv", "--corpus", str(corpus), "--seed", "7", "--k", "2",
                         "--repeats", "1", "--modes", "wo_dr,pca", "--threads", "2",
                         "--param", "n_stages=3"]) == 0
    spans = [s for s in tracer.spans if s.name == "evaluation.cross_validate"]
    assert [s.attrs for s in spans] == [{"threads": 2}]


def test_traced_train_and_predict_record_every_attr_the_bench_reads(tmp_path):
    tracing = load_tracing()
    corpus, devices, model = tmp_path / "corpus.csv", tmp_path / "devices.csv", tmp_path / "m.json"
    assert cli.main(["build", "--synthesize", "--total", "120", "--seed", "3",
                     "--signal", "0.8", "--out", str(corpus)]) == 0
    with corpus.open(encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    label = table[0].index("risk_score")
    with devices.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(row[:label] + row[label + 1:] for row in table[:6])
    with tracing.Tracer().installed() as tracer:
        assert cli.main(["train", "--corpus", str(corpus), "--model", "voting",
                         "--seed", "7", "--out", str(model)]) == 0
        fitted = len(tracer.spans)
        assert cli.main(["predict", "--model", str(model), "--encoders",
                         f"{model}.encoders.json", "--input", str(devices)]) == 0
    fit, scored = tracer.spans[:fitted], tracer.spans[fitted:]
    assert [s.attrs for s in fit if s.name == "ensemble.gbdt_fit"] == [{"stages": 300}]
    assert sorted(s.attrs["variant"] for s in fit if s.name == "ensemble.forest_fit") == [
        "extra_trees", "random_forest"]
    # the voting model, with each of its four members inside it
    assert [s.name for s in scored].count("ensemble.predict_proba") == 5
    assert len(tracing._outermost(tracer.spans, "ensemble.predict_proba")) == 1
    # models score their tree sets directly; only AdaBoost's fit-time
    # predict still scores one tree, once per fitted round
    abc = next(i for i, s in enumerate(fit) if s.name == "ensemble.adaboost_fit")
    rounds = [s for s in fit if s.name == "tree.fit_tree" and s.parent == abc]
    assert [s.parent for s in tracer.spans if s.name == "tree.predict_value"] == [abc] * len(rounds)
    figures = tracing.layer_metrics(tracer.spans, 1.0, 1.0, tsne_iterations=1000)
    for name in ("ensemble.gbdt_stage_ms", "ensemble.forest_fit_s.rfc",
                 "ensemble.forest_fit_s.etc", "ensemble.predict_proba_s",
                 "tree.predict_ns_per_tree_row"):
        assert figures[name] > 0, name


def test_stump_probe_times_every_node_size():
    figures = load_tracing().stump_probe(7, repeats=1)
    assert sorted(figures) == ["tree.stump_ms.n1153", "tree.stump_ms.n300", "tree.stump_ms.n60"]
    assert all(value > 0 for value in figures.values()), figures
