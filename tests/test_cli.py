import base64
import contextlib
import gzip
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from iotrisk import cli, ensemble, evaluation, pipeline, util
from iotrisk.cli import build_parser, main
from iotrisk.dataset import CSV_HEADER
from iotrisk.ensemble import fit_model
from iotrisk.errors import TrainingError
from iotrisk.util import derived_seed

from conftest import feed_document, feed_item, src_env, tree_lists, tree_payload

DEVICE_HEADER = ",".join(c for c in CSV_HEADER if c != "risk_score")
QUICK = ["--param", "n_stages=15", "--param", "learning_rate=0.2",
         "--param", "max_depth=3"]


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.csv"
    rc = main(["build", "--synthesize", "--total", "160", "--seed", "3",
               "--signal", "0.8", "--out", str(path)])
    assert rc == 0
    return path


class TestParseArgs:
    def test_train_options(self):
        args = build_parser().parse_args(
            ["train", "--corpus", "c.csv", "--model", "gbdt", "--seed", "7",
             "--out", "m.json"]
        )
        assert args.command == "train"
        assert args.family == "gbdt" and args.seed == 7

    def test_cv_fold_options(self):
        args = build_parser().parse_args(
            ["cv", "--corpus", "c.csv", "--seed", "1", "--k", "5", "--repeats", "2"]
        )
        assert args.k == 5 and args.repeats == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--out", "m.json"], ["cv"], ["tune", "--grid", "g.json"],
        ["evaluate"], ["ablate"],
    ], ids=lambda argv: argv[0])
    def test_left_out_options_take_the_config_defaults(self, argv):
        args = build_parser().parse_args([*argv, "--corpus", "c.csv", "--seed", "7"])
        assert cli._pipeline_config(args) == pipeline.PipelineConfig(seed=7)

    def test_unknown_model_is_usage_error(self, capsys):
        rc = main(["train", "--corpus", "c.csv", "--seed", "1",
                   "--model", "xgb", "--out", "m.json"])
        assert rc == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["cv", "--corpus", "c.csv", "--seed", "1", "--wat"]) == 2

    def test_missing_seed_is_usage_error(self):
        assert main(["train", "--corpus", "c.csv", "--out", "m.json"]) == 2


class TestBuild:
    def test_synthesize_summary(self, corpus, capsys):
        assert corpus.exists()

    def test_needs_input_or_synthesize(self, tmp_path):
        assert main(["build", "--out", str(tmp_path / "x.csv")]) == 2

    def test_validates_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,corpus\n1,2,3\n")
        rc = main(["build", "--input", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "header" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "missing.csv"),
                   "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--fractions", "nan,0.5,0.25,0.25"],
        ["--total", "0"],
        ["--total", "-5"],
        ["--fractions", "1.5,-0.5,0,0"],
        ["--fractions", "a,b,c,d"],
    ], ids=["nan_fraction", "zero_total", "negative_total", "negative_fraction",
            "not_a_number"])
    def test_bad_synthesis_input_is_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "corpus.csv"
        with _deadline(30):  # a NaN fraction used to loop forever
            rc = main(["build", "--synthesize", "--seed", "1", *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestUndecodableInput:
    """A reader given bytes that are not UTF-8, or a truncated gzip feed,
    exits 3 with an error line."""

    @pytest.fixture
    def files(self, corpus, tmp_path):
        model = tmp_path / "m.json"
        assert main(["train", "--corpus", str(corpus), "--model", "gbdt", "--seed", "7",
                     "--out", str(model), *QUICK]) == 0
        devices = tmp_path / "devices.csv"
        devices.write_text(DEVICE_HEADER + "\nbrand_000,type_000,SmartHome,49.0,wifi,"
                           "Remote,Yes,No,wifi_2_4ghz,None,false\n")
        feed = tmp_path / "feed.json"
        feed.write_text(feed_document([feed_item()]))
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("category,pattern\ncaf\xe9=1\n".encode("latin-1"))
        truncated = tmp_path / "feed.json.gz"
        truncated.write_bytes(gzip.compress(feed.read_bytes())[:-12])
        return {"corpus": corpus, "model": model, "encoders": f"{model}.encoders.json",
                "devices": devices, "feed": feed, "bad": bad, "truncated": truncated,
                "out": tmp_path / "out.csv"}

    READERS = {
        "corpus": "train --corpus {bad} --seed 1 --out {out}",
        "devices": "predict --model {model} --encoders {encoders} --input {bad}",
        "model": "predict --model {bad} --encoders {encoders} --input {devices}",
        "encoders": "predict --model {model} --encoders {bad} --input {devices}",
        "rules": "ingest --feed {feed} --rules {bad} --out {out}",
        "feed": "ingest --feed {bad} --out {out}",
        "truncated_gz_feed": "ingest --feed {truncated} --out {out}",
        "config": "cv --config {bad} --corpus {corpus}",
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_exits_3(self, files, capsys, reader):
        rc = main(self.READERS[reader].format(**files).split())
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestTrainPredict:
    def test_round_trip_with_unseen_warning(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        rc = main(["train", "--corpus", str(corpus), "--model", "gbdt",
                   "--seed", "7", "--out", str(model), *QUICK])
        assert rc == 0
        assert model.exists() and (tmp_path / "model.json.encoders.json").exists()

        devices = tmp_path / "devices.csv"
        devices.write_text(
            DEVICE_HEADER
            + "\nunseen_brand,type_000,SmartHome,49.99,wifi,Remote,Yes,No,"
            "wifi_2_4ghz,None,false\n"
        )
        out = tmp_path / "predictions.csv"
        rc = main(["predict", "--model", str(model),
                   "--encoders", str(model) + ".encoders.json",
                   "--input", str(devices), "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("row,predicted,p_Low")
        cells = lines[1].split(",")
        probabilities = [float(v) for v in cells[2:6]]
        assert abs(sum(probabilities) - 1.0) < 1e-9
        assert "unseen_brand" in lines[1]

    def test_unseen_value_leaves_stderr_empty(self, corpus, tmp_path):
        # in a subprocess: pytest would capture a Python warning in process
        model = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--seed", "7",
                     "--out", str(model), *QUICK]) == 0
        devices = tmp_path / "devices.csv"
        devices.write_text(DEVICE_HEADER + "\nunseen_brand,type_000,SmartHome,49.99,"
                           "wifi,Remote,Yes,No,wifi_2_4ghz,None,false\n")
        done = subprocess.run(
            [sys.executable, "-m", "iotrisk", "predict", "--model", str(model),
             "--encoders", f"{model}.encoders.json", "--input", str(devices)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0
        assert "brand='unseen_brand' was not in the training corpus" in done.stdout
        assert done.stderr == ""

    def test_sidecar_with_reject_policy_exits_3(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--seed", "7",
                     "--out", str(model), *QUICK]) == 0
        sidecar = tmp_path / "model.json.encoders.json"
        encoders = json.loads(sidecar.read_text())
        encoders["unseen_policy"] = "reject"
        sidecar.write_text(json.dumps(encoders))
        cells = corpus.read_text().splitlines()[1].split(",")
        devices = tmp_path / "devices.csv"  # a training row: every value was seen
        devices.write_text(DEVICE_HEADER + "\n" + ",".join(cells[:10] + cells[11:]) + "\n")
        rc = main(["predict", "--model", str(model), "--encoders", str(sidecar),
                   "--input", str(devices)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar}: ") and "'reject'" in err

    def test_fingerprint_mismatch_rejected(self, corpus, tmp_path, capsys):
        model_a = tmp_path / "a.json"
        main(["train", "--corpus", str(corpus), "--seed", "7",
              "--out", str(model_a), *QUICK])
        other = tmp_path / "other.csv"
        main(["build", "--synthesize", "--total", "120", "--seed", "9",
              "--out", str(other)])
        model_b = tmp_path / "b.json"
        main(["train", "--corpus", str(other), "--seed", "7",
              "--out", str(model_b), *QUICK])
        devices = tmp_path / "devices.csv"
        devices.write_text(
            DEVICE_HEADER
            + "\nbrand_000,type_000,SmartHome,49.0,wifi,Remote,Yes,No,"
            "wifi_2_4ghz,None,false\n"
        )
        rc = main(["predict", "--model", str(model_a),
                   "--encoders", str(model_b) + ".encoders.json",
                   "--input", str(devices)])
        assert rc == 3
        assert "fingerprint" in capsys.readouterr().err

    def test_tsne_model_refuses_predict(self, corpus, tmp_path, capsys):
        model = tmp_path / "t.json"
        rc = main(["train", "--corpus", str(corpus), "--seed", "5",
                   "--mode", "tsne", "--out", str(model), *QUICK])
        assert rc == 0
        devices = tmp_path / "devices.csv"
        devices.write_text(
            DEVICE_HEADER
            + "\nbrand_000,type_000,SmartHome,49.0,wifi,Remote,Yes,No,"
            "wifi_2_4ghz,None,false\n"
        )
        rc = main(["predict", "--model", str(model),
                   "--encoders", str(model) + ".encoders.json",
                   "--input", str(devices)])
        assert rc == 2
        assert "out-of-sample" in capsys.readouterr().err

    def test_pca_model_scores_new_rows(self, corpus, tmp_path, capsys):
        model = tmp_path / "p.json"
        rc = main(["train", "--corpus", str(corpus), "--seed", "5",
                   "--mode", "pca", "--out", str(model), *QUICK])
        assert rc == 0
        devices = tmp_path / "devices.csv"
        devices.write_text(
            DEVICE_HEADER
            + "\nbrand_000,type_000,SmartHome,49.0,wifi,Remote,Yes,No,"
            "wifi_2_4ghz,None,false\n"
        )
        rc = main(["predict", "--model", str(model),
                   "--encoders", str(model) + ".encoders.json",
                   "--input", str(devices)])
        assert rc == 0

    @pytest.mark.parametrize("param", ["learning_rate=nan", "min_impurity_decrease=-1"])
    def test_bad_gbdt_rate_is_usage_error(self, corpus, tmp_path, capsys, param):
        model = tmp_path / "m.json"
        rc = main(["train", "--corpus", str(corpus), "--model", "gbdt", "--seed", "7",
                   "--out", str(model), *QUICK, "--param", param])
        assert rc == 2
        assert param.partition("=")[0] in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("family, param", [
        ("gbdt", "bogus=1"), ("gbdt", "n_stages=abc"),
        ("rfc", "min_impurity_decrease=nan"), ("rfc", "class_weights=foo"),
        ("gbdt", "patience=3"), ("rfc", "bootstrap=false"), ("rfc", "variant=extra_trees"),
        ("rfc", 'class_weights={"7": 2.0}'),
    ])
    def test_bad_param_is_usage_error_before_encoding(self, corpus, tmp_path, capsys,
                                                      monkeypatch, family, param):
        def no_design(*args, **kwargs):
            raise AssertionError("the design matrix was built")

        monkeypatch.setattr(pipeline, "fit_design", no_design)
        model = tmp_path / "m.json"
        rc = main(["train", "--corpus", str(corpus), "--model", family, "--seed", "7",
                   "--out", str(model), "--param", param])
        assert rc == 2
        assert param.partition("=")[0] in capsys.readouterr().err
        assert not model.exists()


def _first_split(trees):
    """Node index of the first split in decoded tree-set arrays."""
    return next(i for i, feature in enumerate(trees["feature"]) if feature >= 0)


def _drop_last_tree(trees):
    """Remove the last tree of decoded tree-set arrays from each of them."""
    count = trees["nodes"].pop()
    splits = sum(feature >= 0 for feature in trees["feature"][-count:])
    for key, size in (("feature", count), ("threshold", splits), ("right", splits),
                      ("value", count - splits)):
        if size:
            del trees[key][-size:]


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestDoctoredModel:
    """Model files edited after training must fail to load with exit 3."""

    @pytest.fixture
    def trained(self, corpus, tmp_path):
        return self._train(corpus, tmp_path, "wo_dr")

    @pytest.fixture
    def trained_pca(self, corpus, tmp_path):
        model, devices = self._train(corpus, tmp_path, "pca")
        assert self._predict(model, devices, json.loads(model.read_text())) == 0
        return model, devices

    def _train(self, corpus, tmp_path, mode):
        model = tmp_path / "m.json"
        rc = main(["train", "--corpus", str(corpus), "--model", "gbdt",
                   "--mode", mode, "--seed", "7", "--out", str(model), *QUICK])
        assert rc == 0
        devices = tmp_path / "devices.csv"
        devices.write_text(
            DEVICE_HEADER
            + "\nbrand_000,type_000,SmartHome,49.0,wifi,Remote,Yes,No,"
            "wifi_2_4ghz,None,false\n"
        )
        return model, devices

    def _forest_payload(self, corpus, tmp_path):
        """A small forest trained on the same corpus, so the gbdt model's
        encoder sidecar fits it too."""
        forest = tmp_path / "rfc.json"
        rc = main(["train", "--corpus", str(corpus), "--model", "rfc",
                   "--seed", "7", "--out", str(forest),
                   "--param", "n_trees=3", "--param", "max_depth=3"])
        assert rc == 0
        return json.loads(forest.read_text())

    def _predict(self, model, devices, payload):
        model.write_text(json.dumps(payload))
        return main(["predict", "--model", str(model),
                     "--encoders", str(model) + ".encoders.json",
                     "--input", str(devices)])

    def test_untouched_copy_predicts(self, trained):
        model, devices = trained
        assert self._predict(model, devices, json.loads(model.read_text())) == 0

    @pytest.mark.parametrize("feature", [99, -1])
    def test_split_feature_out_of_range(self, trained, capsys, feature):
        model, devices = trained
        payload = json.loads(model.read_text())
        trees = tree_lists(payload["model"]["trees"])
        trees["feature"][_first_split(trees)] = feature
        payload["model"]["trees"] = tree_payload(trees)
        assert self._predict(model, devices, payload) == 3
        # feature -1 marks a leaf, so the split's threshold and right are extra
        expected = "right children for" if feature == -1 else f"split on feature {feature},"
        assert expected in capsys.readouterr().err

    def test_split_feature_below_leaf_marker(self, trained, capsys):
        model, devices = trained
        payload = json.loads(model.read_text())
        trees = tree_lists(payload["model"]["trees"])
        trees["feature"][_first_split(trees)] = -2
        payload["model"]["trees"] = tree_payload(trees)
        assert self._predict(model, devices, payload) == 3
        assert "split on feature -2," in capsys.readouterr().err

    def test_split_feature_out_of_range_in_voting_member(self, corpus, trained,
                                                         tmp_path, capsys):
        model, devices = trained
        gbdt = json.loads(model.read_text())["model"]
        payload = self._forest_payload(corpus, tmp_path)
        rfc = payload["model"]
        trees = tree_lists(rfc["trees"])
        trees["feature"][_first_split(trees)] = 99
        rfc["trees"] = tree_payload(trees)
        payload["family"] = "voting"
        payload["model"] = {"family": "voting", "members": [gbdt, rfc]}
        assert self._predict(model, devices, payload) == 3
        assert "feature 99" in capsys.readouterr().err

    def test_gbdt_stage_narrower_than_classes(self, trained, capsys):
        # trees are stored stage-major, so a short last stage leaves a tree
        # count that is not a multiple of the class count
        model, devices = trained
        payload = json.loads(model.read_text())
        assert payload["model"]["n_classes"] == 4
        trees = tree_lists(payload["model"]["trees"])
        stages = len(trees["nodes"]) // 4
        _drop_last_tree(trees)
        payload["model"]["trees"] = tree_payload(trees)
        assert self._predict(model, devices, payload) == 3
        assert (f"holds {4 * stages - 1} trees, not a multiple of its 4 classes"
                in capsys.readouterr().err)

    def test_classification_leaf_narrower_than_classes(self, corpus, trained,
                                                       tmp_path, capsys):
        model, devices = trained
        payload = self._forest_payload(corpus, tmp_path)
        trees = tree_lists(payload["model"]["trees"])
        # leaves hold 4 class shares each; keep the first 3 of every leaf
        trees["value"] = [v for i, v in enumerate(trees["value"]) if i % 4 != 3]
        payload["model"]["trees"] = tree_payload(trees)
        assert self._predict(model, devices, payload) == 3
        assert "classification leaf" in capsys.readouterr().err

    def test_majority_payload_predicts(self, trained, capsys):
        model, devices = trained
        payload = json.loads(model.read_text())
        payload["model"] = {"family": "majority", "distribution": [0.1, 0.2, 0.3, 0.4]}
        assert self._predict(model, devices, payload) == 0
        assert "Critical" in capsys.readouterr().out

    @pytest.mark.parametrize("defect", [
        "backwards_child", "child_out_of_range", "child_past_its_tree", "shared_child",
        "unequal_lengths", "missing_leaf_row", "null_threshold", "null_leaf_value",
        "node_counts_off_by_one", "zero_node_tree", "text_node_count",
        "ragged_node_count_bytes", "ragged_threshold_bytes", "non_ascii_feature",
    ])
    def test_malformed_tree_arrays(self, trained, capsys, defect):
        model, devices = trained
        payload = json.loads(model.read_text())
        trees = tree_lists(payload["model"]["trees"])
        nodes, right = trees["nodes"], trees["right"]
        # the tree of the first split: its index, first node and second split
        node = _first_split(trees)
        tree = next(t for t in range(len(nodes)) if sum(nodes[:t + 1]) > node)
        assert tree < len(nodes) - 1 and sum(nodes[:tree]) == node  # a root
        second = next(i for i in range(node + 1, node + nodes[tree])
                      if trees["feature"][i] >= 0)
        if defect == "backwards_child":
            right[0] = 0
        elif defect == "child_out_of_range":
            right[0] = len(trees["feature"]) + 5
        elif defect == "child_past_its_tree":
            right[0] = nodes[tree]  # the root of the next tree
        elif defect == "shared_child":
            right[0] = right[sum(f >= 0 for f in trees["feature"][node:second])]
        elif defect == "unequal_lengths":
            trees["threshold"].append(0.5)
        elif defect == "missing_leaf_row":
            trees["value"].pop()
        elif defect == "null_threshold":
            trees["threshold"][0] = float("nan")
        elif defect == "null_leaf_value":
            trees["value"][0] = float("nan")
        elif defect == "node_counts_off_by_one":
            nodes[-1] += 1
        elif defect == "zero_node_tree":
            nodes.insert(tree, 0)
        stored = payload["model"]["trees"] = tree_payload(trees)
        if defect == "text_node_count":
            stored["nodes"] = nodes  # a list of numbers, not base64 text
        elif defect.startswith("ragged"):
            key = "nodes" if defect == "ragged_node_count_bytes" else "threshold"
            raw = base64.b64decode(stored[key]) + b"\0"  # one byte past the last item
            stored[key] = base64.b64encode(raw).decode()
        elif defect == "non_ascii_feature":
            stored["feature"] = "\u00e9" + stored["feature"][1:]
        with _deadline(30):
            assert self._predict(model, devices, payload) == 3
        err = capsys.readouterr().err
        assert "m.json: tree" in err and "Traceback" not in err

    @pytest.mark.parametrize("defect", [
        "no_n_features", "text_threshold", "no_dimred_mode", "model_not_an_object",
        "file_not_an_object", "old_format", "format_2", "format_3", "short_init_scores",
        "no_classes", "sidecar_without_scaler", "sidecar_unknown_unseen_policy",
        "sidecar_without_feature", "sidecar_not_an_object", "sidecar_short_means",
        "sidecar_negative_n_fit", "sidecar_nan_frequency", "sidecar_nan_std",
        "sidecar_negative_std", "unknown_family", "six_classes", "two_classes",
        "majority_six_classes", "majority_null", "majority_negative", "majority_nested", "voting_no_members",
        "voting_two_class_member", "nested_voting_six_classes",
    ])
    def test_malformed_payload_is_data_error(self, trained, capsys, defect):
        model, devices = trained
        payload = json.loads(model.read_text())
        sidecar = model.parent / (model.name + ".encoders.json")
        gbdt = payload["model"]
        narrow = {**gbdt, "n_classes": 2, "init_scores": [-1.0] * 2}
        six = {"family": "majority", "distribution": [0.1] * 6}

        def voting(*members):
            return {"family": "voting", "members": list(members)}

        # defect: (the model payload put in the file, the error it must name);
        # the file's classes are four, so every model in it must score four
        replaced = {
            "unknown_family": ({**gbdt, "family": "xgb"},
                               "unknown model family in payload: 'xgb'"),
            "six_classes": ({**gbdt, "n_classes": 6, "init_scores": [-1.0] * 6},
                            "gbdt model scores 6 classes, not the file's 4"),
            "two_classes": (narrow, "gbdt model scores 2 classes"),
            "no_classes": ({**gbdt, "n_classes": 0, "init_scores": []},
                           "gbdt model scores 0 classes"),
            "majority_six_classes": (six, "majority model scores 6 classes"),
            "majority_null": ({"family": "majority", "distribution": [0.5, None, 0.25, 0.25]},
                              "majority distribution"),
            "majority_negative": ({"family": "majority",
                                   "distribution": [0.5, -0.25, 0.25, 0.5]},
                                  "majority distribution"),
            "majority_nested": ({"family": "majority", "distribution": [[0.25] * 4]},
                                "majority distribution"),
            "voting_no_members": (voting(), "voting model has no members"),
            "voting_two_class_member": (voting(gbdt, narrow), "gbdt model scores 2 classes"),
            "nested_voting_six_classes": (voting(gbdt, voting(gbdt, six)),
                                          "majority model scores 6 classes"),
        }
        expected = ""
        if defect in replaced:
            payload["model"], expected = replaced[defect]
        elif defect == "no_n_features":
            del payload["model"]["n_features"]
        elif defect == "text_threshold":
            trees = payload["model"]["trees"]
            # whole quads of non-alphabet characters, which a lax decoder skips
            trees["threshold"] = "****" + trees["threshold"]
            expected = "m.json: tree 'threshold' is not base64"
        elif defect == "no_dimred_mode":
            del payload["dimred"]["mode"]
        elif defect == "model_not_an_object":
            payload["model"] = []
        elif defect == "file_not_an_object":
            payload = []
        elif defect == "old_format":
            payload["format"] = "iotrisk-model/1"
        elif defect in ("format_2", "format_3"):
            payload["format"] = "iotrisk-model/" + defect[-1]
        elif defect == "short_init_scores":
            payload["model"]["init_scores"].pop()
        else:
            encoders = json.loads(sidecar.read_text())
            if defect == "sidecar_without_scaler":
                del encoders["scaler"]
            elif defect == "sidecar_without_feature":
                del encoders["features"]["brand"]
            elif defect == "sidecar_unknown_unseen_policy":
                encoders["unseen_policy"] = "ignore"
            elif defect == "sidecar_short_means":
                encoders["scaler"]["means"] = encoders["scaler"]["means"][:5]
                expected = "scaler means has shape (5,), expected (10)"
            elif defect == "sidecar_negative_n_fit":
                encoders["features"]["brand"]["n_fit"] = -1
                expected = "brand n_fit is -1, not an integer >= 1"
            elif defect == "sidecar_nan_frequency":
                table = encoders["features"]["brand"]["frequencies"]
                table[next(iter(table))] = float("nan")
                expected = "brand frequencies holds a non-finite value"
            elif defect == "sidecar_nan_std":
                encoders["scaler"]["stds"][0] = float("nan")
                expected = "scaler stds holds a non-finite value"
            elif defect == "sidecar_negative_std":
                encoders["scaler"]["stds"][0] = -1.0
                expected = "scaler stds holds a negative value"
            else:
                encoders = []
            if encoders:  # re-pin the model, so only the edited values are wrong
                pinned = {k: v for k, v in encoders.items() if k != "format"}
                canonical = json.dumps(pinned, sort_keys=True, separators=(",", ":"))
                payload["encoder_fingerprint"] = hashlib.sha256(canonical.encode()).hexdigest()
            sidecar.write_text(json.dumps(encoders))
        assert self._predict(model, devices, payload) == 3
        broken = sidecar if defect.startswith("sidecar") else model
        out, err = capsys.readouterr()
        assert f"{broken}: " in err and expected in err and err.count("error:") == 1
        assert "Traceback" not in err and "nan" not in out
        if "format" in defect:
            assert "retrain the model" in err

    @pytest.mark.parametrize("defect", [
        "no_pca", "short_cluster_freqs", "wide_components", "wide_centroids",
        "null_cluster_scaler", "bogus_mode", "mismatched_mode", "null_centroid",
        "null_pca_mean",
    ])
    def test_malformed_pca_stage(self, trained_pca, capsys, defect):
        model, devices = trained_pca
        payload = json.loads(model.read_text())
        dimred = payload["dimred"]
        if defect == "no_pca":
            del dimred["pca"]
        elif defect == "short_cluster_freqs":
            dimred["cluster_freqs"] = dimred["cluster_freqs"][:1]
        elif defect == "wide_components":
            dimred["pca"]["components"] = [
                row + [0.0] for row in dimred["pca"]["components"]]
        elif defect == "wide_centroids":
            dimred["kmeans"]["centroids"] = [
                row + [0.0] for row in dimred["kmeans"]["centroids"]]
        elif defect == "null_cluster_scaler":
            dimred["cluster_scaler"] = None
        elif defect == "bogus_mode":
            payload["mode"] = "bogus"
        elif defect == "mismatched_mode":
            payload["mode"] = "wo_dr"
        elif defect == "null_centroid":
            dimred["kmeans"]["centroids"][0][0] = None
        else:
            dimred["pca"]["means"][0] = None
        assert self._predict(model, devices, payload) == 3
        assert capsys.readouterr().err.startswith(f"error: {model}: ")


class TestEvaluateCv:
    def test_evaluate_report_shape(self, corpus, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(["evaluate", "--corpus", str(corpus), "--model", "gbdt",
                   "--seed", "7", "--out", str(out), *QUICK])
        assert rc == 0
        text = out.read_text()
        header = next(l for l in text.splitlines() if l.startswith("metric"))
        for column in ("Low", "Medium", "High", "Critical", "Macro", "Micro/ACC"):
            assert column in header
        rows = [l for l in text.splitlines()
                if l.startswith(("Precision", "Recall", "F-1"))]
        micro_column = {row.split()[-1] for row in rows}
        assert len(micro_column) == 1  # micro triple is one repeated value

    def test_cv_two_modes(self, corpus, tmp_path):
        out = tmp_path / "cv.csv"
        rc = main(["cv", "--corpus", str(corpus), "--seed", "7",
                   "--k", "3", "--repeats", "1", "--modes", "wo_dr,pca",
                   "--format", "csv", "--out", str(out), *QUICK])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["mode", "R1-F1", "R1-F2", "R1-F3"]
        assert [l.split(",")[0] for l in lines[1:]] == ["wo_dr", "pca"]

    def test_ablate_lists_all_columns(self, corpus, tmp_path):
        out = tmp_path / "ablate.csv"
        rc = main(["ablate", "--corpus", str(corpus), "--seed", "2",
                   "--k", "2", "--repeats", "1", "--format", "csv",
                   "--out", str(out), *QUICK])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 11  # header + 10 features

    def test_tune_ranking(self, corpus, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_stages": [5, 10]}))
        out = tmp_path / "tune.csv"
        rc = main(["tune", "--corpus", str(corpus), "--seed", "4",
                   "--grid", str(grid), "--k", "2", "--repeats", "1",
                   "--param", "learning_rate=0.2", "--param", "max_depth=2",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,n_stages,mean,std"
        assert len(lines) == 3

    def test_tune_rejects_voting(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_stages": [5]}))
        rc = main(["tune", "--corpus", str(corpus), "--seed", "4",
                   "--grid", str(grid), "--model", "voting"])
        assert rc == 2
        assert "single model family" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, message", [
        ({"n_stages": [2, "abc"]}, "n_stages must be an integer >= 1, got 'abc'"),
        ({"n_stages": [2], "bogus": [1]}, "unknown gbdt parameter 'bogus'"),
        ({"patience": [3]}, "unknown gbdt parameter 'patience'"),
        ({"n_stages": []}, "grid entry 'n_stages' has no values"),
        ({}, "empty parameter grid"),
    ], ids=["text_value", "unknown_name", "removed_name", "empty_values", "empty_grid"])
    def test_bad_grid_fails_before_any_reduction(self, corpus, tmp_path, capsys,
                                                 monkeypatch, grid, message):
        def no_tsne(*args, **kwargs):
            raise AssertionError("t-SNE ran before the grid was checked")

        monkeypatch.setattr(pipeline, "tsne_embed", no_tsne)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        rc = main(["tune", "--corpus", str(corpus), "--seed", "4", "--mode", "tsne",
                   "--grid", str(path), "--k", "2", "--repeats", "1"])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_class_weight_outside_the_classes_fails_before_encoding(
            self, corpus, tmp_path, capsys, monkeypatch):
        def no_design(*args, **kwargs):
            raise AssertionError("the design matrix was built")

        monkeypatch.setattr(cli, "fit_design", no_design)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"class_weights": [{"7": 2.0}], "n_trees": [3]}))
        rc = main(["tune", "--corpus", str(corpus), "--seed", "4", "--model", "rfc",
                   "--grid", str(grid), "--k", "2", "--repeats", "1"])
        assert rc == 2
        assert "class weight for class 7, outside [0, 4)" in capsys.readouterr().err

    def test_bad_setting_fails_before_any_reduction(self, corpus, tmp_path, capsys,
                                                    monkeypatch):
        def no_tsne(*args, **kwargs):
            raise AssertionError("t-SNE ran before the settings were checked")

        monkeypatch.setattr(pipeline, "tsne_embed", no_tsne)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_stages": [2]}))
        common = ["--corpus", str(corpus), "--seed", "4"]
        # a k larger than some class depends on the data: exit 3
        for argv in (["cv", "--modes", "wo_dr,tsne"],
                     ["tune", "--grid", str(grid), "--mode", "tsne"],
                     ["ablate", "--mode", "tsne"]):
            assert main([*argv, *common, "--k", "500"]) == 3, argv
            assert "fewer than k=500" in capsys.readouterr().err
        # more clusters than rows, known once the corpus is loaded: exit 3
        train = ["train", "--mode", "tsne", "--out", str(tmp_path / "model.json")]
        assert main([*train, *common, "--clusters", "2000"]) == 3
        assert capsys.readouterr().err == "error: k 2000 outside [1, 160]\n"
        # a setting no data can satisfy: exit 2, with one error line
        for argv, message in (
            ([*train, "--clusters", "0"], "clusters must be >= 1, got 0"),
            ([*train, "--components", "0"], "components must be >= 1 or unset, got 0"),
            (["cv", "--modes", "tsne", "--k", "1"], "k must be >= 2, got 1"),
            (["ablate", "--mode", "tsne", "--repeats", "0"], "repeats must be >= 1, got 0"),
            (["evaluate", "--mode", "tsne", "--test-fraction", "1.5"],
             "test fraction must be inside (0, 1), got 1.5"),
            (["evaluate", "--mode", "tsne", "--test-fraction", "nan"],
             "test fraction must be inside (0, 1), got nan"),
        ):
            assert main([*argv, *common]) == 2, argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_with_correlation(self, corpus, tmp_path, capsys):
        corr = tmp_path / "corr.csv"
        rc = main(["report", "--corpus", str(corpus), "--correlation", str(corr),
                   "--include-label"])
        assert rc == 0
        assert corr.read_text().splitlines()[0].endswith("risk_score")
        assert "total" in capsys.readouterr().out


class TestWorkerProcesses:
    """`--threads N` fits the cv/tune/ablate cells in N forked workers."""

    @pytest.fixture
    def grid(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n_stages": [3, 5], "max_depth": [2, 3]}))
        return path

    COMMANDS = {
        "cv_gbdt": ["cv", "--modes", "wo_dr,pca", "--k", "3", "--repeats", "2",
                    *QUICK],
        "cv_rfc": ["cv", "--model", "rfc", "--k", "3", "--repeats", "1",
                   "--param", "n_trees=6"],
        "tune": ["tune", "--k", "2", "--repeats", "1",
                 "--param", "learning_rate=0.2"],
        "ablate": ["ablate", "--k", "2", "--repeats", "1",
                   "--param", "n_stages=4", "--param", "max_depth=3"],
        "evaluate_rfc": ["evaluate", "--model", "rfc", "--param", "n_trees=6"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_reports_byte_identical_at_any_worker_count(self, corpus, grid, tmp_path,
                                                        command):
        argv = [*self.COMMANDS[command], "--corpus", str(corpus), "--seed", "7",
                "--format", "csv"]
        if command == "tune":
            argv += ["--grid", str(grid)]
        reports = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"{command}.{threads}.csv"
            assert main([*argv, "--threads", threads, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1] == reports[2]
        assert multiprocessing.active_children() == []

    def test_failing_cells_report_the_lowest_at_any_worker_count(
            self, corpus, capsys, monkeypatch):
        failing = {derived_seed(7, 1, 0), derived_seed(7, 0, 2)}

        def planted_fit_model(spec, *args, **kwargs):
            if spec.seed in failing:
                raise RuntimeError("planted failure")
            return fit_model(spec, *args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_model", planted_fit_model)
        for threads in ("1", "2"):
            rc = main(["cv", "--corpus", str(corpus), "--seed", "7", "--k", "3",
                       "--repeats", "2", "--threads", threads, *QUICK])
            err = capsys.readouterr().err
            assert rc == 5, threads
            assert err.splitlines() == [
                "error: training failed on repeat 1 fold 3: planted failure"], threads
            assert multiprocessing.active_children() == []

    def test_a_dead_worker_fails_the_command_without_a_traceback(
            self, corpus, capsys, monkeypatch):
        parent = os.getpid()

        def dying_fit_model(spec, *args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            raise AssertionError("a cell was fitted in the parent process")

        monkeypatch.setattr(evaluation, "fit_model", dying_fit_model)
        rc = main(["cv", "--corpus", str(corpus), "--seed", "7", "--k", "2",
                   "--repeats", "1", "--threads", "2", *QUICK])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: a worker process died")
        assert len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []

    TRAIN_RFC = ["train", "--model", "rfc", "--param", "n_trees=6", "--seed", "7"]

    @pytest.mark.parametrize("planted", [TrainingError, RuntimeError])
    def test_a_failing_tree_range_fails_train_alike_at_any_worker_count(
            self, corpus, tmp_path, capsys, monkeypatch, planted):
        original = ensemble.forest_fit

        def failing_forest_fit(matrix, labels, params, trees=None, **kwargs):
            if 4 in (trees or range(params.n_trees)):
                raise planted("planted failure in tree 4")
            return original(matrix, labels, params, trees=trees, **kwargs)

        monkeypatch.setattr(ensemble, "forest_fit", failing_forest_fit)
        for threads in ("1", "2"):
            rc = main([*self.TRAIN_RFC, "--corpus", str(corpus), "--threads", threads,
                       "--out", str(tmp_path / "model.json")])
            assert rc == 4, threads
            assert capsys.readouterr().err.splitlines() == [
                "error: planted failure in tree 4"], threads
            assert multiprocessing.active_children() == []

    def test_a_dead_train_worker_exits_4_without_a_traceback(
            self, corpus, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def dying_forest_fit(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            raise AssertionError("a tree range was fitted in the parent process")

        monkeypatch.setattr(ensemble, "forest_fit", dying_forest_fit)
        rc = main([*self.TRAIN_RFC, "--corpus", str(corpus), "--threads", "2",
                   "--out", str(tmp_path / "model.json")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: a worker process died")
        assert len(err.splitlines()) == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_fails_before_encoding(self, corpus, grid, capsys,
                                                     monkeypatch, threads):
        def no_design(*args, **kwargs):
            raise AssertionError("the design matrix was built")

        monkeypatch.setattr(cli, "fit_design", no_design)
        monkeypatch.setattr(cli, "fit_pipeline", no_design)
        common = ["--corpus", str(corpus), "--seed", "7", "--threads", threads]
        for argv in (["cv"], ["tune", "--grid", str(grid)], ["ablate"],
                     ["evaluate"], ["train", "--out", "unused.json"]):
            assert main([*argv, *common]) == 2, argv
            assert capsys.readouterr().err.splitlines() == [
                f"error: --threads must be >= 1, got {threads}"], argv

    def test_pool_size_is_capped_at_the_cell_count(self, corpus, grid, tmp_path,
                                                   monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, score):
                self.score = score

            def map(self, fn, indices):
                return (self.score(i) for i in indices)

            def shutdown(self, cancel_futures=False):
                pass

        def recording_pool(size, score):
            sizes.append(size)
            return SerialPool(score)

        monkeypatch.setattr(util, "_fork_pool", recording_pool)
        common = ["--corpus", str(corpus), "--seed", "7", "--k", "2",
                  "--repeats", "1", "--param", "n_stages=3"]
        for argv in (["cv"], ["tune", "--grid", str(grid)], ["ablate"]):
            reports = []
            for threads in ("1", "100000"):
                out = tmp_path / f"{argv[0]}.{threads}.csv"
                assert main([*argv, *common, "--threads", threads,
                             "--format", "csv", "--out", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], argv
        # cv: 2 folds; tune: 4 configurations x 2 folds; ablate: 11 runs x 2 folds
        assert sizes == [2, 8, 22]

    def test_importing_the_cli_does_not_import_multiprocessing(self):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import iotrisk.cli"],
                              env=src_env(), capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()}
        assert "iotrisk.cli" in imported
        assert not {m for m in imported
                    if m.startswith(("multiprocessing", "concurrent"))}


class TestPackageImport:
    def test_import_pins_blas_without_importing_numpy(self):
        script = ("import os, sys, iotrisk; print([os.environ[v] for v in "
                  "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')], "
                  "'numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", script],
                              env=src_env(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="3",
                                          MKL_NUM_THREADS="3"),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout == "['1', '1', '1'] False\n"


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, corpus, tmp_path):
        pairs = []
        for name in ("one", "two"):
            model = tmp_path / f"{name}.json"
            rc = main(["train", "--corpus", str(corpus), "--model", "rfc",
                       "--seed", "11", "--out", str(model),
                       "--param", "n_trees=8"])
            assert rc == 0
            pairs.append((model.read_bytes(),
                          (tmp_path / f"{name}.json.encoders.json").read_bytes()))
        assert pairs[0] == pairs[1]

    def test_thread_count_does_not_change_artifacts(self, corpus, tmp_path):
        blobs = []
        for threads in ("1", "2", "3"):
            model = tmp_path / f"t{threads}.json"
            rc = main(["train", "--corpus", str(corpus), "--model", "rfc",
                       "--seed", "11", "--out", str(model),
                       "--param", "n_trees=8", "--threads", threads])
            assert rc == 0
            blobs.append((model.read_bytes(),
                          (tmp_path / f"t{threads}.json.encoders.json").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]
        assert multiprocessing.active_children() == []

    def test_reports_byte_identical(self, corpus, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.txt"
            rc = main(["evaluate", "--corpus", str(corpus), "--seed", "7",
                       "--out", str(out), *QUICK])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_config_supplies_defaults(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nk=2\nrepeats=1\n")
        out = tmp_path / "cv.csv"
        rc = main(["cv", "--config", str(cfg), "--corpus", str(corpus),
                   "--format", "csv", "--out", str(out), *QUICK])
        assert rc == 0
        assert out.read_text().splitlines()[0].count("R1-F") == 2

    def test_flags_beat_config(self, corpus, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nk=4\n")
        out = tmp_path / "cv.csv"
        rc = main(["cv", "--config", str(cfg), "--corpus", str(corpus),
                   "--k", "2", "--repeats", "1", "--format", "csv",
                   "--out", str(out), *QUICK])
        assert rc == 0
        assert out.read_text().splitlines()[0].count("R1-F") == 2

    def test_malformed_config(self, corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line without equals\n")
        rc = main(["cv", "--config", str(cfg), "--corpus", str(corpus)])
        assert rc == 3


class TestIngest:
    CAM = "cpe:2.3:h:vendorx:smart_camera:1.0:*:*:*:*:*:*:*"
    ROUTER = "cpe:2.3:o:netco:router_os:2.0:*:*:*:*:*:*:*"

    def _write_feed(self, path, gz=False):
        doc = feed_document([
            feed_item("CVE-2019-0001", 9.8, [self.CAM]),
            feed_item("CVE-2019-0002", None, [self.CAM]),
            feed_item("CVE-2020-0003", 5.0, [self.ROUTER]),
            feed_item("CVE-2012-0004", 7.0, [self.CAM],
                      published="2012-05-01T00:00Z"),
        ])
        if gz:
            path.write_bytes(gzip.compress(doc.encode()))
        else:
            path.write_text(doc)

    def test_candidates_from_feed(self, tmp_path, capsys):
        feed = tmp_path / "feed.json"
        self._write_feed(feed)
        out = tmp_path / "candidates.csv"
        rc = main(["ingest", "--feed", str(feed), "--out", str(out)])
        assert rc == 0
        # camera (Critical) + router (Medium), the seven enrichment cells empty
        assert out.read_text().splitlines() == [
            ",".join(CSV_HEADER),
            "vendorx,smart_camera,SmartHome,,,,,,,,Critical,false",
            "netco,router_os,SmartHome,,,,,,,,Medium,false",
        ]
        err = capsys.readouterr().err
        assert "no-cvss3=1" in err

    def test_mistyped_item_is_counted_without_a_traceback(self, tmp_path, capsys):
        broken = feed_item("CVE-2019-0002", 7.5, [self.CAM])
        broken["impact"]["baseMetricV3"]["cvssV3"]["baseScore"] = "abc"
        feed = tmp_path / "feed.json"
        feed.write_text(feed_document([feed_item("CVE-2019-0001", 9.8, [self.CAM]), broken]))
        out = tmp_path / "candidates.csv"
        assert main(["ingest", "--feed", str(feed), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert f"{feed}: item 1: baseScore is not a number" in err
        assert "items=2 scored=1 no-cvss3=0 item-errors=1" in err
        assert "Traceback" not in err
        assert len(out.read_text().splitlines()) == 2

    def test_unclassed_score_is_an_item_error(self, tmp_path, capsys):
        # 0.0 is NVD's "None" severity, which has no risk class
        feed = tmp_path / "feed.json"
        feed.write_text(feed_document([
            feed_item("CVE-2019-0001", 9.8, [self.CAM]),
            feed_item("CVE-2019-0002", 0.0, [self.ROUTER]),
        ]))
        out = tmp_path / "candidates.csv"
        assert main(["ingest", "--feed", str(feed), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert f"{feed}: item 1: base score 0.0 outside" in err
        assert "items=2 scored=1 no-cvss3=0 item-errors=1" in err
        assert "candidates=1" in err
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and "Critical" in lines[1]

    def test_part_restriction(self, tmp_path):
        feed = tmp_path / "feed.json.gz"
        self._write_feed(feed, gz=True)
        out = tmp_path / "candidates.csv"
        rc = main(["ingest", "--feed", str(feed), "--part", "h", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and "smart_camera" in lines[1]
