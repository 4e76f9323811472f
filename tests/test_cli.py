import contextlib
import gzip
import json
import signal
import threading

import pytest

from iotrisk import evaluation
from iotrisk.cli import build_parser, main
from iotrisk.dataset import CSV_HEADER
from iotrisk.ensemble import fit_model

from conftest import feed_document, feed_item

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
        assert args.model == "gbdt" and args.seed == 7

    def test_cv_fold_options(self):
        args = build_parser().parse_args(
            ["cv", "--corpus", "c.csv", "--seed", "1", "--k", "5", "--repeats", "2"]
        )
        assert args.k == 5 and args.repeats == 2

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


def _first_split(trees):
    """(tree, node index) of the first split found in a list of tree payloads."""
    return next((tree, i) for tree in trees
                for i, child in enumerate(tree["left"]) if child >= 0)


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
        stages = payload["model"]["stages"]
        tree, node = _first_split([tree for stage in stages for tree in stage])
        tree["feature"][node] = feature
        assert self._predict(model, devices, payload) == 3
        assert f"feature {feature}" in capsys.readouterr().err

    def test_split_feature_out_of_range_in_voting_member(self, corpus, trained,
                                                         tmp_path, capsys):
        model, devices = trained
        gbdt = json.loads(model.read_text())["model"]
        payload = self._forest_payload(corpus, tmp_path)
        rfc = payload["model"]
        tree, node = _first_split(rfc["trees"])
        tree["feature"][node] = 99
        payload["family"] = "voting"
        payload["model"] = {"family": "voting", "members": [gbdt, rfc]}
        assert self._predict(model, devices, payload) == 3
        assert "feature 99" in capsys.readouterr().err

    def test_gbdt_stage_narrower_than_classes(self, trained, capsys):
        model, devices = trained
        payload = json.loads(model.read_text())
        assert payload["model"]["n_classes"] == 4
        payload["model"]["stages"] = [s[:2] for s in payload["model"]["stages"]]
        assert self._predict(model, devices, payload) == 3
        assert "holds 2 trees, expected 4" in capsys.readouterr().err

    def test_classification_leaf_narrower_than_classes(self, corpus, trained,
                                                       tmp_path, capsys):
        model, devices = trained
        payload = self._forest_payload(corpus, tmp_path)
        tree = payload["model"]["trees"][0]
        tree["value"] = [row[:3] for row in tree["value"]]
        assert self._predict(model, devices, payload) == 3
        assert "classification leaf" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", [
        "backwards_child", "child_out_of_range", "unequal_lengths", "missing_leaf_row",
        "null_threshold", "null_leaf_value",
    ])
    def test_malformed_tree_arrays(self, trained, capsys, defect):
        model, devices = trained
        payload = json.loads(model.read_text())
        trees = [tree for stage in payload["model"]["stages"] for tree in stage]
        # a split below the root, so that pointing it back at node 0 is a cycle
        tree, node = next((t, i) for t in trees
                          for i in range(1, len(t["left"])) if t["left"][i] >= 0)
        if defect == "backwards_child":
            tree["left"][node] = 0
        elif defect == "child_out_of_range":
            tree["right"][node] = len(tree["feature"]) + 5
        elif defect == "unequal_lengths":
            tree["threshold"].append(0.5)
        elif defect == "missing_leaf_row":
            tree["value"].pop()
        elif defect == "null_threshold":
            tree["threshold"][node] = None  # would read as NaN
        else:
            tree["value"][0] = None
        with _deadline(30):
            assert self._predict(model, devices, payload) == 3
        assert "m.json: tree" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", [
        "no_n_features", "text_threshold", "no_dimred_mode", "model_not_an_object",
        "file_not_an_object", "old_format", "sidecar_without_scaler",
        "sidecar_without_feature", "sidecar_not_an_object",
    ])
    def test_malformed_payload_is_data_error(self, trained, capsys, defect):
        model, devices = trained
        payload = json.loads(model.read_text())
        sidecar = model.parent / (model.name + ".encoders.json")
        if defect == "no_n_features":
            del payload["model"]["n_features"]
        elif defect == "text_threshold":
            tree, node = _first_split(
                [tree for stage in payload["model"]["stages"] for tree in stage])
            tree["threshold"][node] = "abc"
        elif defect == "no_dimred_mode":
            del payload["dimred"]["mode"]
        elif defect == "model_not_an_object":
            payload["model"] = []
        elif defect == "file_not_an_object":
            payload = []
        elif defect == "old_format":
            payload["format"] = "iotrisk-model/1"
        else:
            encoders = json.loads(sidecar.read_text())
            if defect == "sidecar_without_scaler":
                del encoders["scaler"]
            elif defect == "sidecar_without_feature":
                del encoders["features"]["brand"]
            else:
                encoders = []
            sidecar.write_text(json.dumps(encoders))
        assert self._predict(model, devices, payload) == 3
        broken = sidecar if defect.startswith("sidecar") else model
        assert f"{broken}: " in capsys.readouterr().err

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

    def test_threads_flag_fits_on_calling_thread(self, corpus, tmp_path,
                                                 monkeypatch):
        threads = []

        def recording_fit_model(*args, **kwargs):
            threads.append(threading.get_ident())
            return fit_model(*args, **kwargs)

        monkeypatch.setattr(evaluation, "fit_model", recording_fit_model)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_stages": [2, 3]}))
        common = ["--corpus", str(corpus), "--seed", "4", "--k", "2",
                  "--repeats", "1", "--threads", "2"]
        assert main(["cv", *common, "--param", "n_stages=3"]) == 0
        assert main(["tune", *common, "--grid", str(grid)]) == 0
        assert threads == [threading.get_ident()] * (2 + 2 * 2)

    def test_tune_rejects_voting(self, corpus, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"n_stages": [5]}))
        rc = main(["tune", "--corpus", str(corpus), "--seed", "4",
                   "--grid", str(grid), "--model", "voting"])
        assert rc == 2
        assert "single model family" in capsys.readouterr().err

    def test_report_with_correlation(self, corpus, tmp_path, capsys):
        corr = tmp_path / "corr.csv"
        rc = main(["report", "--corpus", str(corpus), "--correlation", str(corr),
                   "--include-label"])
        assert rc == 0
        assert corr.read_text().splitlines()[0].endswith("risk_score")
        assert "total" in capsys.readouterr().out


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
        for name, threads in (("t1", "1"), ("t2", "3")):
            model = tmp_path / f"{name}.json"
            rc = main(["train", "--corpus", str(corpus), "--model", "rfc",
                       "--seed", "11", "--out", str(model),
                       "--param", "n_trees=8", "--threads", threads])
            assert rc == 0
            blobs.append(model.read_bytes())
        assert blobs[0] == blobs[1]

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
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3  # camera (Critical) + router (Medium)
        assert "smart_camera" in lines[1] and "Critical" in lines[1]
        assert "router_os" in lines[2] and "Medium" in lines[2]
        err = capsys.readouterr().err
        assert "no-cvss3=1" in err

    def test_part_restriction(self, tmp_path):
        feed = tmp_path / "feed.json.gz"
        self._write_feed(feed, gz=True)
        out = tmp_path / "candidates.csv"
        rc = main(["ingest", "--feed", str(feed), "--part", "h", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and "smart_camera" in lines[1]
