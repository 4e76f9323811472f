"""Byte-level pins of every report the CLI prints.

Each command runs at seed 7 on the bundled corpus with small fits, and
its stdout, in text and in CSV form, is pinned by sha256.  A change to a
renderer's columns, number formats, titles or notes changes a digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from iotrisk.artifacts import load_model, save_model
from iotrisk.cli import main
from iotrisk.dataset import CSV_HEADER, bundled_corpus_path, load_corpus, save_corpus

BUNDLED = str(bundled_corpus_path())
SMALL = ["--corpus", BUNDLED, "--seed", "7", "--param", "n_stages=15"]
FOLDS = [*SMALL, "--k", "3", "--repeats", "1"]
DEVICES = "\n".join([
    ",".join(c for c in CSV_HEADER if c != "risk_score"),
    "brand_127,type_056,Other,52.03,ethernet,Local,No,No,comm_025,Symmetric,true",
    "brand_027,type_045,SmartHome,50.49,zwave,Local,Yes,No,comm_024,None,true",
    "unseen_brand,unseen_type,SmartHome,49.99,wifi,Remote,Yes,No,wifi_2_4ghz,None,false",
]) + "\n"

# case: (argv without --format, text sha256, csv sha256)
REPORTS = {
    "cv": (["cv", *FOLDS, "--modes", "wo_dr,pca"],
           "e534f36c052fdd82c689083c7b2702525ce0ff4a2a0ff31d2e1912e8ec7ad4ac",
           "73c6ccfb2f8d4a5755668440896532bcd926f54282889aa89a318dec6f412451"),
    "tune_accuracy": (["tune", *FOLDS, "--grid", "{grid}", "--metric", "accuracy"],
                      "2334d4e146df79e7fa6def491c9349e035f04208110d8ca9f044c7efda58b0a2",
                      "5f5d8d189a1eea1499623eb995d2ce481f0310cf991b83d043d278c14a7f7d20"),
    "tune_macro_f1": (["tune", *FOLDS, "--grid", "{grid}", "--metric", "macro-f1"],
                      "49916c51d19c62dc745c9a10286a8508c087ff7251d5d68986b25e92f693c2b6",
                      "2fa0f678fab2234ceb0253f3a4bb9e18c02a9d5d0a8eadb90a9e7c342d784e71"),
    "ablate": (["ablate", *FOLDS],
               "3bd14a5c1302ec48fba3bf5b7a57a1e473c8bdfb607ae27b005b006ca1cbb69a",
               "fb7eb84f37b6e9cdef05996dc0d25b2d11134700558d0e0a82f44cf093777562"),
    "evaluate": (["evaluate", *SMALL],
                 "b62ad6f0c485cdc75a78c98626bd6bdcf10c4d45726a210910af5be3b303345f",
                 "b2246809cafdf69d5c2eef56b27e2bd9c89f4901b3f8fe60ab23fd830db1db37"),
    "evaluate_zero_division": (["evaluate", *SMALL, "--param", "n_stages=1",
                                "--param", "max_depth=0"],
                               "8d950df637d8b360f09bca0e2c1337ebf5606fb0dd5cae4a97168241a2d1e898",
                               "d3f0dcb8b54ed3f929226c2bcdf4e64e7533700dd3ec2c6ca0ca352b863218c0"),
    "predict": (["predict", "--model", "{model}", "--encoders", "{model}.encoders.json",
                 "--input", "{devices}"],
                "cfc070dbe891ddb5c0a0c4bde3d59b1b0594685fb79bdc6786ccac0fe850e65f",
                "72c1cf39d57f0c9ff597974e3975273308c616bb12fe51e3623ac41864884454"),
}


# stdout with the --out path replaced by OUT, and the corpus a build writes
PINNED = {
    "build": "3b67fd24f0052041013399df342a01bc8f6d539a4e529e492d32cf4b8ca42ec5",
    "report": "9b6793f330f91191d32e9c3d8d15229b034534f336126ea2a8f544c0c78089b4",
    "synth_summary": "d50e4fcb1c017c6114acb31068ed8a721710ec1d1f283a842c2ce7e5cee9331c",
    "synth_corpus": "9d3db8eab154b6697649056c158821cd6d253c9aa31f54ba6548d6fbf09d4d0d",
}

# the file `report --correlation` writes, without and with --include-label
CORRELATION = {
    False: "13278928d7a1c70a51ef09d3924788757b198c157db67cdf9d6b4bbe02625c46",
    True: "4187868692180003f0896c98f627999cbc81dcff6199e3f91e1b123e0ecbcc56",
}

# mode: (model file sha256, encoder sidecar sha256) that `train` writes, on
# the bundled corpus, or for tsne on a 160-row synthesized one
TRAINED = {
    "wo_dr": ("64527b221fec94a66850e1dbbccdc27fb034788d297ed904843e3eda44e26edf",
              "8d66bedc8bf87d4ac08750ff6deaf1f6866d1a4ad7dfa31343b98bdc72886cee"),
    "pca": ("c9733d71f9b8c38860652353e593d220d2daf67e13733bd7a2d66ddf3cd623ff",
            "8d66bedc8bf87d4ac08750ff6deaf1f6866d1a4ad7dfa31343b98bdc72886cee"),
    "tsne": ("e477e67d8168dea64987644ae011b46ee6cc668f4dd85de670a5cf88a9781293",
             "360f03318ed6962036b17f897638dc7b00ed133e45fffc6373a4ad0bf9fccd0a"),
}

# the default seed-7 voting model `train` writes on the bundled corpus
VOTING = "7c0c8acfc0955e24bac4c27fe3e36226a5d9a2e118673757449092becfc21443"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    grid = root / "grid.json"
    grid.write_text(json.dumps({"max_depth": [2, 3], "learning_rate": [0.1, 0.2]}))
    devices = root / "devices.csv"
    devices.write_text(DEVICES)
    model = root / "model.json"
    assert main(["train", "--corpus", BUNDLED, "--seed", "7", "--param", "n_stages=15",
                 "--out", str(model)]) == 0
    return {"grid": str(grid), "devices": str(devices), "model": str(model)}


def _run(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_bytes_are_pinned(case, fmt, files, capsys):
    template, text_sha, csv_sha = REPORTS[case]
    argv = [token.format(**files) for token in template] + ["--format", fmt]
    out = _run(argv, capsys)
    if case == "evaluate_zero_division" and fmt == "text":
        assert "zero-denominator metrics reported as 0" in out
    if case == "predict":
        assert "unseen" in out
    assert _sha(out) == (text_sha if fmt == "text" else csv_sha)


@pytest.mark.parametrize("mode", sorted(TRAINED))
def test_train_artifact_bytes_are_pinned(mode, files, tmp_path):
    model = files["model"] if mode == "wo_dr" else str(tmp_path / "model.json")
    argv = SMALL
    if mode == "tsne":
        corpus = str(tmp_path / "corpus.csv")
        assert main(["build", "--synthesize", "--total", "160", "--seed", "7",
                     "--signal", "0.8", "--out", corpus]) == 0
        argv = ["--corpus", corpus, *SMALL[2:]]
    if mode != "wo_dr":
        assert main(["train", *argv, "--mode", mode, "--out", model]) == 0
    digests = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest()
                    for path in (model, model + ".encoders.json"))
    assert digests == TRAINED[mode]


def test_voting_file_is_pinned_at_any_thread_count_and_resaves_to_its_bytes(tmp_path):
    blobs = []
    for threads in ("1", "2"):
        model = tmp_path / f"voting{threads}.json"
        assert main(["train", "--corpus", BUNDLED, "--seed", "7", "--model", "voting",
                     "--threads", threads, "--out", str(model)]) == 0
        blobs.append(model.read_bytes())
    assert blobs[0] == blobs[1]
    assert hashlib.sha256(blobs[0]).hexdigest() == VOTING
    again = tmp_path / "again.json"
    save_model(again, load_model(model), json.loads(blobs[0])["encoder_fingerprint"])
    assert again.read_bytes() == blobs[0]


def test_build_and_report_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "corpus.csv"
    summary = _run(["build", "--input", BUNDLED, "--out", str(out)], capsys)
    assert summary.endswith(f"wrote 1153 rows to {out}\n")
    assert _sha(summary.replace(str(out), "OUT")) == PINNED["build"]
    assert out.read_bytes() == bundled_corpus_path().read_bytes()
    assert _sha(_run(["report", "--corpus", BUNDLED], capsys)) == PINNED["report"]


@pytest.mark.parametrize("include_label", [False, True], ids=["features", "with_label"])
def test_correlation_file_bytes_are_pinned(include_label, tmp_path, capsys):
    out = tmp_path / "corr.csv"
    _run(["report", "--corpus", BUNDLED, "--correlation", str(out)]
         + (["--include-label"] if include_label else []), capsys)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CORRELATION[include_label]


def test_synthesized_corpus_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "synthetic.csv"
    summary = _run(["build", "--synthesize", "--total", "200", "--seed", "7",
                    "--signal", "0.5", "--out", str(out)], capsys)
    assert _sha(summary.replace(str(out), "OUT")) == PINNED["synth_summary"]
    assert _sha(out.read_text(encoding="utf-8")) == PINNED["synth_corpus"]


def test_corpus_round_trip_reproduces_the_bundled_bytes(tmp_path):
    records, _ = load_corpus(bundled_corpus_path())
    out = tmp_path / "corpus.csv"
    save_corpus(records, out)
    assert out.read_bytes() == bundled_corpus_path().read_bytes()
