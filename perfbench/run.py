"""Benchmark of the iotrisk command line.

Run from the repository root:

    python3 perfbench/run.py --workload cv_gbdt --seed 7 --seconds 30 --trace 0

Every workload is a closed loop with one client: each request starts
after the previous one returned.  A run first sets up its inputs
(``SETUP_REPEATS`` times, reporting the median), then repeats the
workload's cycle of requests until ``--seconds`` have passed; a cycle is
not started when the previous one says it would overrun.  Every request's
output is checked, and a non-zero exit or a failed check counts as a
failed request.

``--trace 0`` runs real ``python -m iotrisk`` subprocesses and reports the
end-to-end metrics.  ``--trace 1`` runs set-up and one cycle in-process
through ``iotrisk.cli.main``, once plain and once with spans around each
layer (see tracing.py), and reports the per-layer metrics; it ignores
``--seconds``.

The last line of stdout is the result object.  The line before it holds
machine facts, provenance and informational figures, under the metric
names the workload table in README.md uses.  The exit code is 1 when any
request failed, 2 when the iotrisk sources are missing.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BUNDLED = SRC / "iotrisk" / "data" / "bundled_corpus.csv"
BUNDLED_ROWS = 1153
DEFAULT_SEED = 7
SETUP_REPEATS = 7
PREDICT_REQUESTS = 10  # alternating 1-row and full-corpus requests
CV_FOLDS, CV_REPEATS = 5, 1
DEADLINE_S = 170.0  # a run must end within 180 s


class CheckFailed(Exception):
    """A request's output did not pass its correctness check."""


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[str], tuple[str, dict]]  # stdout -> (digest, facts)


@dataclass
class Workload:
    setup: list[Request]
    cycle: list[Request]
    main_kind: str  # the request whose latency is request_s
    prepare: Callable[[], None] = lambda: None  # benchmark-side inputs


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def check_corpus(path: Path, rows: int):
    def check(stdout):
        data = path.read_bytes()
        found = len(list(csv.reader(io.StringIO(data.decode("utf-8"))))) - 1
        if found != rows:
            raise CheckFailed(f"{path.name}: {found} rows, expected {rows}")
        return _digest(data), {}
    return check


def check_cv(folds: int):
    def check(stdout):
        table = list(csv.reader(io.StringIO(stdout)))
        if len(table) != 2 or len(table[1]) != folds + 3:
            raise CheckFailed(f"cv table is not one row of {folds} fold scores")
        scores = [float(v) for v in table[1][1:folds + 1]]
        if not all(0.0 <= s <= 1.0 for s in scores):
            raise CheckFailed(f"cv fold score outside [0, 1]: {scores}")
        return _digest(stdout.encode()), {"cv_accuracy": statistics.fmean(scores)}
    return check


def check_train(model: Path, family: str, mode: str):
    def check(stdout):
        from iotrisk.artifacts import load_encoder, load_model
        from iotrisk.errors import IotRiskError

        sidecar = Path(f"{model}.encoders.json")
        try:
            encoder = load_encoder(sidecar)
            pipeline = load_model(model, expected_fingerprint=encoder.fingerprint())
        except (IotRiskError, OSError, KeyError, ValueError) as exc:
            raise CheckFailed(f"{model.name} does not load: {exc}") from exc
        if (pipeline.family, pipeline.mode) != (family, mode):
            raise CheckFailed(f"{model.name} holds {pipeline.family}/{pipeline.mode}")
        facts = {"model_mb": model.stat().st_size / 1e6}
        if mode == "tsne":
            kl = pipeline.dimred.tsne_kl
            if kl is None or not kl[1] < kl[0]:
                raise CheckFailed(f"t-SNE KL did not fall: {kl}")
            facts["tsne_kl"] = kl[1]
        return _digest(model.read_bytes(), sidecar.read_bytes()), facts
    return check


def check_predict(rows: int):
    def check(stdout):
        table = list(csv.reader(io.StringIO(stdout)))
        header, body = table[0], table[1:]
        classes = [name[2:] for name in header[2:-1]]
        if len(body) != rows:
            raise CheckFailed(f"predict printed {len(body)} rows, expected {rows}")
        for cells in body:
            probs = [float(v) for v in cells[2:2 + len(classes)]]
            if abs(sum(probs) - 1.0) > 1e-5 or min(probs) < 0.0:
                raise CheckFailed(f"row {cells[0]}: probabilities {probs}")
            # printed values round monotonically, so the argmax stays maximal
            if probs[classes.index(cells[1])] < max(probs):
                raise CheckFailed(f"row {cells[0]}: {cells[1]} is not the argmax")
        return _digest(stdout.encode()), {}
    return check


def _validated_corpus(corpus: Path) -> Request:
    return Request("build", ["build", "--input", str(BUNDLED), "--out", str(corpus)],
                   check_corpus(corpus, BUNDLED_ROWS))


def cv_gbdt(seed: int) -> Workload:
    corpus = WORK / "corpus.csv"
    cv = Request("cv", ["cv", "--corpus", str(corpus), "--model", "gbdt",
                        "--modes", "wo_dr", "--k", str(CV_FOLDS),
                        "--repeats", str(CV_REPEATS), "--threads", "2",
                        "--seed", str(seed), "--format", "csv"],
                 check_cv(CV_FOLDS * CV_REPEATS))
    return Workload([_validated_corpus(corpus)], [cv], "cv")


def tsne_train(seed: int) -> Workload:
    corpus, model = WORK / "corpus.csv", WORK / "model.json"
    build = Request("build", ["build", "--synthesize", "--total", "576",
                              "--signal", "0.35", "--seed", str(seed),
                              "--out", str(corpus)],
                    check_corpus(corpus, 576))
    train = Request("train", ["train", "--corpus", str(corpus), "--model", "gbdt",
                              "--mode", "tsne", "--seed", str(seed),
                              "--out", str(model)],
                    check_train(model, "gbdt", "tsne"))
    return Workload([build], [train], "train")


def train_score(seed: int) -> Workload:
    corpus, model = WORK / "corpus.csv", WORK / "model.json"
    one_row, devices = WORK / "one_device.csv", WORK / "devices.csv"

    def prepare():
        with corpus.open(encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        label = table[0].index("risk_score")
        table = [row[:label] + row[label + 1:] for row in table]
        pick = random.Random(seed).randrange(1, len(table))
        for path, rows in ((devices, table), (one_row, [table[0], table[pick]])):
            with path.open("w", encoding="utf-8", newline="") as handle:
                csv.writer(handle, lineterminator="\n").writerows(rows)

    train = Request("train", ["train", "--corpus", str(corpus), "--model", "voting",
                              "--threads", "2", "--seed", str(seed),
                              "--out", str(model)],
                    check_train(model, "voting", "wo_dr"))
    predicts = []
    for i in range(PREDICT_REQUESTS):
        kind, path, rows = (("predict_1row", one_row, 1) if i % 2 == 0
                            else ("predict_batch", devices, BUNDLED_ROWS))
        predicts.append(Request(kind, ["predict", "--model", str(model),
                                       "--encoders", f"{model}.encoders.json",
                                       "--input", str(path), "--format", "csv"],
                                check_predict(rows)))
    return Workload([_validated_corpus(corpus)], [train] + predicts, "train",
                    prepare)


WORKLOADS = {"cv_gbdt": cv_gbdt, "tsne_train": tsne_train, "train_score": train_score}


class Client:
    """Sends requests one at a time and tallies their outcome."""

    def __init__(self, execute, reference: dict):
        self.execute = execute  # argv -> (wall_s, exit_code, stdout, stderr)
        self.reference = reference  # kind -> digest, at the default seed
        self.attempted = self.failed = 0
        self.identical = self.compared = 0
        self.walls: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}  # kind -> digest of its last output
        self.facts: dict[str, float] = {}

    def send(self, request: Request) -> float:
        wall, code, stdout, stderr = self.execute(request.argv)
        self.attempted += 1
        self.walls.setdefault(request.kind, []).append(wall)
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {stderr.strip()[-400:]}")
            digest, facts = request.check(stdout)
        # malformed output surfaces as a parse error inside the check
        except (CheckFailed, OSError, ValueError, IndexError) as exc:
            self.failed += 1
            print(f"{request.kind} failed: {exc}", file=sys.stderr)
            return wall
        self.facts.update(facts)
        self.digests[request.kind] = digest
        if request.kind in self.reference:
            self.compared += 1
            self.identical += digest == self.reference[request.kind]
        return wall

    def run(self, requests) -> float:
        return sum(self.send(r) for r in requests if not self.failed)


def subprocess_executor(deadline: float):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def execute(argv):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "iotrisk", *argv],
                                  capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, "", "timed out"
        return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr

    return execute, env


def inprocess_executor(tracer=None):
    from iotrisk.cli import main

    def execute(argv):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception:  # what a subprocess would report as exit 1
                traceback.print_exc()
                code = 1
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    return execute


def machine_facts() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters (user .. steal) of the machine."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(v) for v in handle.readline().split()[1:9]]


def steal_frac(start: list[int], end: list[int]) -> float:
    """Share of CPU ticks the hypervisor gave to other guests."""
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def provenance() -> dict:
    """Git commit when the checkout has one, and a digest of the sources."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    sources = sorted((SRC / "iotrisk").rglob("*.py"))
    return {
        "git_commit": commit,
        "source_sha256": _digest(*(p.read_bytes() for p in sources)),
    }


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def named_metrics(workload: str, client: Client, cycles: list[float],
                  setup: list[float], peak_rss_mb: float) -> dict:
    """Metrics of this workload under their report names, with units and counts."""
    def entry(value, unit, n=None):
        item = {"value": value, "unit": unit}
        if n is not None:
            item["n"] = n
        return item

    walls = client.walls
    figures = {
        "setup_s": entry(_median(setup), "s", len(setup)),
        "peak_rss_mb": entry(peak_rss_mb, "MB"),
        "failed_frac": entry(client.failed / client.attempted, "fraction"),
        "cycle_s": entry(_median(cycles), "s", len(cycles)),
    }
    if workload == "cv_gbdt":
        figures["cv_s"] = entry(_median(walls.get("cv")), "s", len(walls.get("cv", [])))
        figures["cv_accuracy"] = entry(client.facts.get("cv_accuracy"), "fraction")
    else:
        figures["train_s"] = entry(_median(walls.get("train")), "s",
                                   len(walls.get("train", [])))
        figures["model_mb"] = entry(client.facts.get("model_mb"), "MB")
    if workload == "tsne_train":
        figures["tsne_kl"] = entry(client.facts.get("tsne_kl"), "nats")
    if workload == "train_score":
        for kind in ("predict_1row", "predict_batch"):
            values = walls.get(kind, [])
            figures[f"{kind}_s.p50"] = entry(_median(values), "s", len(values))
    return figures


def run_untraced(name: str, workload: Workload, client: Client, seconds: float):
    setup = [client.run(workload.setup) for _ in range(SETUP_REPEATS)]
    if not client.failed:
        workload.prepare()
    cycles = []
    begin = time.perf_counter()
    while not client.failed:
        cycles.append(client.run(workload.cycle))
        if time.perf_counter() - begin + cycles[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    metrics = {
        "setup_s": (_median(setup), "s"),
        "request_s": (_median(client.walls.get(workload.main_kind, [])), "s"),
        "cycle_s": (_median(cycles), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, named_metrics(name, client, cycles, setup, peak_rss_mb)


def run_traced(workload: Workload, seed: int, env: dict):
    import tracing
    from iotrisk.dimred import TsneConfig

    def one_pass(client):
        wall = client.run(workload.setup)
        if not client.failed:
            workload.prepare()
        return wall + client.run(workload.cycle)

    # probes first: they run outside any workload and before warm-up
    figures = tracing.stump_probe(seed)
    figures["cli.import_s"] = tracing.import_probe(env, ROOT)
    plain = Client(inprocess_executor(), {})
    untraced_wall = one_pass(plain)
    tracer = tracing.Tracer()
    traced = Client(inprocess_executor(tracer), {})
    with tracer.installed():
        traced_wall = one_pass(traced)
    figures.update(tracing.layer_metrics(
        tracer.spans, traced_wall, untraced_wall, TsneConfig().n_iter))
    with (WORK / "spans.jsonl").open("w", encoding="utf-8") as handle:
        for index, span in enumerate(tracer.spans):
            handle.write(json.dumps({"id": index, **vars(span)}) + "\n")
    metrics = {name: (figures[name], unit) for name, unit, _ in tracing.LAYER_METRICS}
    info = {"spans": len(tracer.spans), "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall}
    return metrics, info, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's output digests as the reference "
                             "for the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "iotrisk" / "cli.py").is_file():
        print(f"error: no iotrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    reference = references.get(args.workload, {}) if args.seed == DEFAULT_SEED else {}
    workload = WORKLOADS[args.workload](args.seed)
    execute, env = subprocess_executor(deadline)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine_facts(), "provenance": provenance(),
            "loadavg_start": os.getloadavg()}
    ticks = cpu_ticks()
    if args.trace:
        metrics, info["trace_run"], clients = run_traced(workload, args.seed, env)
    else:
        client = Client(execute, reference)
        metrics, info["metrics_by_name"] = run_untraced(
            args.workload, workload, client, args.seconds)
        info["outputs_identical"] = client.identical
        info["outputs_compared"] = client.compared
        if args.write_reference and not client.failed:
            references[args.workload] = client.digests
            REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        clients = [client]
    info["loadavg_end"] = os.getloadavg()
    info["cpu_steal_frac"] = steal_frac(ticks, cpu_ticks())
    info["request_walls_s"] = clients[-1].walls
    print(json.dumps(info))
    attempted = sum(c.attempted for c in clients)
    failed = sum(c.failed for c in clients)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
