"""Command-line entry point.

Subcommands walk the pipeline end to end: ingest -> build -> train ->
cv / tune / evaluate / ablate -> predict -> report.  Every command that
involves randomness takes a mandatory --seed, and identical invocations
over identical inputs write byte-identical artifacts.

Exit codes: 0 ok, 2 usage or configuration, 3 data/format, 4 training,
5 evaluation.
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import dataset, reporting
from .artifacts import load_encoder, load_model, save_encoder, save_model
from .dataset import (
    CSV_HEADER,
    SynthesisSpec,
    class_distribution,
    load_corpus,
    load_devices,
    save_corpus,
    synthesize_corpus,
)
from .encoding import CorpusEncoder, correlation_matrix
from .ensemble import fit_model
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    EvaluationError,
    IotRiskError,
    TrainingError,
)
from .evaluation import (
    ablation_study,
    compute_metrics,
    cross_validate,
    grid_configs,
    grid_search,
    make_fold_plan,
    stratified_split,
)
from .nvd import (
    candidate_devices,
    filter_by_year,
    filter_iot,
    load_rules,
    read_feed,
)
from .pipeline import (
    FAMILIES,
    MODES,
    PROFILES,
    PipelineConfig,
    build_design,
    fit_design,
    fit_pipeline,
    predict_devices,
)
from .util import derived_seed

_SPLIT_TAG = 11  # sub-stream tag for the evaluate train/test split


def _typed(text: str):
    words = {"true": True, "false": False, "none": None, "null": None}
    if text.lower() in words:
        return words[text.lower()]
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"--param expects key=value, got {pair!r}")
        overrides[key] = _typed(value)
    return overrides


def _load_config_tokens(path: str) -> list[str]:
    """key=value lines -> CLI tokens (bare flag for true, dropped for false)."""
    tokens = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DataFormatError(f"{path}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() == "false":
            continue
        else:
            tokens.extend([flag, value])
    return tokens


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens after the subcommand; explicit flags win."""
    if not argv:
        return argv
    path = None
    cleaned = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            i += 1
            continue
        cleaned.append(token)
        i += 1
    if path is None:
        return argv
    return cleaned[:1] + _load_config_tokens(path) + cleaned[1:]


def _emit(text: str, out_path: str | None) -> None:
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")


@contextmanager
def _training_errors():
    """Report an unexpected failure of model fitting as a TrainingError."""
    try:
        yield
    except IotRiskError:
        raise
    except Exception as exc:  # model fitting is the risky stage
        raise TrainingError(str(exc)) from exc


def _pipeline_config(args) -> PipelineConfig:
    """The config of the options given; one left out takes its default."""
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    given = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
             if hasattr(args, f.name)}
    given["overrides"] = _parse_overrides(given.get("overrides"))
    return PipelineConfig(**given).validate()


def cmd_ingest(args) -> int:
    rules_path = args.rules or dataset.default_rules_path()
    rules = load_rules(rules_path)
    parts = tuple(args.part) if args.part else None
    entries = []
    skipped = errors = uri_errors = items = 0
    for feed_path in args.feed:
        parsed = read_feed(feed_path)
        items += len(parsed.entries) + parsed.skipped + len(parsed.item_errors)
        entries.extend(parsed.entries)
        skipped += parsed.skipped
        errors += len(parsed.item_errors)
        uri_errors += len(parsed.uri_errors)
        for message in parsed.item_errors + parsed.uri_errors:
            print(f"{feed_path}: {message}", file=sys.stderr)
    recent = filter_by_year(entries, args.min_year)
    matched = filter_iot(recent, rules, parts=parts)
    rows = candidate_devices(matched, parts=parts)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    print(
        f"items={items} scored={len(entries)} no-cvss3={skipped} "
        f"item-errors={errors} uri-errors={uri_errors} "
        f"after-{args.min_year}-filter={len(recent)} matched={len(matched)} "
        f"candidates={len(rows)}",
        file=sys.stderr,
    )
    print(f"wrote {len(rows)} candidate rows to {args.out}")
    return 0


def cmd_build(args) -> int:
    if args.synthesize:
        if args.seed is None:
            raise ConfigError("--synthesize needs --seed")
        spec = SynthesisSpec(
            seed=args.seed, total=args.total, signal_strength=args.signal
        )
        if args.fractions:
            try:
                values = [float(v) for v in args.fractions.split(",")]
            except ValueError:
                raise ConfigError(f"--fractions needs numbers, got {args.fractions!r}") from None
            if len(values) != len(dataset.RISK_CLASSES):
                raise ConfigError("--fractions needs four comma-separated values")
            spec.class_fractions = dict(zip(dataset.RISK_CLASSES, values))
        records = synthesize_corpus(spec)
    elif args.input:
        records, _ = load_corpus(args.input)
    else:
        raise ConfigError("build needs either --input or --synthesize")
    save_corpus(records, args.out)
    summary = class_distribution(records)
    _emit(reporting.summary_report(summary), None)
    print(f"wrote {summary.total} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    sidecar = args.encoders or f"{args.out}.encoders.json"
    if Path(sidecar).resolve() == Path(args.out).resolve():
        raise ConfigError(f"--encoders and --out both name {args.out}; "
                          "the sidecar would overwrite the model")
    records, _ = load_corpus(args.corpus)
    config = _pipeline_config(args)
    with _training_errors():
        encoder, pipeline = fit_pipeline(records, config, threads=args.threads)
    save_model(args.out, pipeline, encoder.fingerprint())
    save_encoder(sidecar, encoder)
    print(f"model: {args.out}")
    print(f"encoders: {sidecar}")
    print(f"encoder fingerprint: {encoder.fingerprint()}")
    return 0


def _fold_plan(records, config):
    """Folds drawn from the records' labels, before any encoding or
    reduction runs, so a --k larger than some class fails at once."""
    labels = [int(r.risk_score) for r in records]
    return make_fold_plan(labels, config.k, config.repeats, config.seed)


def cmd_cv(args) -> int:
    records, _ = load_corpus(args.corpus)
    config = _pipeline_config(args)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ConfigError(f"--modes names no mode; choose from {'/'.join(MODES)}")
    for i, mode in enumerate(modes):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}; choose from {'/'.join(MODES)}")
        if mode in modes[:i]:
            raise ConfigError(f"--modes names {mode!r} more than once")
    spec = config.model_spec()
    plan = _fold_plan(records, config)
    encoded = CorpusEncoder.fit(records).transform(records)  # the same for every mode
    # every mode is built before any fold is fitted, so one that cannot be fails first
    designs = [build_design(encoded, replace(config, mode=mode))[0].data for mode in modes]
    results = cross_validate([(spec, X) for X in designs], encoded.labels, plan,
                             threads=args.threads)
    _emit(reporting.cv_report(args.format, list(zip(modes, results)), config.k,
                              config.repeats, config.seed, config.family), args.out)
    return 0


def cmd_tune(args) -> int:
    try:
        grid = json.loads(Path(args.grid).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.grid}: not valid JSON ({exc.msg})") from exc
    if not isinstance(grid, dict) or not all(
        isinstance(v, list) for v in grid.values()
    ):
        raise DataFormatError(f"{args.grid}: expected an object of value lists")
    records, _ = load_corpus(args.corpus)
    config = _pipeline_config(args)
    if config.family == "voting":
        raise ConfigError("tune applies to a single model family (gbdt or rfc)")
    base_params = config.model_spec().params
    grid_configs(config.family, grid, base_params)  # a bad grid fails before encoding
    plan = _fold_plan(records, config)
    _, design, _ = fit_design(records, config)
    result = grid_search(
        config.family,
        grid,
        design.data,
        design.labels,
        plan,
        seed=config.seed,
        base_params=base_params,
        metric=args.metric.replace("-", "_"),
        threads=args.threads,
    )
    _emit(reporting.tune_report(args.format, result), args.out)
    return 0


def cmd_evaluate(args) -> int:
    records, _ = load_corpus(args.corpus)
    config = _pipeline_config(args)
    _, design, _ = fit_design(records, config)
    labels = design.labels
    train_idx, test_idx = stratified_split(
        labels, config.test_fraction, derived_seed(config.seed, _SPLIT_TAG)
    )
    with _training_errors():
        model = fit_model(config.model_spec(), design.data[train_idx], labels[train_idx],
                          threads=args.threads)
    predicted = model.predict(design.data[test_idx])
    report = compute_metrics(labels[test_idx], predicted)
    title = (
        f"test metrics (%), model={config.family}, mode={config.mode}, "
        f"test fraction={config.test_fraction}, seed={config.seed}"
    )
    _emit(reporting.metrics_report(args.format, report, title), args.out)
    return 0


def cmd_predict(args) -> int:
    encoder = load_encoder(args.encoders)
    pipeline = load_model(args.model, expected_fingerprint=encoder.fingerprint())
    devices = load_devices(args.input)
    predictions = predict_devices(encoder, pipeline, devices)
    _emit(reporting.predictions_report(args.format, predictions), args.out)
    return 0


def cmd_ablate(args) -> int:
    records, _ = load_corpus(args.corpus)
    config = _pipeline_config(args)
    plan = _fold_plan(records, config)
    _, design, _ = fit_design(records, config)
    report = ablation_study(
        config.model_spec(), design.data, design.labels, plan,
        feature_names=design.columns, threads=args.threads,
    )
    _emit(reporting.ablation_report(args.format, report), args.out)
    return 0


def cmd_report(args) -> int:
    records, summary = load_corpus(args.corpus)
    _emit(reporting.summary_report(summary), args.out)
    if args.correlation:
        encoder = CorpusEncoder.fit(records)
        encoded = encoder.transform(records)
        corr = correlation_matrix(encoded, include_label=args.include_label)
        Path(args.correlation).write_text(reporting.correlation_report(corr),
                                          encoding="utf-8")
        print(f"correlation matrix: {args.correlation}")
        if corr.constant:
            print(f"constant columns (correlation fixed at 0): {', '.join(corr.constant)}")
    return 0


def _add_model_options(sub, with_mode=True):
    """The corpus, seed, model and worker options of every fitting command."""
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--seed", type=int, required=True)
    unset = argparse.SUPPRESS  # left out: PipelineConfig's default applies
    sub.add_argument("--model", dest="family", default=unset, choices=FAMILIES,
                     help="model family")
    if with_mode:
        sub.add_argument("--mode", default=unset, choices=MODES, help="pipeline mode")
    sub.add_argument("--profile", default=unset, choices=PROFILES, help="parameter profile")
    sub.add_argument("--param", dest="overrides", default=unset, action="append",
                     metavar="KEY=VALUE",
                     help="explicit model parameter override (repeatable)")
    sub.add_argument("--clusters", type=int, default=unset,
                     help="k for the cluster stage of reduced modes")
    sub.add_argument("--components", type=int, default=unset,
                     help="PCA component count (default: 95%% variance rule)")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker processes that fit the cv/tune/ablate cells, "
                          "or the forest tree ranges and voting members of "
                          "train/evaluate (forked, never nested; serial where "
                          "fork is unavailable); outputs are byte-identical "
                          "at any value")


def _add_fold_options(sub):
    sub.add_argument("--k", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--repeats", type=int, default=argparse.SUPPRESS)


def _add_output_options(sub):
    sub.add_argument("--out", default=None, help="also write the report here")
    sub.add_argument("--format", default="text", choices=("text", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotrisk",
        description="Severity-class prediction for IoT devices from public features",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("ingest", help="parse NVD feeds into device candidates")
    sub.add_argument("--feed", action="append", required=True,
                     help="NVD JSON 1.1 feed file, optionally .gz (repeatable)")
    sub.add_argument("--rules", default=None,
                     help="category rule file (default: bundled rules)")
    sub.add_argument("--min-year", type=int, default=2013)
    sub.add_argument("--part", action="append", choices=("a", "o", "h"),
                     help="restrict CPE part values (repeatable; default: all)")
    sub.add_argument("--out", required=True, help="candidate CSV path")
    sub.set_defaults(handler=cmd_ingest)

    sub = commands.add_parser("build", help="validate or synthesize a corpus")
    sub.add_argument("--input", default=None, help="completed candidate CSV")
    sub.add_argument("--synthesize", action="store_true")
    sub.add_argument("--total", type=int, default=dataset.REFERENCE_TOTAL)
    sub.add_argument("--signal", type=float, default=SynthesisSpec.signal_strength,
                     help="planted signal strength in [0, 1]")
    sub.add_argument("--fractions", default=None,
                     help="four comma-separated class fractions")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", required=True)
    sub.set_defaults(handler=cmd_build)

    sub = commands.add_parser("train", help="fit a model and its encoder sidecar")
    _add_model_options(sub)
    sub.add_argument("--out", required=True, help="model file path")
    sub.add_argument("--encoders", default=None,
                     help="sidecar path (default: <out>.encoders.json)")
    sub.set_defaults(handler=cmd_train)

    sub = commands.add_parser("cv", help="repeated stratified cross-validation")
    _add_model_options(sub, with_mode=False)
    _add_fold_options(sub)
    sub.add_argument("--modes", default="wo_dr",
                     help="comma-separated pipeline modes to compare")
    _add_output_options(sub)
    sub.set_defaults(handler=cmd_cv)

    sub = commands.add_parser("tune", help="exhaustive grid search")
    _add_model_options(sub)
    sub.add_argument("--grid", required=True,
                     help="JSON file: {parameter: [values, ...]}")
    _add_fold_options(sub)
    sub.add_argument("--metric", default="accuracy",
                     choices=("accuracy", "macro-f1"),
                     help="selection metric (macro-f1 weighs classes equally)")
    _add_output_options(sub)
    sub.set_defaults(handler=cmd_tune)

    sub = commands.add_parser("evaluate", help="train/test split metrics")
    _add_model_options(sub)
    sub.add_argument("--test-fraction", type=float, default=argparse.SUPPRESS)
    _add_output_options(sub)
    sub.set_defaults(handler=cmd_evaluate)

    sub = commands.add_parser("predict", help="score device rows with a model")
    sub.add_argument("--model", required=True, help="model file from train")
    sub.add_argument("--encoders", required=True, help="encoder sidecar file")
    sub.add_argument("--input", required=True,
                     help="device CSV (corpus header minus risk_score)")
    _add_output_options(sub)
    sub.set_defaults(handler=cmd_predict)

    sub = commands.add_parser("ablate", help="drop-one-feature deltas")
    _add_model_options(sub)
    _add_fold_options(sub)
    _add_output_options(sub)
    sub.set_defaults(handler=cmd_ablate)

    sub = commands.add_parser("report", help="corpus summary and correlations")
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--correlation", default=None,
                     help="write the correlation matrix CSV here")
    sub.add_argument("--include-label", action="store_true")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=cmd_report)

    return parser


# Exit code per error family.  Bytes that are not UTF-8 and a truncated
# gzip stream are malformed input like any other.
EXIT_CODES = {ConfigError: 2, DataFormatError: 3, DomainError: 3, OSError: 3,
              UnicodeDecodeError: 3, EOFError: 3, TrainingError: 4, EvaluationError: 5}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.handler(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
