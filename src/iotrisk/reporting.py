"""Plain-text and CSV renderings of summaries, correlations,
cross-validation runs, test metrics, tuning rankings, ablations and
predictions.

Each report builds its rows once and `render` prints them in either
format.  The cross-validation layout is one row per run with
R{repeat}-F{fold} columns plus mean and std; the metrics layout is one
row per metric with per-class, Macro and Micro/ACC columns.  Text values
are percentages with one decimal; CSV values are fractions with six.
"""

from .dataset import CorpusSummary
from .encoding import CorrelationReport
from .evaluation import AblationReport, CvResult, MetricsReport, TuneResult
from .nvd import CLASS_NAMES, RISK_CLASSES
from .pipeline import Prediction


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(w) for cell, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}"


def render(fmt: str, rows: list[list], title: str = "", notes: str = "",
           number=_pct) -> str:
    """Rows of string or number cells as CSV (numbers as .6f, no title or
    notes) or as an aligned text table (numbers through `number`) between
    the title line and the notes."""
    if fmt == "csv":
        return "".join(
            ",".join(c if isinstance(c, str) else f"{c:.6f}" for c in row) + "\n"
            for row in rows
        )
    cells = [[c if isinstance(c, str) else number(c) for c in row] for row in rows]
    return (title + "\n" if title else "") + _table(cells) + notes


def summary_report(summary: CorpusSummary) -> str:
    rows = [["class", "count", "share"]]
    for cls in RISK_CLASSES:
        count, fraction = summary.per_class[cls]
        rows.append([cls.name, str(count), f"{100.0 * fraction:.0f}%"])
    return _table(rows + [["total", str(summary.total), ""]])


def correlation_report(report: CorrelationReport) -> str:
    """The correlation matrix as CSV, for external plotting."""
    return render("csv", [["", *report.names]] + [
        [name, *row] for name, row in zip(report.names, report.matrix)])


def cv_report(fmt: str, runs: list[tuple[str, CvResult]], k: int, repeats: int,
              seed: int, family: str) -> str:
    rows = [["mode", *runs[0][1].fold_labels, "mean", "std"]]
    rows += [[label, *result.accuracies, result.mean, result.std]
             for label, result in runs]
    title = (f"stratified cross-validation accuracy (%), model={family}, "
             f"k={k}, repeats={repeats}, seed={seed}")
    return render(fmt, rows, title)


def metrics_report(fmt: str, report: MetricsReport, title: str = "") -> str:
    rows = [["metric", *CLASS_NAMES, "Macro", "Micro/ACC"]]
    for name, per_class, macro, micro in (
        ("Precision", report.precision, report.macro_precision, report.micro_precision),
        ("Recall", report.recall, report.macro_recall, report.micro_recall),
        ("F-1", report.f1, report.macro_f1, report.micro_f1),
    ):
        rows.append([name, *per_class, macro, micro])
    if fmt == "csv":
        return render(fmt, rows + [["Accuracy", report.accuracy]])
    notes = f"accuracy: {_pct(report.accuracy)}%\n"
    notes += "confusion matrix (rows true, columns predicted):\n"
    notes += _table([["", *CLASS_NAMES]] + [
        [cls, *(str(int(v)) for v in row)]
        for cls, row in zip(CLASS_NAMES, report.confusion)
    ])
    if report.zero_division:
        noted = ", ".join(f"{CLASS_NAMES[c]}/{m}" for c, m in report.zero_division)
        notes += f"zero-denominator metrics reported as 0: {noted}\n"
    return render(fmt, rows, title, notes)


def tune_report(fmt: str, result: TuneResult) -> str:
    names = sorted({k for config in result.configs for k in config})
    rows = [["rank", *names, "mean", "std"]]
    for rank, index in enumerate(result.ranking, start=1):
        config = result.configs[index]
        rows.append([str(rank), *(str(config.get(n, "")) for n in names),
                     result.means[index], result.stds[index]])
    metric = result.metric.replace("_", " ")
    notes = (f"winner: {result.winner} "
             f"(mean {metric} {_pct(result.means[result.winner_index])}%)\n")
    return render(fmt, rows, notes=notes)


def ablation_report(fmt: str, report: AblationReport) -> str:
    rows = [["feature", "mean", "delta"]]
    rows += [[entry.feature, entry.mean, entry.delta] for entry in report.entries]
    title = (f"baseline mean accuracy {_pct(report.baseline_mean)}% "
             f"(std {_pct(report.baseline_std)}); delta = mean after dropping the feature")
    return render(fmt, rows, title)


def predictions_report(fmt: str, predictions: list[Prediction]) -> str:
    """Text shows p(class) to three decimals with the warnings below the
    table; CSV names the columns p_class and ends each row with its
    warnings, commas turned into semicolons."""
    csv = fmt == "csv"
    rows = [["row", "predicted", *(f"p_{c}" if csv else f"p({c})" for c in CLASS_NAMES)]
            + (["warnings"] if csv else [])]
    for i, prediction in enumerate(predictions):
        rows.append([str(i), prediction.risk.name, *prediction.probabilities]
                    + (["; ".join(prediction.warnings).replace(",", ";")] if csv else []))
    notes = "".join(
        f"warning: row {i}: {note}\n"
        for i, prediction in enumerate(predictions)
        for note in prediction.warnings
    )
    return render(fmt, rows, notes=notes, number=lambda p: f"{p:.3f}")
