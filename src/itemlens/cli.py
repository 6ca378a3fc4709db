"""Command-line pipeline over eTextbook interaction logs.

Subcommands: validate, metrics, fit, classify, simulate, pipeline. Every
command writes its artifacts into one output directory (--out, then the
ITEMLENS_OUT environment variable, then ./itemlens_out), and writes
effective_config.json, the settings actually used, before anything else.

Each stage (validate, metrics, fit, classify, simulate, recovery) is one
function that writes its files and prints one line. The single-stage commands
call one of them; pipeline calls them in order, printing each stage's line,
and writes pipeline_summary.json, the stages that ran and every file written,
on every exit after effective_config.json.

Exit codes: 0 success, 1 domain failure (log rows that do not parse, data
that cannot be processed, or an invalid scenario), 2 I/O or usage failure,
including a bad config or grouping file value. Outputs are deterministic for
fixed inputs and seed; no timestamps or absolute paths are embedded, so
rerunning into a fresh directory reproduces the tree byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import events, tables
from .irt import (
    ABILITIES, FIT_FIELDS, PARAMS, DegenerateMatrix, FitConfig, ItemParameters, fit_2pl, params_to_csv, sample_curves
)
from .metrics import METRICS, MetricsTable, build_metrics_table
from .quality import classify_quality, quality_report
from .response import build_matrices
from .simulate import TRUE_ABILITIES, SimulationOutput, load_scenario, recovery_report, run_scenario
from .tables import BOOL, FLOAT, INT, TEXT, dict_of, load_fields, optional, record

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

OUT_ENV_VAR = "ITEMLENS_OUT"
DEFAULT_THRESHOLD = 0.70


class DomainFailure(Exception):
    """Readable input that cannot be processed (exit 1)."""


class UsageFailure(Exception):
    """Bad flags or malformed configuration (exit 2)."""


@dataclass
class RunConfig:
    """Effective settings for one command after flag/file/default merging; each field is a config-file key."""

    threshold: float = DEFAULT_THRESHOLD
    grouping: str | None = None  # the grouping file's path
    table2_compat: bool = False
    seed: int | None = None
    format: str = "csv"
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise UsageFailure(f"threshold must be in (0, 1], got {self.threshold}")
        if self.format not in ("csv", "json"):
            raise UsageFailure(f"format must be csv or json, got {self.format!r}")


# every config-file key; null leaves a key unset, so that the flag or the default applies, but fit must be an object
CONFIG_FIELDS = [
    ("threshold", optional(FLOAT), None),
    ("grouping", optional(TEXT), None),
    ("table2_compat", optional(BOOL), None),
    ("seed", optional(INT), None),
    ("format", optional(TEXT), None),
    ("fit", record(FIT_FIELDS, FitConfig), {}),
]
# a grouping file: the fit group of each exercise id, and the group of every exercise it does not name
GROUPING_FIELDS = [("map", dict_of(TEXT), None), ("default_group", optional(TEXT), None)]


def _load_file(path: str, fields, what: str) -> dict:
    """The fields of a JSON file; UsageFailure when it is not valid JSON or breaks its schema."""
    try:
        return load_fields(fields, json.loads(Path(path).read_text()))
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep to decode
        raise UsageFailure(f"bad {what} file: {exc}") from None


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over built-in defaults."""
    cfg_path = getattr(args, "config", None)
    data = _load_file(cfg_path, CONFIG_FIELDS, "config") if cfg_path else {}
    flags = {name: getattr(args, name, None) for name, _, _ in CONFIG_FIELDS}
    values = {name: data.get(name) if flag is None else flag for name, flag in flags.items()}
    return RunConfig(**{name: value for name, value in values.items() if value is not None})


class Run:
    """One command's settings and output directory, with every file it writes and each stage's status.

    Creating a run writes ``effective_config.json`` first, so even a failed
    command leaves a record of the settings it ran with.
    """

    def __init__(self, args: argparse.Namespace, command: str, input_path: str | None):
        self.cfg = load_run_config(args)
        out = getattr(args, "out", None) or os.environ.get(OUT_ENV_VAR) or "itemlens_out"
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.input = Path(input_path).name if input_path else None
        self.files: list[str] = []
        self.stages: dict[str, dict] = {}
        # the grouping file's name only: embedding run-specific paths would
        # break byte-identical reruns from other directories
        grouping = Path(self.cfg.grouping).name if self.cfg.grouping else None
        self.write_json(
            "effective_config.json",
            {"schema_version": 1, "command": command, "input": self.input, **asdict(self.cfg), "grouping": grouping},
        )

    def write(self, name: str, text: str) -> None:
        (self.out / name).write_text(text)
        self.files.append(name)

    def write_json(self, name: str, data) -> None:
        self.write(name, json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")

    def write_table(self, stem: str, to_csv, to_dict) -> None:
        """Write one table as ``stem.csv`` or ``stem.json``, as the run's format says."""
        if self.cfg.format == "csv":
            self.write(f"{stem}.csv", to_csv())
        else:
            self.write_json(f"{stem}.json", to_dict())


def _slug(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    return s or "group"


# ---------------------------------------------------------------------------
# stages: each writes its artifacts, records its status and prints one line
# ---------------------------------------------------------------------------


def _read_log(path: str) -> tuple[list[events.InteractionEvent], events.ValidationReport]:
    """A log's accepted events and its report; each rejected row goes to stderr as ``line N: reason``."""
    parsed = events.read_event_log(path)
    report = events.validate_log(parsed.events)
    for problem in parsed.problems:
        report.violations.append(f"line {problem.line}: {problem.reason}")
        print(report.violations[-1], file=sys.stderr)
    return parsed.events, report


def _validate(run: Run, report: events.ValidationReport) -> None:
    run.write_json("validation_report.json", report.to_dict())
    run.stages["validate"] = {
        "status": "ok" if report.ok else "failed",
        "n_events": report.n_events,
        "n_violations": len(report.violations),
    }
    print(f"validate: {report.n_events} events, {len(report.violations)} violations")


def _clean_summaries(run: Run, log_events, report: events.ValidationReport) -> list[events.StudentExerciseSummary]:
    """Per-pair tallies of a log that every later stage may use: no rejected row, and not empty."""
    if not report.ok:
        raise DomainFailure(f"{len(report.violations)} malformed rows in {run.input}")
    if not log_events:
        raise DomainFailure("event log is empty")
    return events.aggregate(log_events)


def _metrics(run: Run, log_events, summaries) -> MetricsTable:
    table = build_metrics_table(summaries)
    run.write_table("metrics", table.to_csv, table.to_dict)
    run.stages["metrics"] = {
        "status": "ok",
        "n_exercises": len(table.rows),
        "module_conflicts": len(events.module_conflicts(log_events)),
    }
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"metrics: {len(table.rows)} exercises, {len(table.warnings)} warnings")
    return table


def _fit(run: Run, summaries) -> list[ItemParameters]:
    """Fit every group and write its files; the fitted items of all groups, in group order."""
    cfg = run.cfg
    grouping = _load_file(cfg.grouping, GROUPING_FIELDS, "grouping") if cfg.grouping else {"map": None}
    build = build_matrices(
        summaries, grouping=grouping["map"], threshold=cfg.threshold, default_group=grouping.get("default_group")
    )
    by_slug: dict[str, str] = {}
    for matrix in build.matrices:
        slug = _slug(matrix.group_id)
        other = by_slug.setdefault(slug, matrix.group_id)
        if other != matrix.group_id:
            raise DomainFailure(f"groups {other!r} and {matrix.group_id!r} would both write params_{slug}.{cfg.format}")
    all_params: list[ItemParameters] = []
    groups_report: list[dict] = []
    for matrix in build.matrices:
        slug = _slug(matrix.group_id)
        try:
            result = fit_2pl(matrix, cfg.fit)
        except DegenerateMatrix as exc:
            groups_report.append({"group_id": matrix.group_id, "status": "skipped", "reason": str(exc)})
            continue
        all_params.extend(result.items)
        run.write_table(
            f"params_{slug}",
            lambda: params_to_csv(result.items),
            lambda: tables.to_json(PARAMS, result.items, group_id=matrix.group_id),
        )
        run.write(f"curves_{slug}.csv", sample_curves(result.items).to_csv())
        run.write(f"abilities_{slug}.csv", tables.write_csv(ABILITIES, result.abilities))
        diag = result.diagnostics
        run.write_json(
            f"diagnostics_{slug}.json",
            {
                "schema_version": 1,
                "group_id": diag.group_id,
                "n_students": matrix.n_students,
                "n_items": matrix.n_items,
                "degenerate_items": matrix.degenerate_items(),
                "n_iterations": diag.n_iterations,
                "log_likelihood": diag.log_likelihood,
                "converged": diag.converged,
                "trace": diag.trace,
            },
        )
        groups_report.append(
            {
                "group_id": matrix.group_id,
                "status": "fitted",
                "converged": diag.converged,
                "n_items": matrix.n_items,
                "n_students": matrix.n_students,
                "log_likelihood": diag.log_likelihood,
            }
        )
    run.write_json(
        "fit_summary.json",
        {
            "schema_version": 1,
            "groups": groups_report,
            "empty_groups": build.skipped_groups,
            "warnings": build.warnings,
        },
    )
    n_fitted = sum(g["status"] == "fitted" for g in groups_report)
    run.stages["fit"] = {"status": "ok" if n_fitted else "failed", "n_groups_fitted": n_fitted}
    if not n_fitted:
        unfittable = [g["group_id"] for g in groups_report] + build.skipped_groups
        raise DomainFailure(f"no fittable group; unfittable: {sorted(unfittable)}")
    print(f"fit: {n_fitted} group(s) fitted")
    return all_params


def _classify(run: Run, params: list[ItemParameters], metric_rows: list) -> None:
    compat = run.cfg.table2_compat
    verdicts = [classify_quality(p, table2_compat=compat) for p in params]
    report = quality_report(verdicts, metric_rows, params, table2_compat=compat)
    run.write_table("quality_report", report.to_csv, report.to_dict)
    run.write_json("quality_summary.json", {"schema_version": 1, **report.summary})
    run.stages["classify"] = {"status": "ok", "n_poor": report.summary["n_poor"]}
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"classify: {report.summary['n_poor']} poor of {report.summary['n_items']} items")


def _simulate(run: Run, path: str) -> SimulationOutput:
    sim = run_scenario(load_scenario(path, seed=run.cfg.seed))
    run.write("log.csv", events.events_to_csv(sim.log.events))
    run.write("truth_params.csv", params_to_csv(sim.scenario.items))
    run.write("truth_abilities.csv", tables.write_csv(TRUE_ABILITIES, sim.cohort))
    run.write("matrix.csv", sim.matrix.to_csv())
    run.stages["simulate"] = {"status": "ok", "n_events": len(sim.log.events)}
    print(
        f"simulate: {len(sim.log.events)} events, "
        f"{sim.scenario.cohort.n_students} students x {len(sim.scenario.items)} items"
    )
    return sim


def _recovery(run: Run, truth_items: list[ItemParameters], params: list[ItemParameters]) -> None:
    fitted_by_id = {p.item_id: p for p in params}
    truth_sub = [t for t in truth_items if t.item_id in fitted_by_id]
    stats = recovery_report(truth_sub, [fitted_by_id[t.item_id] for t in truth_sub])
    run.write_json("recovery.json", {"schema_version": 1, "n_truth_items": len(truth_items), **stats.to_dict()})
    run.stages["recovery"] = {"status": "ok", "n_compared": stats.n_items}
    print(f"recovery: {stats.n_items} of {len(truth_items)} items compared")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    run = Run(args, "validate", args.input)
    _, report = _read_log(args.input)
    _validate(run, report)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_metrics(args: argparse.Namespace) -> int:
    run = Run(args, "metrics", args.input)
    log_events, report = _read_log(args.input)
    _metrics(run, log_events, _clean_summaries(run, log_events, report))
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    run = Run(args, "fit", args.input)
    _fit(run, _clean_summaries(run, *_read_log(args.input)))
    return EXIT_OK


def _read_table(table: tables.Table, path: str) -> list:
    """Rows of a .json or .csv artifact written by another subcommand."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return tables.from_json(table, json.loads(text))
    return tables.read_csv(table, text)


def cmd_classify(args: argparse.Namespace) -> int:
    run = Run(args, "classify", args.params)
    params = _read_table(PARAMS, args.params)
    if not params:
        raise DomainFailure("parameters file has no items")
    _classify(run, params, _read_table(METRICS, args.metrics) if args.metrics else [])
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    _simulate(Run(args, "simulate", args.input), args.input)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Every stage in order; ``pipeline_summary.json`` names the stages that ran and the files written, on any exit."""
    run = Run(args, "pipeline", args.input)
    try:
        sim = None
        if Path(args.input).suffix.lower() == ".json":
            sim = _simulate(run, args.input)
            log_events, report = sim.log.events, events.validate_log(sim.log.events)
        else:
            log_events, report = _read_log(args.input)
        _validate(run, report)
        summaries = _clean_summaries(run, log_events, report)
        table = _metrics(run, log_events, summaries)
        params = _fit(run, summaries)
        _classify(run, params, table.rows)
        if sim is not None:
            _recovery(run, sim.scenario.items, params)
        print(f"pipeline: {len(run.stages)} stages ok, {len(run.files) + 1} artifacts")
    finally:
        run.write_json(
            "pipeline_summary.json",
            {"schema_version": 1, "stages": run.stages, "artifacts": sorted(run.files)},
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_input: str | None = None) -> None:
    if with_input:
        p.add_argument("--input", required=True, help=with_input)
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./itemlens_out)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--threshold", type=float, help=f"dichotomization threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--grouping", help='JSON file {"map": {exercise id: fit group}, "default_group": group}')
    p.add_argument("--seed", type=int, help="seed override for simulation scenarios")
    p.add_argument(
        "--table2-compat",
        dest="table2_compat",
        action="store_true",
        default=None,
        help="widen the Easy difficulty band to b < 0",
    )
    p.add_argument("--format", choices=("csv", "json"), help="tabular output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="itemlens",
        description="Difficulty metrics, 2PL calibration, and quality verdicts for exercise logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an event log for schema and invariant violations")
    _add_common(p, with_input="event log (.csv or .jsonl)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metrics", help="compute per-exercise difficulty metrics")
    _add_common(p, with_input="event log (.csv or .jsonl)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("fit", help="fit 2PL item parameters per group")
    _add_common(p, with_input="event log (.csv or .jsonl)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="label fitted parameters and build the quality report")
    p.add_argument("--params", required=True, help="fitted parameters file (.csv or .json)")
    p.add_argument("--metrics", help="metrics file to join (.csv or .json)")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="generate a synthetic log from a scenario")
    _add_common(p, with_input="scenario JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="simulate/ingest, validate, metrics, fit, classify, recover")
    _add_common(p, with_input="scenario JSON or event log")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (events.UnreadableStream, UsageFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainFailure, ValueError, RecursionError) as exc:  # RecursionError: a JSON input nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
