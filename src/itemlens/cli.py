"""Command-line pipeline over eTextbook interaction logs.

Subcommands: validate, metrics, fit, classify, simulate, pipeline. Every
command writes its artifacts into one output directory (--out, then the
ITEMLENS_OUT environment variable, then ./itemlens_out) along with
effective_config.json recording the settings actually used.

Exit codes: 0 success, 1 domain failure (log rows that do not parse, or data
that cannot be processed), 2 I/O or usage failure. Outputs are deterministic
for fixed inputs and seed; no timestamps or absolute paths are embedded, so
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
    ABILITIES, PARAMS, DegenerateMatrix, FitConfig, FitResult, ItemParameters, fit_2pl, params_to_csv, sample_curves
)
from .metrics import METRICS, build_metrics_table
from .quality import classify_quality, quality_report
from .response import build_matrices
from .simulate import TRUE_ABILITIES, InvalidScenario, SimulationOutput, load_scenario, recovery_report, run_scenario

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
    """Effective settings for one command after flag/file/default merging."""

    threshold: float = DEFAULT_THRESHOLD
    grouping_path: str | None = None
    default_group: str | None = None
    table2_compat: bool = False
    seed: int | None = None
    fmt: str = "csv"
    fit: FitConfig = field(default_factory=FitConfig)

    def to_dict(self) -> dict:
        # file names only: embedding run-specific paths would break
        # byte-identical reruns from other directories
        return {
            "threshold": self.threshold,
            "grouping": Path(self.grouping_path).name if self.grouping_path else None,
            "default_group": self.default_group,
            "table2_compat": self.table2_compat,
            "seed": self.seed,
            "format": self.fmt,
            "fit": asdict(self.fit),
        }


def _first(*values):
    for v in values:
        if v is not None:
            return v
    return None


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge CLI flags over config-file values over built-in defaults."""
    data: dict = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        try:
            data = json.loads(Path(cfg_path).read_text())
        except json.JSONDecodeError as exc:
            raise UsageFailure(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageFailure("config file must hold a JSON object")
    try:
        fit = FitConfig.from_dict(data.get("fit", {}))
    except (TypeError, ValueError) as exc:
        raise UsageFailure(f"bad fit config: {exc}") from None
    try:
        cfg = RunConfig(
            threshold=float(_first(getattr(args, "threshold", None), data.get("threshold"), DEFAULT_THRESHOLD)),
            grouping_path=_first(getattr(args, "grouping", None), data.get("grouping")),
            default_group=data.get("default_group"),
            table2_compat=bool(_first(getattr(args, "table2_compat", None), data.get("table2_compat"), False)),
            seed=_first(getattr(args, "seed", None), data.get("seed")),
            fmt=_first(getattr(args, "format", None), data.get("format"), "csv"),
            fit=fit,
        )
    except (TypeError, ValueError) as exc:
        raise UsageFailure(f"bad config value: {exc}") from None
    if not 0.0 < cfg.threshold <= 1.0:
        raise UsageFailure(f"threshold must be in (0, 1], got {cfg.threshold}")
    if cfg.fmt not in ("csv", "json"):
        raise UsageFailure(f"format must be csv or json, got {cfg.fmt!r}")
    if cfg.seed is not None:
        cfg.seed = int(cfg.seed)
    return cfg


def _resolve_out(args: argparse.Namespace) -> Path:
    out = getattr(args, "out", None) or os.environ.get(OUT_ENV_VAR) or "itemlens_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_tabular(out: Path, stem: str, fmt: str, to_csv, to_dict) -> str:
    """Write one table as ``stem.csv`` or ``stem.json``; returns the file name."""
    name = f"{stem}.{fmt}"
    if fmt == "csv":
        (out / name).write_text(to_csv())
    else:
        _write_json(out / name, to_dict())
    return name


def _echo_config(out: Path, cfg: RunConfig, command: str, input_path: str | None) -> None:
    payload = {
        "schema_version": 1,
        "command": command,
        "input": Path(input_path).name if input_path else None,
    }
    payload.update(cfg.to_dict())
    _write_json(out / "effective_config.json", payload)


def _slug(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9._-]+", "_", name)
    return s or "group"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    parsed = events.read_event_log(args.input)
    report = events.validate_log(parsed.events)
    for problem in parsed.problems:
        report.violations.append(f"line {problem.line}: {problem.reason}")
    _echo_config(out, cfg, "validate", args.input)
    _write_json(out / "validation_report.json", report.to_dict())
    print(f"validate: {report.n_events} events, {len(report.violations)} violations")
    return EXIT_OK if report.ok else EXIT_DOMAIN


def _read_log_strict(path: str) -> list[events.InteractionEvent]:
    """Events of a log that must parse cleanly: each rejected row goes to stderr and fails the run."""
    parsed = events.read_event_log(path)
    for problem in parsed.problems:
        print(f"line {problem.line}: {problem.reason}", file=sys.stderr)
    if parsed.problems:
        raise DomainFailure(f"{len(parsed.problems)} malformed rows in {Path(path).name}")
    if not parsed.events:
        raise DomainFailure("event log is empty")
    return parsed.events


def cmd_metrics(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    summaries = events.aggregate(_read_log_strict(args.input))
    table = build_metrics_table(summaries)
    _echo_config(out, cfg, "metrics", args.input)
    _write_tabular(out, "metrics", cfg.fmt, table.to_csv, table.to_dict)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"metrics: {len(table.rows)} exercises, {len(table.warnings)} warnings")
    return EXIT_OK


def _load_grouping(path: str) -> tuple[dict[str, str], str | None]:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageFailure(f"grouping file is not valid JSON: {exc}") from None
    if isinstance(data, dict) and "map" in data:
        mapping = data["map"]
        default = data.get("default_group")
    else:
        mapping, default = data, None
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise UsageFailure("grouping must map exercise ids to group names")
    return mapping, None if default is None else str(default)


@dataclass
class GroupFits:
    fitted: list[tuple[str, FitResult]]
    all_params: list[ItemParameters]
    summary: dict
    files: list[str]

    @property
    def any_fitted(self) -> bool:
        return bool(self.fitted)


def _fit_groups(summaries, cfg: RunConfig, out: Path) -> GroupFits:
    mapping = default = None
    if cfg.grouping_path:
        mapping, default = _load_grouping(cfg.grouping_path)
        if cfg.default_group is not None:
            default = cfg.default_group
    build = build_matrices(summaries, grouping=mapping, threshold=cfg.threshold, default_group=default)
    by_slug: dict[str, str] = {}
    for matrix in build.matrices:
        slug = _slug(matrix.group_id)
        other = by_slug.setdefault(slug, matrix.group_id)
        if other != matrix.group_id:
            raise DomainFailure(f"groups {other!r} and {matrix.group_id!r} would both write params_{slug}.{cfg.fmt}")
    fitted: list[tuple[str, FitResult]] = []
    all_params: list[ItemParameters] = []
    files: list[str] = []
    groups_report: list[dict] = []
    for matrix in build.matrices:
        slug = _slug(matrix.group_id)
        try:
            result = fit_2pl(matrix, cfg.fit)
        except DegenerateMatrix as exc:
            groups_report.append({"group_id": matrix.group_id, "status": "skipped", "reason": str(exc)})
            continue
        fitted.append((matrix.group_id, result))
        all_params.extend(result.items)
        files.append(
            _write_tabular(
                out,
                f"params_{slug}",
                cfg.fmt,
                lambda: params_to_csv(result.items),
                lambda: tables.to_json(PARAMS, result.items, group_id=matrix.group_id),
            )
        )
        (out / f"curves_{slug}.csv").write_text(sample_curves(result.items).to_csv())
        files.append(f"curves_{slug}.csv")
        (out / f"abilities_{slug}.csv").write_text(tables.write_csv(ABILITIES, result.abilities))
        files.append(f"abilities_{slug}.csv")
        diag = result.diagnostics
        _write_json(
            out / f"diagnostics_{slug}.json",
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
        files.append(f"diagnostics_{slug}.json")
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
    summary = {
        "schema_version": 1,
        "groups": groups_report,
        "empty_groups": build.skipped_groups,
        "warnings": build.warnings,
    }
    return GroupFits(fitted=fitted, all_params=all_params, summary=summary, files=files)


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    summaries = events.aggregate(_read_log_strict(args.input))
    fits = _fit_groups(summaries, cfg, out)
    _echo_config(out, cfg, "fit", args.input)
    _write_json(out / "fit_summary.json", fits.summary)
    if not fits.any_fitted:
        skipped = [g["group_id"] for g in fits.summary["groups"]] + fits.summary["empty_groups"]
        print(f"error: no fittable group; unfittable: {sorted(skipped)}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"fit: {len(fits.fitted)} group(s) fitted")
    return EXIT_OK


def _read_table(table: tables.Table, path: str) -> list:
    """Rows of a .json or .csv artifact written by another subcommand."""
    p = Path(path)
    text = p.read_text()
    if p.suffix.lower() == ".json":
        return tables.from_json(table, json.loads(text))
    return tables.read_csv(table, text)


def cmd_classify(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    params = _read_table(PARAMS, args.params)
    if not params:
        raise DomainFailure("parameters file has no items")
    metric_rows = _read_table(METRICS, args.metrics) if args.metrics else []
    verdicts = [classify_quality(p, table2_compat=cfg.table2_compat) for p in params]
    report = quality_report(verdicts, metric_rows, params, table2_compat=cfg.table2_compat)
    _echo_config(out, cfg, "classify", args.params)
    _write_tabular(out, "quality_report", cfg.fmt, report.to_csv, report.to_dict)
    _write_json(out / "quality_summary.json", {"schema_version": 1, **report.summary})
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"classify: {report.summary['n_poor']} poor of {report.summary['n_items']} items")
    return EXIT_OK


def _load_scenario_checked(path: str, cfg: RunConfig):
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidScenario("scenario must be a JSON object")
    if cfg.seed is not None:
        data = {**data, "seed": cfg.seed}
    return load_scenario(data)


def _write_sim_artifacts(out: Path, sim: SimulationOutput) -> list[str]:
    (out / "log.csv").write_text(events.events_to_csv(sim.log.events))
    (out / "truth_params.csv").write_text(params_to_csv(sim.scenario.items))
    (out / "truth_abilities.csv").write_text(tables.write_csv(TRUE_ABILITIES, sim.cohort))
    (out / "matrix.csv").write_text(sim.matrix.to_csv())
    return ["log.csv", "truth_params.csv", "truth_abilities.csv", "matrix.csv"]


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    scenario = _load_scenario_checked(args.input, cfg)
    sim = run_scenario(scenario)
    _echo_config(out, cfg, "simulate", args.input)
    _write_sim_artifacts(out, sim)
    print(
        f"simulate: {len(sim.log.events)} events, "
        f"{scenario.cohort.n_students} students x {len(scenario.items)} items"
    )
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    out = _resolve_out(args)
    input_path = Path(args.input)
    stages: dict[str, dict] = {}
    artifacts: list[str] = ["effective_config.json"]
    truth_items: list[ItemParameters] | None = None

    _echo_config(out, cfg, "pipeline", args.input)

    def finish(code: int) -> int:
        _write_json(
            out / "pipeline_summary.json",
            {"schema_version": 1, "stages": stages, "artifacts": sorted(artifacts)},
        )
        return code

    if input_path.suffix.lower() == ".json":
        scenario = _load_scenario_checked(args.input, cfg)
        sim = run_scenario(scenario)
        artifacts += _write_sim_artifacts(out, sim)
        stages["simulate"] = {"status": "ok", "n_events": len(sim.log.events)}
        log_events = sim.log.events
        parse_problems = []
        truth_items = sim.scenario.items
    else:
        parsed = events.read_event_log(args.input)
        log_events = parsed.events
        parse_problems = parsed.problems

    report = events.validate_log(log_events)
    for problem in parse_problems:
        report.violations.append(f"line {problem.line}: {problem.reason}")
    _write_json(out / "validation_report.json", report.to_dict())
    artifacts.append("validation_report.json")
    stages["validate"] = {
        "status": "ok" if report.ok else "failed",
        "n_events": report.n_events,
        "n_violations": len(report.violations),
    }
    if not report.ok:
        print(f"error: validation failed with {len(report.violations)} violations", file=sys.stderr)
        return finish(EXIT_DOMAIN)
    if not log_events:
        print("error: event log is empty", file=sys.stderr)
        return finish(EXIT_DOMAIN)

    summaries = events.aggregate(log_events)
    table = build_metrics_table(summaries)
    artifacts.append(_write_tabular(out, "metrics", cfg.fmt, table.to_csv, table.to_dict))
    stages["metrics"] = {
        "status": "ok",
        "n_exercises": len(table.rows),
        "module_conflicts": len(events.module_conflicts(log_events)),
    }

    fits = _fit_groups(summaries, cfg, out)
    _write_json(out / "fit_summary.json", fits.summary)
    artifacts.append("fit_summary.json")
    artifacts += fits.files
    stages["fit"] = {
        "status": "ok" if fits.any_fitted else "failed",
        "n_groups_fitted": len(fits.fitted),
    }
    if not fits.any_fitted:
        print("error: no fittable group", file=sys.stderr)
        return finish(EXIT_DOMAIN)

    verdicts = [classify_quality(p, table2_compat=cfg.table2_compat) for p in fits.all_params]
    q_report = quality_report(verdicts, table.rows, fits.all_params, table2_compat=cfg.table2_compat)
    artifacts.append(_write_tabular(out, "quality_report", cfg.fmt, q_report.to_csv, q_report.to_dict))
    _write_json(out / "quality_summary.json", {"schema_version": 1, **q_report.summary})
    artifacts.append("quality_summary.json")
    stages["classify"] = {"status": "ok", "n_poor": q_report.summary["n_poor"]}

    if truth_items is not None:
        fitted_by_id = {p.item_id: p for p in fits.all_params}
        truth_sub = [t for t in truth_items if t.item_id in fitted_by_id]
        stats = recovery_report(truth_sub, [fitted_by_id[t.item_id] for t in truth_sub])
        _write_json(
            out / "recovery.json",
            {
                "schema_version": 1,
                "n_truth_items": len(truth_items),
                **stats.to_dict(),
            },
        )
        artifacts.append("recovery.json")
        stages["recovery"] = {"status": "ok", "n_compared": stats.n_items}

    print(f"pipeline: {len(stages)} stages ok, {len(artifacts) + 1} artifacts")
    return finish(EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_input: str | None = None) -> None:
    if with_input:
        p.add_argument("--input", required=True, help=with_input)
    p.add_argument("--out", help=f"output directory (default ${OUT_ENV_VAR} or ./itemlens_out)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--threshold", type=float, help=f"dichotomization threshold (default {DEFAULT_THRESHOLD})")
    p.add_argument("--grouping", help="JSON mapping of exercise ids to fit groups")
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
    except (events.UnreadableStream, UsageFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DomainFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
