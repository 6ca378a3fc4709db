"""One itemlens operation per process, optionally traced from outside.

    python3 perfbench/ops.py pipeline INPUT OUT [--spans FILE]
    python3 perfbench/ops.py matrix INPUT.npy OUT [--spans FILE]

``pipeline`` makes the public library calls that ``itemlens pipeline`` makes,
in the same order, and writes the same artifacts except
``effective_config.json`` and ``pipeline_summary.json``. ``matrix`` loads a
saved response matrix and runs fit_2pl, curves, classify and the artifact
writes: the psychometrician's path, with no ingest.

With ``--spans`` every call into a layer runs inside a span named after the
layer (``events.read``, ``irt.fit``, ``cli.write``, ...). Spans and counters
stay in memory and are written to FILE as JSON when the process ends; the
counters are taken after the traced run, so they do not add to its spans.
Without ``--spans`` nothing is recorded.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from itemlens import events  # noqa: E402
from itemlens.irt import (  # noqa: E402
    DegenerateMatrix,
    FitConfig,
    fit_2pl,
    marginal_log_likelihood,
    params_to_csv,
    sample_curves,
)
from itemlens.metrics import build_metrics_table  # noqa: E402
from itemlens.quality import classify_quality, quality_report  # noqa: E402
from itemlens.response import ResponseMatrix, build_matrices  # noqa: E402
from itemlens.simulate import (  # noqa: E402
    generate_event_log,
    generate_responses,
    load_scenario,
    recovery_report,
    sample_cohort,
)

T_IMPORTED = time.perf_counter()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counters": self.counters}


class NoTracer:
    def span(self, name: str):
        return nullcontext()

    def add(self, name: str, value: float) -> None:
        pass


def _json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _write(tr, path: Path, render) -> None:
    """Serialize and write one artifact inside a cli.write span."""
    with tr.span("cli.write"):
        data = render().encode()
        path.write_bytes(data)
    tr.add("cli.bytes_out", len(data))


def _abilities_csv(abilities) -> str:
    lines = ["student_id,theta,se_theta"]
    lines += [f"{est.student_id},{est.theta!r},{est.se_theta!r}" for est in abilities]
    return "\n".join(lines) + "\n"


def _write_fit(tr, out: Path, slug: str, matrix, result) -> None:
    _write(tr, out / f"params_{slug}.csv", lambda: params_to_csv(result.items))
    with tr.span("irt.curves"):
        curves = sample_curves(result.items)
    _write(tr, out / f"curves_{slug}.csv", curves.to_csv)
    _write(tr, out / f"abilities_{slug}.csv", lambda: _abilities_csv(result.abilities))
    diag = result.diagnostics
    _write(
        tr,
        out / f"diagnostics_{slug}.json",
        lambda: _json(
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
            }
        ),
    )


def _classify(tr, out: Path, params, metric_rows):
    with tr.span("quality.classify"):
        verdicts = [classify_quality(p, table2_compat=False) for p in params]
        report = quality_report(verdicts, metric_rows, params, table2_compat=False)
    _write(tr, out / "quality_report.csv", report.to_csv)
    _write(tr, out / "quality_summary.json", lambda: _json({"schema_version": 1, **report.summary}))
    return report


def run_pipeline(input_path: Path, out: Path, tr) -> dict:
    """The calls of ``itemlens pipeline`` with default settings; returns what was built."""
    kept: dict = {}
    truth = None
    problems = []
    if input_path.suffix.lower() == ".json":
        with tr.span("simulate.cohort"):
            scenario = load_scenario(json.loads(input_path.read_text()))
            cohort = sample_cohort(scenario.cohort)
        with tr.span("simulate.event_log"):
            sim_log = generate_event_log(cohort, scenario.items, scenario.behavior, scenario.seed, scenario.modules)
        with tr.span("simulate.responses"):
            sim_matrix = generate_responses(cohort, scenario.items, scenario.seed, missing_rate=scenario.missing_rate)
        _write(tr, out / "log.csv", lambda: events.events_to_csv(sim_log.events))
        _write(tr, out / "truth_params.csv", lambda: params_to_csv(scenario.items))
        _write(
            tr,
            out / "truth_abilities.csv",
            lambda: "\n".join(["student_id,theta"] + [f"{sid},{theta!r}" for sid, theta in cohort]) + "\n",
        )
        _write(tr, out / "matrix.csv", sim_matrix.to_csv)
        log_events = sim_log.events
        truth = scenario.items
        kept["sim_events"] = len(log_events)
    else:
        with tr.span("events.read"):
            parsed = events.read_event_log(input_path)
        kept["read_rss_mb"] = peak_rss_mb()
        kept["parsed"] = parsed
        log_events, problems = parsed.events, parsed.problems

    with tr.span("events.validate"):
        report = events.validate_log(log_events)
    for problem in problems:
        report.violations.append(f"line {problem.line}: {problem.reason}")
    _write(tr, out / "validation_report.json", lambda: _json(report.to_dict()))
    if not report.ok or not log_events:
        raise SystemExit(f"validation failed: {report.violations[:3]}")

    with tr.span("events.aggregate"):
        summaries = events.aggregate(log_events)
    with tr.span("metrics.table"):
        table = build_metrics_table(summaries)
    _write(tr, out / "metrics.csv", table.to_csv)
    kept.update(summaries=summaries, table=table)

    with tr.span("response.build"):
        build = build_matrices(summaries, threshold=0.70)
    fitted = []
    all_params = []
    groups_report = []
    for matrix in build.matrices:
        try:
            with tr.span("irt.fit"):
                result = fit_2pl(matrix, FitConfig())
        except DegenerateMatrix as exc:
            groups_report.append({"group_id": matrix.group_id, "status": "skipped", "reason": str(exc)})
            continue
        fitted.append((matrix, result))
        all_params.extend(result.items)
        _write_fit(tr, out, matrix.group_id, matrix, result)
        diag = result.diagnostics
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
    kept["fit_rss_mb"] = peak_rss_mb()
    summary = {
        "schema_version": 1,
        "groups": groups_report,
        "empty_groups": build.skipped_groups,
        "warnings": build.warnings,
    }
    _write(tr, out / "fit_summary.json", lambda: _json(summary))
    if not fitted:
        raise SystemExit("no fittable group")

    q_report = _classify(tr, out, all_params, table.rows)

    if truth is not None:
        fitted_by_id = {p.item_id: p for p in all_params}
        truth_sub = [t for t in truth if t.item_id in fitted_by_id]
        with tr.span("simulate.recovery"):
            stats = recovery_report(truth_sub, [fitted_by_id[t.item_id] for t in truth_sub])
        _write(
            tr,
            out / "recovery.json",
            lambda: _json({"schema_version": 1, "n_truth_items": len(truth), **stats.to_dict()}),
        )
    kept.update(build=build, fitted=fitted, quality=q_report)
    return kept


def run_matrix(input_path: Path, out: Path, tr) -> dict:
    """fit_2pl -> curves -> classify -> artifact writes on a saved matrix."""
    with tr.span("response.build"):
        cells = np.load(input_path)
        n_students, n_items = cells.shape
        matrix = ResponseMatrix(
            group_id="wide",
            student_ids=[f"s{i:06d}" for i in range(n_students)],
            item_ids=[f"i{j:03d}" for j in range(n_items)],
            cells=cells,
        )
    with tr.span("irt.fit"):
        result = fit_2pl(matrix, FitConfig())
    _write_fit(tr, out, "wide", matrix, result)
    q_report = _classify(tr, out, result.items, [])
    return {"fitted": [(matrix, result)], "quality": q_report, "fit_rss_mb": peak_rss_mb()}


def layer_counters(tr: Tracer, kept: dict, input_path: Path) -> None:
    """Work counts per layer, taken from what the traced run built."""
    parsed = kept.get("parsed")
    if parsed is not None:
        rows_in = len(parsed.events) + len(parsed.problems)
        tr.add("events.rows_in", rows_in)
        tr.add("events.rows_rejected", len(parsed.problems))
        tr.add("events.accept_ratio", len(parsed.events) / rows_in)
        tr.add("events.bytes_in", input_path.stat().st_size)
        tr.add("events.rss_mb", kept["read_rss_mb"])
    if "sim_events" in kept:
        tr.add("simulate.events_out", kept["sim_events"])
    summaries = kept.get("summaries")
    if summaries is not None:
        tr.add("events.pairs", len(summaries))
        table = kept["table"]
        tr.add("metrics.exercises", len(table.rows))
        tr.add("metrics.warnings", len(table.warnings))
        ratios = Counter((s.exercise_id, s.n_wrong, s.n_attempts) for s in summaries if s.n_attempts > 0)
        tr.add("metrics.distinct_ratio_share", len(ratios) / max(1, sum(ratios.values())))
    fitted = kept["fitted"]
    build = kept.get("build")
    matrices = build.matrices if build is not None else [m for m, _ in fitted]
    tr.add("response.groups", len(matrices))
    observed = sum(m.n_observed() for m in matrices)
    tr.add("response.cells_observed", observed)
    tr.add("response.cells_missing", sum(m.cells.size for m in matrices) - observed)
    items = [p for _, r in fitted for p in r.items]
    tr.add("irt.em_iterations", sum(r.diagnostics.n_iterations for _, r in fitted))
    tr.add("irt.groups_converged_share", sum(r.diagnostics.converged for _, r in fitted) / len(fitted))
    tr.add("irt.items_degenerate", sum(p.degenerate for p in items))
    tr.add("irt.items_without_se", sum(p.se_a is None or p.se_b is None for p in items))
    tr.add("irt.rss_mb", kept["fit_rss_mb"])
    tr.add("quality.n_poor", kept["quality"].summary["n_poor"])
    # one E-step at the fitted parameters, timed outside fit_2pl
    for matrix, result in fitted:
        t0 = time.perf_counter()
        marginal_log_likelihood(matrix, result.items)
        tr.add("irt.estep_probe_s", time.perf_counter() - t0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("pipeline", "matrix"))
    parser.add_argument("input", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    run = run_pipeline if args.kind == "pipeline" else run_matrix
    if args.spans is None:
        run(args.input, args.out, NoTracer())
        return 0
    tr = Tracer(run_id=args.spans.stem)
    tr.spans.append(["setup.import", T_START, T_IMPORTED, None])
    with tr.span("run"):
        kept = run(args.input, args.out, tr)
    with tr.span("trace.post"):
        layer_counters(tr, kept, args.input)
    args.spans.write_text(json.dumps(tr.to_dict()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
