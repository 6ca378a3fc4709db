"""Benchmark for itemlens: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload log_csv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the root of a source checkout; the program is imported from
``src/``. Each run builds its input from ``--seed`` (see gen.py), then runs
the user-facing operation again and again, each time in a fresh process
(one caller, closed loop), until ``--seconds`` have passed, and checks every
operation's output (see check.py).

With ``--trace 0`` the operation is the untraced one: ``itemlens pipeline``
for the log and scenario workloads, ops.py's ``matrix`` for wide_fit. The
result holds the end-to-end metrics: medians over the run's operations.

With ``--trace 1`` the run alternates an untraced operation with a traced one
(ops.py with spans) and reports per-layer self times and counters, medians
over the traced operations. The traced run must write the same metrics.csv
and params_*.csv bytes as the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--all`` runs every
workload in both modes and prints the tables only. ``--size full`` uses the
input sizes of the ROADMAP baseline instead of the benchmark's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import check
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
DEADLINE_S = 165.0  # every run ends well inside the 180 s it is allowed
MIN_OPS = 3
SETUP_REPEATS = 5  # before the first operation; one more before each operation
WIDE_COHORTS = 4
CLI = "import sys; from itemlens.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Input:
    path: Path
    units: int
    expected: list[str] | None = None  # metrics.csv lines, when known before the run
    truth: dict | None = None  # item -> (a, b), when known before the run


@dataclass
class Workload:
    name: str
    unit: str  # what units_per_s counts: input events, observed cells or (student, item) pairs
    sizes: dict[str, int]
    prepare: Callable[[int, int, Path], list[Input]]
    op: str  # "cli" runs itemlens pipeline, "matrix" runs ops.py matrix
    recovery: dict[str, float] | None = None


def _prep_log_csv(seed: int, n: int, d: Path) -> list[Input]:
    rows, tallies = gen.first_correct_log(seed, n, 60)
    path = d / "log.csv"
    gen.write_csv(rows, path)
    return [Input(path, len(rows), expected=check.expected_metrics_from_tallies(tallies))]


def _prep_log_jsonl(seed: int, n: int, d: Path) -> list[Input]:
    rows, tallies = gen.practice_log(seed, n, 60)
    path = d / "log.jsonl"
    gen.write_jsonl(rows, path)
    return [Input(path, len(rows), expected=check.expected_metrics_from_tallies(tallies))]


def _prep_wide(seed: int, n: int, d: Path) -> list[Input]:
    # EM needs 14 to 18 iterations depending on the cohort drawn, so the run
    # cycles through several cohorts and reports the median over all of them
    inputs = []
    for part in range(WIDE_COHORTS):
        cells, a, b = gen.response_matrix(seed, n, 200, part=part)
        path = d / f"matrix-{part}.npy"
        np.save(path, cells)
        truth = {f"i{j:03d}": (float(a[j]), float(b[j])) for j in range(len(a))}
        inputs.append(Input(path, int((cells != -1).sum()), truth=truth))
    return inputs


def _prep_sim(seed: int, n: int, d: Path) -> list[Input]:
    path = d / "scenario.json"
    path.write_text(json.dumps(gen.scenario(seed, n, 40), indent=1))
    return [Input(path, n * 40)]


WORKLOADS = {
    w.name: w
    for w in [
        Workload("log_csv", "events", {"bench": 1000, "full": 10000}, _prep_log_csv, "cli"),
        Workload("log_jsonl_hints", "events", {"bench": 700, "full": 4000}, _prep_log_jsonl, "cli"),
        Workload(
            "wide_fit",
            "cells",
            {"bench": 10000, "full": 50000},
            _prep_wide,
            "matrix",
            recovery={"rmse_b": 0.15, "corr_a": 0.97, "corr_b": 0.995},
        ),
        Workload(
            "sim_pipeline",
            "pairs",
            {"bench": 400, "full": 2000},
            _prep_sim,
            "cli",
            recovery={"rmse_b": 0.45, "corr_a": 0.7, "corr_b": 0.97},
        ),
    ]
}

SPAN_LAYERS = [
    "setup.import",
    "simulate.cohort",
    "simulate.event_log",
    "simulate.responses",
    "events.read",
    "events.validate",
    "events.aggregate",
    "metrics.table",
    "response.build",
    "irt.fit",
    "irt.curves",
    "quality.classify",
    "simulate.recovery",
    "cli.write",
]
COUNTER_UNITS = {
    "events.rows_in": "count",
    "events.rows_rejected": "count",
    "events.accept_ratio": "ratio",
    "events.bytes_in": "bytes",
    "events.rss_mb": "MB",
    "events.pairs": "count",
    "metrics.exercises": "count",
    "metrics.warnings": "count",
    "metrics.distinct_ratio_share": "ratio",
    "response.groups": "count",
    "response.cells_observed": "count",
    "response.cells_missing": "count",
    "irt.em_iterations": "count",
    "irt.groups_converged_share": "ratio",
    "irt.items_degenerate": "count",
    "irt.items_without_se": "count",
    "irt.rss_mb": "MB",
    "irt.estep_probe_s": "s",
    "quality.n_poor": "count",
    "cli.bytes_out": "bytes",
    "simulate.events_out": "count",
}
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPAN_LAYERS},
    **COUNTER_UNITS,
    "irt.s_per_iter": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


END_TO_END_UNITS = {"wall_s": "s", "units_per_s": "units/s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env() -> tuple[dict[str, str], int]:
    """The program's sources on PYTHONPATH; BLAS threads pinned to the usable CPUs."""
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stderr: str = ""


def launch(argv: list[str], env: dict, err_path: Path, timeout: float) -> Proc:
    """Run one process to its end; its own rusage gives CPU and peak RSS."""
    with err_path.open("wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(errors="replace")[-400:] if p.returncode else ""
    return Proc(p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, tail)


def op_argv(w: Workload, inp: Input, out: Path, spans: Path | None) -> list[str]:
    if spans is not None or w.op == "matrix":
        kind = "matrix" if w.op == "matrix" else "pipeline"
        argv = [sys.executable, str(BENCH / "ops.py"), kind, str(inp.path), str(out)]
        return argv + (["--spans", str(spans)] if spans is not None else [])
    return [sys.executable, "-c", CLI, "pipeline", "--input", str(inp.path), "--out", str(out)]


def time_setup(env: dict, work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter that imports itemlens and exits."""
    p = launch([sys.executable, "-c", "import itemlens"], env, work / "setup.err", deadline - time.perf_counter())
    if p.rc != 0:
        raise SystemExit(f"import itemlens failed: {(work / 'setup.err').read_text()[-400:]}")
    return p.wall


# ---------------------------------------------------------------------------
# checks and trace analysis
# ---------------------------------------------------------------------------


def check_op(w: Workload, inp: Input, out: Path, p: Proc) -> list[str]:
    if p.rc != 0:
        return [f"exit code {p.rc}: {p.stderr.strip()}"]
    problems = check.check_fit(out)
    if w.op == "cli":
        expected = inp.expected or check.expected_metrics_from_log(out / "log.csv")
        problems += check.check_metrics(out, expected)
    if w.recovery:
        truth = inp.truth or check.truth_from_csv(out / "truth_params.csv")
        problems += check.check_recovery(out, truth, w.recovery)
    return problems


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Self time per layer from the spans, plus the counters."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_time = {f"{name}_s": 0.0 for name in SPAN_LAYERS}
    post = 0.0
    for (name, start, end, _), inner in zip(spans, child_time):
        if name == "trace.post":
            post = end - start
        elif name != "run":
            self_time[f"{name}_s"] += (end - start) - inner
    total = wall - post
    out = {name: 0.0 for name in COUNTER_UNITS}
    out.update(trace["counters"])
    out.update(self_time)
    out["irt.s_per_iter"] = out["irt.fit_s"] / out["irt.em_iterations"] if out["irt.em_iterations"] else 0.0
    out["trace.total_s"] = total
    out["trace.unaccounted_s"] = total - sum(self_time.values())
    return out


def median(values: list[float]) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment(threads: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": threads,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, size: str, t_start: float) -> Result:
    deadline = t_start + DEADLINE_S
    env, threads = child_env()
    work = WORK / f"{w.name}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print("env " + json.dumps(environment(threads), sort_keys=True))
        time_setup(env, work, deadline)  # fills the bytecode cache
        setup = [time_setup(env, work, deadline) for _ in range(SETUP_REPEATS)]
        n = w.sizes[size]
        inputs = w.prepare(seed, n, work)
        for inp in inputs:
            record = {"workload": w.name, "seed": seed, "size": n, "units": inp.units, "unit": w.unit,
                      "bytes": inp.path.stat().st_size, "sha256": file_digest(inp.path)[:16]}
            print("input " + json.dumps(record))
        res = Result()
        untraced: list[tuple[Proc, Path, Input]] = []
        traced: list[tuple[Proc, Path]] = []
        digests: dict[Path, set[str]] = {}
        per_input = 2 if trace else 1  # in a traced run, an untraced and a traced operation
        t_loop = time.perf_counter()
        k = 0
        while True:
            now = time.perf_counter()
            slowest = max([p.wall for p, *_ in untraced + traced], default=0.0)
            if k and now + slowest > deadline:
                break
            if k >= MIN_OPS and now - t_loop >= seconds and k % per_input == 0:
                break
            inp = inputs[(k // per_input) % len(inputs)]
            setup.append(time_setup(env, work, deadline))
            spans = work / f"spans-{k}.json" if k % per_input else None
            out = work / f"out-{k}"
            p = launch(op_argv(w, inp, out, spans), env, work / f"op-{k}.err", deadline - time.perf_counter())
            problems = check_op(w, inp, out, p)
            if spans is None:
                if not problems:
                    seen = digests.setdefault(inp.path, set())
                    seen.add(check.tree_digest(out))
                    if len(seen) > 1:
                        problems.append("output tree differs from an earlier run of the same input")
                if untraced:
                    shutil.rmtree(untraced[-1][1], ignore_errors=True)
                untraced.append((p, out, inp))
            else:
                if not problems:
                    ref = untraced[-1][1]
                    problems += check.same_files(out, ref, "metrics.csv") if w.op == "cli" else []
                    problems += check.same_files(out, ref, "params_*.csv")
                traced.append((p, spans))
                shutil.rmtree(out, ignore_errors=True)
            res.attempted += 1
            if problems:
                res.failed += 1
                res.problems += [f"op {k}: {msg}" for msg in problems]
            k += 1

        if not trace:
            values = {
                "wall_s": median([p.wall for p, _, _ in untraced]),
                "units_per_s": median([inp.units / p.wall for p, _, inp in untraced]),
                "cpu_s": median([p.cpu for p, _, _ in untraced]),
                "peak_rss_mb": median([p.rss_mb for p, _, _ in untraced]),
                "setup_s": median(setup),
            }
            res.metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        else:
            layers = [layer_metrics(json.loads(s.read_text()), p.wall) for p, s in traced if s.exists()]
            if not layers:
                res.problems.append("no traced run completed")
                layers = [dict.fromkeys(PER_LAYER_UNITS, 0.0) | {"trace.total_s": 0.0}]
            values = {name: median([m[name] for m in layers]) for name in layers[0]}
            values["trace.overhead_s"] = values.pop("trace.total_s") - median([p.wall for p, _, _ in untraced])
            res.metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        res.extra = {"failed_share": (res.failed / res.attempted, "ratio"), "ops": (res.attempted, "count")}
        return res
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def report(w: Workload, res: Result, trace: bool) -> None:
    mode = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {w.name}: {mode}")
    for name, (value, unit) in {**res.metrics, **res.extra}.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for problem in res.problems[:10]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description="itemlens benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "full"), default="bench")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "itemlens" / "__init__.py").is_file():
        print(f"error: no itemlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        ok = True
        for w in WORKLOADS.values():
            for trace in (False, True):
                res = run_workload(w, args.seed, args.seconds, trace, args.size, time.perf_counter())
                report(w, res, trace)
                ok = ok and res.failed == 0 and not res.problems
        return 0 if ok else 1
    if args.workload is None:
        parser.error("give --workload or --all")
    w = WORKLOADS[args.workload]
    res = run_workload(w, args.seed, args.seconds, bool(args.trace), args.size, t_start)
    report(w, res, bool(args.trace))
    result = {
        "correct": res.failed == 0 and not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
