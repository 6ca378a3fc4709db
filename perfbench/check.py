"""Output checks for the itemlens benchmark; nothing here imports itemlens.

Each check returns a list of problems; an operation passes when the list is
empty. The expected metrics are recounted from the generator's own tallies
(or, for a simulated log, from the raw events the program wrote) in exact
rational arithmetic, then formatted the way metrics.csv formats them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

METRICS_HEADER = "exercise_id,module_id,n_students,dl,hr,ir,band"
VERDICTS = {"Good", "Poor"}


def _band(dl: float) -> str:
    if dl > 0.34:
        return "Q4"
    if dl >= 0.21:
        return "Q3"
    if dl >= 0.12:
        return "Q2"
    return "Q1"


def metric_row(exercise_id: str, module_id: str, pairs) -> str:
    """One metrics.csv line from (n_attempts, n_wrong, n_hints) per student."""
    ratios = Counter((w, a) for a, w, _ in pairs if a > 0)
    n = sum(ratios.values())
    hints = sum(h for _, _, h in pairs)
    attempts = sum(a for a, _, _ in pairs)
    wrong = sum(w for _, w, _ in pairs)
    hr = f"{hints / (hints + attempts):.4f}"
    if n == 0:
        return f"{exercise_id},{module_id},0,,{hr},,"
    dl = float(sum((c * Fraction(w, a) for (w, a), c in ratios.items()), Fraction(0)) / n)
    return f"{exercise_id},{module_id},{n},{dl:.4f},{hr},{wrong / attempts:.4f},{_band(dl)}"


def expected_metrics_from_tallies(t) -> list[str]:
    rows = [METRICS_HEADER]
    for j in np.argsort(t.exercise_ids, kind="stable"):
        pairs = zip(t.attempts[:, j].tolist(), t.wrong[:, j].tolist(), t.hints[:, j].tolist())
        rows.append(metric_row(t.exercise_ids[j], t.module_ids[j], list(pairs)))
    return rows


def expected_metrics_from_log(path: Path) -> list[str]:
    """Recount a CSV event log: tallies per (student, exercise), smallest module wins."""
    tally: dict[str, dict[str, list[int]]] = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
    module: dict[str, str] = {}
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for sid, eid, mod, _, kind, correct in reader:
            t = tally[eid][sid]
            if kind == "hint":
                t[2] += 1
            else:
                t[0] += 1
                t[1] += correct == "false"
            module[eid] = min(mod, module.get(eid, mod))
    rows = [METRICS_HEADER]
    for eid in sorted(tally):
        rows.append(metric_row(eid, module[eid], list(tally[eid].values())))
    return rows


def check_metrics(out: Path, expected: list[str]) -> list[str]:
    path = out / "metrics.csv"
    if not path.exists():
        return ["metrics.csv missing"]
    got = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    if got == expected:
        return []
    bad = [f"{g!r} != {e!r}" for g, e in zip(got, expected) if g != e][:3]
    return [f"metrics.csv differs from the recount ({len(got)} vs {len(expected)} lines): {bad}"]


def read_params(out: Path) -> dict[str, dict[str, str]]:
    params = {}
    for path in sorted(out.glob("params_*.csv")):
        with path.open(newline="") as fh:
            for row in csv.DictReader(fh):
                params[row["item_id"]] = row
    return params


def check_fit(out: Path) -> list[str]:
    """Finite parameters, and a Good/Poor verdict for every fitted item."""
    params = read_params(out)
    if not params:
        return ["no params_*.csv written"]
    problems = []
    for item, row in params.items():
        values = [row["a"], row["b"]] + [row[k] for k in ("se_a", "se_b") if row[k]]
        if not all(math.isfinite(float(v)) for v in values):
            problems.append(f"non-finite parameter for {item}: {values}")
    verdicts = {}
    report = out / "quality_report.csv"
    if report.exists():
        with report.open(newline="") as fh:
            verdicts = {r["item_id"]: r["verdict"] for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))}
    missing = [i for i in params if verdicts.get(i) not in VERDICTS]
    if missing:
        problems.append(f"{len(missing)} fitted items without a verdict, e.g. {missing[:3]}")
    return problems[:5]


def check_recovery(out: Path, truth: dict[str, tuple[float, float]], tol: dict[str, float]) -> list[str]:
    """Fitted (a, b) against the truth: RMSE of b, correlation of a and of b."""
    params = read_params(out)
    ids = sorted(set(params) & set(truth))
    if len(ids) < 3:
        return [f"only {len(ids)} items to compare with the truth"]
    ta, tb = np.array([truth[i] for i in ids]).T
    fa = np.array([float(params[i]["a"]) for i in ids])
    fb = np.array([float(params[i]["b"]) for i in ids])
    got = {
        "rmse_b": float(np.sqrt(np.mean((fb - tb) ** 2))),
        "corr_a": float(np.corrcoef(ta, fa)[0, 1]),
        "corr_b": float(np.corrcoef(tb, fb)[0, 1]),
    }
    problems = []
    if not got["rmse_b"] <= tol["rmse_b"]:
        problems.append(f"rmse_b {got['rmse_b']:.4f} > {tol['rmse_b']}")
    for key in ("corr_a", "corr_b"):
        if not got[key] >= tol[key]:
            problems.append(f"{key} {got[key]:.4f} < {tol[key]}")
    return problems


def truth_from_csv(path: Path) -> dict[str, tuple[float, float]]:
    with path.open(newline="") as fh:
        return {r["item_id"]: (float(r["a"]), float(r["b"])) for r in csv.DictReader(fh)}


def tree_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def same_files(a: Path, b: Path, pattern: str) -> list[str]:
    """Files matching ``pattern`` must exist in both trees with identical bytes."""
    names = sorted({p.name for p in a.glob(pattern)} | {p.name for p in b.glob(pattern)})
    if not names:
        return [f"no {pattern} in either tree"]
    return [
        f"{name} differs between traced and untraced runs"
        for name in names
        if not ((a / name).exists() and (b / name).exists() and (a / name).read_bytes() == (b / name).read_bytes())
    ]
