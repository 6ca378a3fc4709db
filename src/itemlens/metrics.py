"""Behavioral difficulty metrics per exercise, with quartile banding.

:func:`build_metrics_table` writes one row per exercise from the
per-(student, exercise) summaries, where a student's correct ratio is
r = n_correct / n_attempts:

* ``n_students`` the students with at least one attempt
* ``dl``         mean over those students of (1 - r), in [0, 1]
* ``hr``         hints / (hints + attempts), pooled over students
* ``ir``         wrong / attempts, pooled over students
* ``band``       the band of dl: Q1 [0, 0.12), Q2 [0.12, 0.21),
  Q3 [0.21, 0.34], Q4 (0.34, 1]; ties at 0.12 and 0.21 resolve upward

dl, ir and band are empty for a hint-only exercise, which has no attempts.

Each exercise is tallied once, as a count of its students per distinct
(wrong, attempts, hints). dl and the per-student readings of hr and ir are
exact: each distinct (numerator, denominator) pair is added once in rational
arithmetic, weighted by how many students share it, and converted to float
once, so dl matches an integer recount of the raw events bit-for-bit. The
per-student ir is dl itself. The divergence warnings compare each pooled
reading with the per-student reading from the same tally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .events import StudentExerciseSummary
from .tables import FLOAT4, INT, TEXT, Cell, Table, optional, to_json, write_csv


class MetricError(ValueError):
    pass


class OutOfRange(MetricError):
    """quartile_band requested for a value outside [0, 1]."""


class Band(str, Enum):
    Q1 = "Q1"
    Q2 = "Q2"
    Q3 = "Q3"
    Q4 = "Q4"


@dataclass(frozen=True)
class ExerciseMetrics:
    """Per-exercise difficulty metrics over the participating cohort.

    ``dl``, ``ir``, and ``band`` are None for exercises with hint activity
    but zero attempts, where the underlying ratios are undefined.
    """

    exercise_id: str
    module_id: str
    n_students: int
    dl: float | None
    hr: float
    ir: float | None
    band: Band | None


def _exact_mean(ratios: Counter[tuple[int, int]]) -> float:
    """Mean of the tallied ratios: exact sum, one float conversion."""
    total = sum((count * Fraction(num, den) for (num, den), count in ratios.items()), Fraction(0))
    return float(total / sum(ratios.values()))


def _pooled(ratios: Counter[tuple[int, int]]) -> float:
    num = sum(count * n for (n, _), count in ratios.items())
    den = sum(count * d for (_, d), count in ratios.items())
    return num / den


def quartile_band(dl: float) -> Band:
    """Band containing a difficulty level; total on [0, 1]."""
    if not 0.0 <= dl <= 1.0:
        raise OutOfRange(f"difficulty level {dl!r} outside [0, 1]")
    if dl > 0.34:
        return Band.Q4
    if dl >= 0.21:
        return Band.Q3
    if dl >= 0.12:
        return Band.Q2
    return Band.Q1


_BAND = Cell(lambda band: band.value, Band, Band, lambda band: band.value)

METRICS = Table(
    "exercises",
    ExerciseMetrics,
    [
        ("exercise_id", TEXT),
        ("module_id", TEXT),
        ("n_students", INT),
        ("dl", optional(FLOAT4)),
        ("hr", FLOAT4),
        ("ir", optional(FLOAT4)),
        ("band", optional(_BAND)),
    ],
)

POOLING_DIVERGENCE_LIMIT = 0.05

METRIC_NOTES = [
    "dl is the mean over attempting students of (1 - correct_ratio).",
    "hr and ir pool raw counts across students before dividing; the warnings name each exercise "
    f"whose pooled hr or ir differs from its per-student reading by more than {POOLING_DIVERGENCE_LIMIT}.",
]


@dataclass
class MetricsTable:
    """All exercises' metric rows plus computation notes and warnings."""

    rows: list[ExerciseMetrics]
    warnings: list[str]
    notes: list[str]

    def to_csv(self) -> str:
        return write_csv(METRICS, self.rows, self.notes)

    def to_dict(self) -> dict:
        return to_json(METRICS, self.rows, pooling="pooled", warnings=list(self.warnings), notes=list(self.notes))


def build_metrics_table(summaries: Iterable[StudentExerciseSummary]) -> MetricsTable:
    """Tally summaries by exercise and compute every metric row, sorted by exercise id.

    A summary with neither attempts nor hints adds nothing. Exercises where
    the pooled and per-student readings of hr or ir diverge by more than
    ``POOLING_DIVERGENCE_LIMIT`` are flagged in the warnings, so the pooling
    choice is auditable.
    """
    by_exercise: dict[str, list[StudentExerciseSummary]] = {}
    for s in summaries:
        if s.n_attempts or s.n_hints:
            by_exercise.setdefault(s.exercise_id, []).append(s)

    rows: list[ExerciseMetrics] = []
    warnings: list[str] = []
    for exercise_id in sorted(by_exercise):
        group = by_exercise[exercise_id]
        tally = Counter((s.n_wrong, s.n_attempts, s.n_hints) for s in group)  # students per distinct triple
        wrong: Counter[tuple[int, int]] = Counter()  # attempting students per (wrong, attempts)
        hints: Counter[tuple[int, int]] = Counter()  # students per (hints, hints + attempts)
        for (n_wrong, n_attempts, n_hints), count in tally.items():
            hints[n_hints, n_hints + n_attempts] += count
            if n_attempts:
                wrong[n_wrong, n_attempts] += count
        module_id, hr = min(s.module_id for s in group), _pooled(hints)
        if not wrong:
            rows.append(ExerciseMetrics(exercise_id, module_id, 0, None, hr, None, None))
            warnings.append(f"{exercise_id}: hint-only exercise, dl/ir undefined")
            continue
        dl, ir = _exact_mean(wrong), _pooled(wrong)
        rows.append(ExerciseMetrics(exercise_id, module_id, sum(wrong.values()), dl, hr, ir, quartile_band(dl)))
        for name, pooled, per_student in (("hr", hr, _exact_mean(hints)), ("ir", ir, dl)):
            gap = abs(per_student - pooled)
            if gap > POOLING_DIVERGENCE_LIMIT:
                warnings.append(
                    f"{exercise_id}: {name} pooling choice matters (pooled vs per-student differ by {gap:.4f})"
                )
    return MetricsTable(rows=rows, warnings=warnings, notes=list(METRIC_NOTES))
