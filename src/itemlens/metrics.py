"""Behavioral difficulty metrics per exercise, with quartile banding.

Given per-(student, exercise) summaries, this module computes:

* ``correct_ratio``     r  = n_correct / n_attempts          (one student)
* ``difficulty_level``  dl = mean over students of (1 - r)
* ``hint_ratio``        hr = hints / (hints + attempts)      (pooled counts)
* ``incorrect_ratio``   ir = wrong / attempts                (pooled counts)

and assigns each exercise a difficulty band: Q1 [0, 0.12), Q2 [0.12, 0.21),
Q3 [0.21, 0.34], Q4 (0.34, 1]. Ties at 0.12 and 0.21 resolve upward.

dl is evaluated in exact rational arithmetic before the final float
conversion, so it matches an integer recount of the raw events bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .events import StudentExerciseSummary
from .tables import FLOAT4, INT, TEXT, Cell, Table, optional, to_json, write_csv


class MetricError(ValueError):
    pass


class UndefinedRatio(MetricError):
    """correct_ratio requested for a student with zero attempts."""


class NoParticipants(MetricError):
    """difficulty_level requested with no attempting students."""


class NoActivity(MetricError):
    """hint_ratio requested with zero hints and zero attempts."""


class NoAttempts(MetricError):
    """incorrect_ratio requested with zero attempts."""


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


def correct_ratio(summary: StudentExerciseSummary) -> float:
    """Fraction of one student's attempts that were correct."""
    if summary.n_attempts == 0:
        raise UndefinedRatio(
            f"({summary.student_id}, {summary.exercise_id}) has no attempts"
        )
    return summary.n_correct / summary.n_attempts


def difficulty_level(summaries: Iterable[StudentExerciseSummary]) -> float:
    """Mean incorrectness across attempting students, in [0, 1].

    Students with zero attempts are excluded (their ratio is undefined).
    Computed exactly: 1 - r equals n_wrong / n_attempts per student.
    """
    total = Fraction(0)
    n = 0
    for s in summaries:
        if s.n_attempts == 0:
            continue
        total += Fraction(s.n_wrong, s.n_attempts)
        n += 1
    if n == 0:
        raise NoParticipants("no students with attempts")
    return float(total / n)


def hint_ratio(summaries: Iterable[StudentExerciseSummary], per_student: bool = False) -> float:
    """Hints over hints-plus-attempts for one exercise.

    Pooled by default: raw counts are summed across students before the
    division. ``per_student=True`` instead averages each student's own ratio,
    skipping students with no activity on the exercise.
    """
    if per_student:
        total = Fraction(0)
        n = 0
        for s in summaries:
            denom = s.n_hints + s.n_attempts
            if denom == 0:
                continue
            total += Fraction(s.n_hints, denom)
            n += 1
        if n == 0:
            raise NoActivity("no hints or attempts recorded")
        return float(total / n)
    hints = attempts = 0
    for s in summaries:
        hints += s.n_hints
        attempts += s.n_attempts
    if hints + attempts == 0:
        raise NoActivity("no hints or attempts recorded")
    return hints / (hints + attempts)


def incorrect_ratio(summaries: Iterable[StudentExerciseSummary], per_student: bool = False) -> float:
    """Wrong answers over total attempts for one exercise.

    Pooled by default; ``per_student=True`` averages per-student ratios over
    students with at least one attempt.
    """
    if per_student:
        total = Fraction(0)
        n = 0
        for s in summaries:
            if s.n_attempts == 0:
                continue
            total += Fraction(s.n_wrong, s.n_attempts)
            n += 1
        if n == 0:
            raise NoAttempts("no attempts recorded")
        return float(total / n)
    wrong = attempts = 0
    for s in summaries:
        wrong += s.n_wrong
        attempts += s.n_attempts
    if attempts == 0:
        raise NoAttempts("no attempts recorded")
    return wrong / attempts


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


def exercise_metrics(
    exercise_id: str,
    summaries: Sequence[StudentExerciseSummary],
    per_student: bool = False,
) -> ExerciseMetrics:
    """Compute the full metric row for one exercise's summaries."""
    module_id = min(s.module_id for s in summaries)
    attempting = [s for s in summaries if s.n_attempts > 0]
    hr = hint_ratio(summaries, per_student=per_student)
    if attempting:
        dl = difficulty_level(attempting)
        ir = incorrect_ratio(summaries, per_student=per_student)
        band = quartile_band(dl)
    else:
        dl = ir = band = None
    return ExerciseMetrics(
        exercise_id=exercise_id,
        module_id=module_id,
        n_students=len(attempting),
        dl=dl,
        hr=hr,
        ir=ir,
        band=band,
    )


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
    "hr and ir pool raw counts across students before dividing; "
    "set per_student to average individual ratios instead.",
]


@dataclass
class MetricsTable:
    """All exercises' metric rows plus computation notes and warnings."""

    rows: list[ExerciseMetrics]
    per_student: bool
    warnings: list[str]
    notes: list[str]

    def to_csv(self) -> str:
        return write_csv(METRICS, self.rows, self.notes)

    def to_dict(self) -> dict:
        pooling = "per_student" if self.per_student else "pooled"
        return to_json(METRICS, self.rows, pooling=pooling, warnings=list(self.warnings), notes=list(self.notes))


def build_metrics_table(
    summaries: Iterable[StudentExerciseSummary],
    per_student: bool = False,
) -> MetricsTable:
    """Group summaries by exercise and compute every metric row.

    Exercises where the pooled and per-student readings of hr or ir diverge
    by more than ``POOLING_DIVERGENCE_LIMIT`` are flagged in the warnings, so
    the pooling choice is auditable.
    """
    by_exercise: dict[str, list[StudentExerciseSummary]] = {}
    for s in summaries:
        by_exercise.setdefault(s.exercise_id, []).append(s)

    rows: list[ExerciseMetrics] = []
    warnings: list[str] = []
    for exercise_id in sorted(by_exercise):
        group = by_exercise[exercise_id]
        row = exercise_metrics(exercise_id, group, per_student=per_student)
        rows.append(row)
        if row.n_students == 0:
            warnings.append(f"{exercise_id}: hint-only exercise, dl/ir undefined")
            continue
        hr_alt = hint_ratio(group, per_student=not per_student)
        ir_alt = incorrect_ratio(group, per_student=not per_student)
        if abs(hr_alt - row.hr) > POOLING_DIVERGENCE_LIMIT:
            warnings.append(
                f"{exercise_id}: hr pooling choice matters "
                f"(pooled vs per-student differ by {abs(hr_alt - row.hr):.4f})"
            )
        if row.ir is not None and abs(ir_alt - row.ir) > POOLING_DIVERGENCE_LIMIT:
            warnings.append(
                f"{exercise_id}: ir pooling choice matters "
                f"(pooled vs per-student differ by {abs(ir_alt - row.ir):.4f})"
            )
    return MetricsTable(rows=rows, per_student=per_student, warnings=warnings, notes=list(METRIC_NOTES))
