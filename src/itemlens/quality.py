"""Good/poor exercise classification from fitted 2PL parameters.

Discrimination values map to six ordered labels; difficulty maps to
Easy/Medium/Hard. Two defect patterns mark an exercise poor: negative
discrimination, and a (near-)flat response curve on an easy exercise. A
degenerate fit is also reported poor since its parameters say nothing.

The published label table leaves gaps between its printed ranges (for
example nothing covers 0.345); here every boundary is half-open on the
right so each value gets exactly one label. The ``table2_compat`` flag
widens Easy from b < -1 to b < 0, matching a published classification that
treats mildly negative difficulty as easy; it defaults off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from .irt import ItemParameters, difficult_at_average
from .metrics import ExerciseMetrics
from .tables import BOOL, FLOAT4, INT, TEXT, Cell, Table, optional, to_json, write_csv


class IdMismatch(ValueError):
    """Verdicts and parameters disagree on which items exist."""


class DiscriminationLabel(str, enum.Enum):
    NONE = "None"
    VERY_LOW = "Very Low"
    LOW = "Low"
    MODERATE = "Moderate"
    HIGH = "High"
    VERY_HIGH = "Very High"


class DifficultyLabel(str, enum.Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"


class Verdict(str, enum.Enum):
    GOOD = "Good"
    POOR = "Poor"


class PoorReason(str, enum.Enum):
    NEGATIVE_DISCRIMINATION = "NegativeDiscrimination"
    LOW_DISCRIMINATION_EASY_ITEM = "LowDiscriminationEasyItem"
    DEGENERATE = "Degenerate"


# ordered label cut points: label applies on [lower, next lower)
_DISCRIMINATION_CUTS = (
    (0.01, DiscriminationLabel.NONE),  # everything below 0.01, negatives included
    (0.35, DiscriminationLabel.VERY_LOW),
    (0.65, DiscriminationLabel.LOW),
    (1.35, DiscriminationLabel.MODERATE),
    (1.70, DiscriminationLabel.HIGH),
)


def discrimination_label(a: float) -> tuple[DiscriminationLabel, bool]:
    """Label a discrimination value; the flag marks a < 0 specifically."""
    negative = a < 0.0
    for upper, label in _DISCRIMINATION_CUTS:
        if a < upper:
            return label, negative
    return DiscriminationLabel.VERY_HIGH, negative


def difficulty_label(b: float, table2_compat: bool = False) -> DifficultyLabel:
    """Hard above 1, Easy below -1 (below 0 in compat mode), else Medium."""
    if b > 1.0:
        return DifficultyLabel.HARD
    easy_below = 0.0 if table2_compat else -1.0
    if b < easy_below:
        return DifficultyLabel.EASY
    return DifficultyLabel.MEDIUM


@dataclass(frozen=True)
class QualityVerdict:
    item_id: str
    discrimination_label: DiscriminationLabel
    negative_discrimination: bool
    difficulty_label: DifficultyLabel
    verdict: Verdict
    reasons: tuple[PoorReason, ...]


def classify_quality(params: ItemParameters, table2_compat: bool = False) -> QualityVerdict:
    """Apply the poor-exercise rules to one item's fitted parameters."""
    disc, negative = discrimination_label(params.a)
    diff = difficulty_label(params.b, table2_compat=table2_compat)
    reasons: list[PoorReason] = []
    if negative:
        reasons.append(PoorReason.NEGATIVE_DISCRIMINATION)
    if (
        disc in (DiscriminationLabel.NONE, DiscriminationLabel.VERY_LOW)
        and params.a >= 0.0
        and diff is DifficultyLabel.EASY
    ):
        reasons.append(PoorReason.LOW_DISCRIMINATION_EASY_ITEM)
    if params.degenerate:
        reasons.append(PoorReason.DEGENERATE)
    verdict = Verdict.POOR if reasons else Verdict.GOOD
    return QualityVerdict(
        item_id=params.item_id,
        discrimination_label=disc,
        negative_discrimination=negative,
        difficulty_label=diff,
        verdict=verdict,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class ReportRow:
    item_id: str
    module_id: str | None
    n_students: int | None
    dl: float | None
    hr: float | None
    ir: float | None
    band: str | None
    a: float
    b: float
    se_a: float | None
    se_b: float | None
    degenerate: bool
    discrimination_label: str
    negative_discrimination: bool
    difficulty_label: str
    difficult_at_average: bool
    verdict: str
    reasons: tuple[str, ...]


REPORT = Table(
    "rows",
    ReportRow,
    [
        ("item_id", TEXT),
        ("module_id", optional(TEXT)),
        ("n_students", optional(INT)),
        ("dl", optional(FLOAT4)),
        ("hr", optional(FLOAT4)),
        ("ir", optional(FLOAT4)),
        ("band", optional(TEXT)),
        ("a", FLOAT4),
        ("b", FLOAT4),
        ("se_a", optional(FLOAT4)),
        ("se_b", optional(FLOAT4)),
        ("degenerate", BOOL),
        ("discrimination_label", TEXT),
        ("negative_discrimination", BOOL),
        ("difficulty_label", TEXT),
        ("difficult_at_average", BOOL),
        ("verdict", TEXT),
        ("reasons", Cell("|".join, lambda s: tuple(s.split("|")) if s else (), tuple, list)),
    ],
)


@dataclass
class QualityReport:
    """Ranked join of behavioral metrics, fitted parameters, and verdicts."""

    rows: list[ReportRow]
    summary: dict
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_csv(self) -> str:
        return write_csv(REPORT, self.rows, self.notes)

    def to_dict(self) -> dict:
        return to_json(REPORT, self.rows, summary=self.summary, warnings=list(self.warnings), notes=list(self.notes))


def quality_report(
    verdicts: Sequence[QualityVerdict],
    metrics: Sequence[ExerciseMetrics],
    params: Sequence[ItemParameters],
    table2_compat: bool = False,
) -> QualityReport:
    """Join per-item inputs into one ranked report.

    Verdicts and parameters must cover the same item ids; metrics may be
    missing for some items (their columns stay blank, with a warning).
    Rows sort by dl descending, missing dl last, ties by item_id.
    """
    verdict_by_id = {v.item_id: v for v in verdicts}
    param_by_id = {p.item_id: p for p in params}
    if len(verdict_by_id) != len(verdicts) or len(param_by_id) != len(params):
        raise IdMismatch("duplicate item ids in verdicts or parameters")
    if set(verdict_by_id) != set(param_by_id):
        only_v = sorted(set(verdict_by_id) - set(param_by_id))
        only_p = sorted(set(param_by_id) - set(verdict_by_id))
        raise IdMismatch(f"verdicts/parameters id mismatch: verdicts-only {only_v}, params-only {only_p}")
    metric_by_id = {m.exercise_id: m for m in metrics}

    warnings: list[str] = []
    rows: list[ReportRow] = []
    for item_id in sorted(param_by_id):
        p = param_by_id[item_id]
        v = verdict_by_id[item_id]
        m = metric_by_id.get(item_id)
        if m is None:
            warnings.append(f"no behavioral metrics for item {item_id!r}")
        rows.append(
            ReportRow(
                item_id=item_id,
                module_id=m.module_id if m else None,
                n_students=m.n_students if m else None,
                dl=m.dl if m else None,
                hr=m.hr if m else None,
                ir=m.ir if m else None,
                band=m.band.value if m and m.band is not None else None,
                a=p.a,
                b=p.b,
                se_a=p.se_a,
                se_b=p.se_b,
                degenerate=p.degenerate,
                discrimination_label=v.discrimination_label.value,
                negative_discrimination=v.negative_discrimination,
                difficulty_label=v.difficulty_label.value,
                difficult_at_average=difficult_at_average(p),
                verdict=v.verdict.value,
                reasons=tuple(r.value for r in v.reasons),
            )
        )
    extra_metrics = sorted(set(metric_by_id) - set(param_by_id))
    for item_id in extra_metrics:
        warnings.append(f"metrics for unknown item {item_id!r} ignored")

    rows.sort(key=lambda r: (r.dl is None, -(r.dl if r.dl is not None else 0.0), r.item_id))

    poor_by_reason: dict[str, int] = {}
    n_poor = 0
    for row in rows:
        if row.verdict == Verdict.POOR.value:
            n_poor += 1
            for reason in row.reasons:
                poor_by_reason[reason] = poor_by_reason.get(reason, 0) + 1
    summary = {
        "n_items": len(rows),
        "n_good": len(rows) - n_poor,
        "n_poor": n_poor,
        "poor_by_reason": dict(sorted(poor_by_reason.items())),
        "table2_compat": table2_compat,
    }
    notes = [
        "dl is the mean per-student wrong-attempt share, not the share of failing students",
        "difficulty thresholds: Hard b>1, Easy b<-1"
        + (" (widened to b<0 by table2_compat)" if table2_compat else ""),
    ]
    return QualityReport(rows=rows, summary=summary, warnings=warnings, notes=notes)
