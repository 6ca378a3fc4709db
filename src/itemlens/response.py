"""Dichotomous response matrices for latent-trait calibration.

Each student's correct-attempt fraction on an exercise is cut at a threshold
(default 0.70, boundary inclusive) into a 0/1 score; exercises are grouped
into one matrix per chapter/module. A cell is missing when the student never
attempted the item: non-attempts contribute no likelihood term and are not
failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .events import StudentExerciseSummary
from .tables import write_rows

MISSING = -1  # cell sentinel; observed cells are 0 or 1


class UnmappedExercise(ValueError):
    """An exercise has no group in the mapping and no default group exists."""


@dataclass
class ResponseMatrix:
    """Students x items score matrix for one item group.

    ``cells`` is int8 with values {0, 1, MISSING}; rows follow
    ``student_ids`` and columns follow ``item_ids``, both sorted
    lexicographically so construction is order-insensitive.
    """

    group_id: str
    student_ids: list[str]
    item_ids: list[str]
    cells: np.ndarray

    def __post_init__(self) -> None:
        self.cells = np.asarray(self.cells, dtype=np.int8)
        if self.cells.shape != (len(self.student_ids), len(self.item_ids)):
            raise ValueError(
                f"cells shape {self.cells.shape} does not match "
                f"{len(self.student_ids)} students x {len(self.item_ids)} items"
            )
        if len(set(self.student_ids)) != len(self.student_ids):
            raise ValueError("duplicate student ids")
        if len(set(self.item_ids)) != len(self.item_ids):
            raise ValueError("duplicate item ids")

    @property
    def n_students(self) -> int:
        return len(self.student_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    def observed(self) -> np.ndarray:
        return self.cells != MISSING

    def n_observed(self) -> int:
        return int(self.observed().sum())

    def degenerate_items(self) -> list[str]:
        """Items whose observed responses are all identical (or absent).

        Their 0/1 split carries no slope information, so calibration would
        push their parameters to infinity; they are excluded from fits and
        flagged in reports.
        """
        # an all-missing column has max MISSING < min 1, a constant one max == min
        lo = self.cells.min(axis=0, initial=1, where=self.observed())
        hi = self.cells.max(axis=0, initial=MISSING)
        return [item_id for item_id, flat in zip(self.item_ids, (hi <= lo).tolist()) if flat]

    def drop_items(self, item_ids: Iterable[str]) -> "ResponseMatrix":
        drop = set(item_ids)
        keep = [j for j, item in enumerate(self.item_ids) if item not in drop]
        return ResponseMatrix(
            group_id=self.group_id,
            student_ids=list(self.student_ids),
            item_ids=[self.item_ids[j] for j in keep],
            cells=self.cells[:, keep].copy(),
        )

    def to_csv(self) -> str:
        rows = (
            [sid, *("NA" if v == MISSING else str(v) for v in cells)]
            for sid, cells in zip(self.student_ids, self.cells.tolist())
        )
        return write_rows(["student_id", *self.item_ids], rows)


def dichotomize(r: float, threshold: float = 0.70) -> int:
    """Score 1 when the correct fraction reaches the threshold, else 0."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"ratio {r!r} outside [0, 1]")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold {threshold!r} outside (0, 1]")
    return 1 if r >= threshold else 0


@dataclass
class MatrixBuildResult:
    matrices: list[ResponseMatrix]
    skipped_groups: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def build_matrices(
    summaries: Iterable[StudentExerciseSummary],
    grouping: Mapping[str, str] | None = None,
    threshold: float = 0.70,
    default_group: str | None = None,
) -> MatrixBuildResult:
    """Assemble one response matrix per item group.

    ``grouping`` maps exercise_id to group_id; exercises absent from an
    explicit mapping fall to ``default_group`` or raise
    :class:`UnmappedExercise`. With no mapping at all, each summary's
    module_id is the group. Students with no attempts inside a group are
    omitted from that group's matrix; groups with zero observed cells are
    skipped and reported.
    """
    scored: dict[str, dict[tuple[str, str], int]] = {}
    for s in summaries:
        if grouping is not None:
            group = grouping.get(s.exercise_id, default_group)
            if group is None:
                raise UnmappedExercise(
                    f"exercise {s.exercise_id!r} has no group and no default group is set"
                )
        else:
            group = s.module_id
        cells = scored.setdefault(group, {})
        if s.n_attempts > 0:
            cells[(s.student_id, s.exercise_id)] = dichotomize(s.r, threshold)
        else:
            cells.setdefault((s.student_id, s.exercise_id), MISSING)

    result = MatrixBuildResult(matrices=[])
    for group in sorted(scored):
        cells = scored[group]
        observed_students = sorted({sid for (sid, _), v in cells.items() if v != MISSING})
        item_ids = sorted({eid for _, eid in cells})
        if not observed_students:
            result.skipped_groups.append(group)
            result.warnings.append(f"group {group!r} has no observed responses; skipped")
            continue
        index_s = {sid: i for i, sid in enumerate(observed_students)}
        grid = np.full((len(observed_students), len(item_ids)), MISSING, dtype=np.int8)
        index_i = {eid: j for j, eid in enumerate(item_ids)}
        for (sid, eid), v in cells.items():
            if sid in index_s:
                grid[index_s[sid], index_i[eid]] = v
        result.matrices.append(
            ResponseMatrix(group_id=group, student_ids=observed_students, item_ids=item_ids, cells=grid)
        )
    return result
