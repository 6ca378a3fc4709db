"""Interaction-event log ingestion: parsing, validation, aggregation.

Logs arrive either as CSV with the exact header
``student_id,exercise_id,module_id,timestamp,kind,correct`` or as JSONL with
one object per line carrying the same field names. ``kind`` is ``attempt`` or
``hint``, ``correct`` is ``true``/``false`` for attempts and empty (CSV) or
absent/null (JSONL) for hints, and ``timestamp`` is RFC 3339. Both formats
ignore whitespace around a field and the case of ``kind``; in JSONL every
field but ``correct`` must be a string or an integer.

Malformed rows never abort a parse and are never dropped silently; they are
collected into the returned report with their line number.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .tables import read_rows, write_rows

CSV_HEADER = ["student_id", "exercise_id", "module_id", "timestamp", "kind", "correct"]
_TEXT_FIELDS = CSV_HEADER[:5]  # every field but correct


class UnreadableStream(ValueError):
    """The input could not be decoded or its container is unusable."""


class EventKind(str, Enum):
    ATTEMPT = "attempt"
    HINT = "hint"


@dataclass(frozen=True)
class InteractionEvent:
    """One logged student action (attempt or hint request) on one exercise."""

    student_id: str
    exercise_id: str
    module_id: str
    timestamp: datetime
    kind: EventKind
    correct: bool | None = None


@dataclass(frozen=True)
class RowProblem:
    """A rejected input row: 1-based line number plus the reason."""

    line: int
    reason: str


@dataclass
class ParsedLog:
    """Parse output: accepted events in stream order plus rejected rows."""

    events: list[InteractionEvent]
    problems: list[RowProblem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass(frozen=True)
class StudentExerciseSummary:
    """Per (student, exercise) tallies of attempts, outcomes, and hints.

    ``n_correct + n_wrong == n_attempts`` always holds; ``r`` is the
    correct-attempt fraction and is undefined (None) when the student never
    attempted the exercise (hint-only activity).
    """

    student_id: str
    exercise_id: str
    module_id: str
    n_attempts: int
    n_correct: int
    n_wrong: int
    n_hints: int

    @property
    def r(self) -> float | None:
        if self.n_attempts == 0:
            return None
        return self.n_correct / self.n_attempts


@dataclass
class ValidationReport:
    """Counts and invariant violations for a parsed event sequence."""

    n_events: int
    n_students: int
    n_exercises: int
    n_attempt_events: int
    n_hint_events: int
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"schema_version": 1, **asdict(self), "ok": self.ok}


def parse_timestamp(raw: str) -> datetime:
    """Parse an RFC 3339 instant; naive inputs are taken as UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    ts = datetime.fromisoformat(text)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    """RFC 3339 with millisecond precision and a trailing Z."""
    ts = ts.astimezone(timezone.utc)
    return ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}Z"


_BOOL_VALUES = {"true": True, "false": False}


def _build_event(line: int, fields: Sequence[str], correct: bool | None) -> InteractionEvent | RowProblem:
    """One event from a row's fields other than ``correct``, in header order.

    Both formats parse through here, so they share its whitespace and case rules.
    """
    student_id, exercise_id, module_id, timestamp, kind = (f.strip() for f in fields)
    if not student_id:
        return RowProblem(line, "empty student_id")
    if not exercise_id:
        return RowProblem(line, "empty exercise_id")
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        return RowProblem(line, f"unparseable timestamp {timestamp!r}")
    kind = kind.lower()
    if kind == EventKind.ATTEMPT.value:
        if correct is None:
            return RowProblem(line, "attempt row lacks a correct value")
        return InteractionEvent(student_id, exercise_id, module_id, ts, EventKind.ATTEMPT, correct)
    if kind == EventKind.HINT.value:
        if correct is not None:
            return RowProblem(line, "hint row carries a correct value")
        return InteractionEvent(student_id, exercise_id, module_id, ts, EventKind.HINT, None)
    return RowProblem(line, f"unknown kind {kind!r}")


def _parse_csv(text: str) -> ParsedLog:
    reader = read_rows(text)
    events: list[InteractionEvent] = []
    problems: list[RowProblem] = []
    try:
        header = next(reader)
    except StopIteration:
        return ParsedLog(events, problems)
    if [h.strip() for h in header] != CSV_HEADER:
        raise UnreadableStream(
            f"unexpected CSV header {header!r}; expected {','.join(CSV_HEADER)}"
        )
    for line, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_HEADER):
            problems.append(RowProblem(line, f"expected {len(CSV_HEADER)} fields, got {len(row)}"))
            continue
        *fields, correct_raw = row
        correct_raw = correct_raw.strip().lower()
        if correct_raw == "":
            correct = None
        elif correct_raw in _BOOL_VALUES:
            correct = _BOOL_VALUES[correct_raw]
        else:
            problems.append(RowProblem(line, f"correct must be true/false/empty, got {correct_raw!r}"))
            continue
        out = _build_event(line, fields, correct)
        if isinstance(out, RowProblem):
            problems.append(out)
        else:
            events.append(out)
    return ParsedLog(events, problems)


def _parse_jsonl(text: str) -> ParsedLog:
    events: list[InteractionEvent] = []
    problems: list[RowProblem] = []
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            problems.append(RowProblem(line, f"invalid JSON: {exc.msg}"))
            continue
        if not isinstance(obj, dict):
            problems.append(RowProblem(line, "line is not a JSON object"))
            continue
        missing = [k for k in _TEXT_FIELDS if k not in obj]
        if missing:
            problems.append(RowProblem(line, f"missing fields: {', '.join(missing)}"))
            continue
        # a field's text is a string or an integer; null, booleans, floats,
        # objects and arrays have no single text form
        bad = [k for k in _TEXT_FIELDS if isinstance(obj[k], bool) or not isinstance(obj[k], (str, int))]
        if bad:
            problems.append(RowProblem(line, f"{bad[0]} must be a string or an integer, got {json.dumps(obj[bad[0]])}"))
            continue
        correct = obj.get("correct")
        if correct is not None and not isinstance(correct, bool):
            problems.append(RowProblem(line, f"correct must be boolean or null, got {correct!r}"))
            continue
        out = _build_event(line, [str(obj[k]) for k in _TEXT_FIELDS], correct)
        if isinstance(out, RowProblem):
            problems.append(out)
        else:
            events.append(out)
    return ParsedLog(events, problems)


def parse_event_log(stream: bytes | str | io.IOBase, fmt: str = "csv") -> ParsedLog:
    """Parse a CSV or JSONL event log.

    ``stream`` may be bytes, text, or a file object. Raises
    :class:`UnreadableStream` when the stream cannot be decoded as UTF-8 or
    the CSV header does not match the contract; per-row issues are collected
    in ``ParsedLog.problems`` instead of being raised.
    """
    if isinstance(stream, io.IOBase):
        stream = stream.read()
    if isinstance(stream, bytes):
        try:
            stream = stream.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnreadableStream(f"input is not valid UTF-8: {exc}") from exc
    fmt = fmt.lower()
    if fmt == "csv":
        return _parse_csv(stream)
    if fmt == "jsonl":
        return _parse_jsonl(stream)
    raise ValueError(f"unknown log format {fmt!r}; expected 'csv' or 'jsonl'")


def read_event_log(path: str | Path, fmt: str | None = None) -> ParsedLog:
    """Read an event log file, inferring the format from the extension."""
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        if suffix == ".csv":
            fmt = "csv"
        elif suffix in (".jsonl", ".ndjson", ".json"):
            fmt = "jsonl"
        else:
            raise UnreadableStream(f"cannot infer log format from {path.name!r}; use .csv or .jsonl")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise UnreadableStream(f"cannot read {path}: {exc}") from exc
    return parse_event_log(data, fmt)


def aggregate(events: Iterable[InteractionEvent]) -> list[StudentExerciseSummary]:
    """Tally events into one summary per (student, exercise) pair.

    Order-insensitive: any permutation of the input yields identical output.
    Summaries are returned sorted by (student_id, exercise_id); when events
    disagree on an exercise's module the lexicographically smallest module id
    wins, keeping the result permutation-invariant.
    """
    counts: dict[tuple[str, str], list[int]] = {}
    modules: dict[tuple[str, str], str] = {}
    for ev in events:
        key = (ev.student_id, ev.exercise_id)
        tally = counts.setdefault(key, [0, 0, 0, 0])  # attempts, correct, wrong, hints
        if ev.kind is EventKind.ATTEMPT:
            tally[0] += 1
            if ev.correct:
                tally[1] += 1
            else:
                tally[2] += 1
        else:
            tally[3] += 1
        prev = modules.get(key)
        if prev is None or ev.module_id < prev:
            modules[key] = ev.module_id
    return [
        StudentExerciseSummary(sid, eid, modules[(sid, eid)], *counts[(sid, eid)])
        for sid, eid in sorted(counts)
    ]


def validate_log(events: Sequence[InteractionEvent]) -> ValidationReport:
    """Check event invariants and report counts; problems never raise."""
    violations: list[str] = []
    warnings: list[str] = []
    students: set[str] = set()
    exercises: set[str] = set()
    n_attempts = 0
    n_hints = 0
    for idx, ev in enumerate(events):
        students.add(ev.student_id)
        exercises.add(ev.exercise_id)
        if ev.kind is EventKind.ATTEMPT:
            n_attempts += 1
            if ev.correct is None:
                violations.append(f"event {idx}: attempt without a correct value")
        else:
            n_hints += 1
            if ev.correct is not None:
                violations.append(f"event {idx}: hint carries correct={ev.correct}")
        if not ev.student_id:
            violations.append(f"event {idx}: empty student_id")
        if not ev.exercise_id:
            violations.append(f"event {idx}: empty exercise_id")
    if not events:
        warnings.append("log contains no events")
    return ValidationReport(
        n_events=len(events),
        n_students=len(students),
        n_exercises=len(exercises),
        n_attempt_events=n_attempts,
        n_hint_events=n_hints,
        violations=violations,
        warnings=warnings,
    )


def events_to_csv(events: Iterable[InteractionEvent]) -> str:
    rows = (
        [
            ev.student_id,
            ev.exercise_id,
            ev.module_id,
            format_timestamp(ev.timestamp),
            ev.kind.value,
            "" if ev.correct is None else ("true" if ev.correct else "false"),
        ]
        for ev in events
    )
    return write_rows(CSV_HEADER, rows)


def events_to_jsonl(events: Iterable[InteractionEvent]) -> str:
    lines = []
    for ev in events:
        obj = {
            "student_id": ev.student_id,
            "exercise_id": ev.exercise_id,
            "module_id": ev.module_id,
            "timestamp": format_timestamp(ev.timestamp),
            "kind": ev.kind.value,
            "correct": ev.correct,
        }
        if ev.correct is None:
            del obj["correct"]
        lines.append(json.dumps(obj, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")
