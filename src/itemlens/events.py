"""Interaction-event log ingestion: parsing, validation, aggregation.

Logs arrive either as CSV with the exact header
``student_id,exercise_id,module_id,timestamp,kind,correct`` or as JSONL with
one object per line carrying the same field names. ``kind`` is ``attempt`` or
``hint``, ``correct`` is ``true``/``false`` for attempts and empty (CSV) or
absent/null (JSONL) for hints, and ``timestamp`` is RFC 3339. Both formats
ignore whitespace around a field and the case of ``kind``; in JSONL every
field but ``correct`` is an id, read by ``tables.ID``: a string or an integer.

Each row rule is stated once: :class:`InteractionEvent` rejects an event no
log may hold, a decoder per format rejects malformed cells, and one loop
rejects a row whose instant is not after the last accepted row's.
Malformed rows never abort a parse and are never dropped silently; they are
collected into the returned report with their line number.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .tables import BOOL, ID, optional, read_rows, write_rows

CSV_HEADER = ["student_id", "exercise_id", "module_id", "timestamp", "kind", "correct"]
_TEXT_FIELDS = CSV_HEADER[:5]  # every field but correct
_CORRECT = optional(BOOL)  # a JSONL row's correct: a boolean, null or absent


class UnreadableStream(ValueError):
    """The input could not be decoded or its container is unusable."""


class EventKind(str, Enum):
    ATTEMPT = "attempt"
    HINT = "hint"


_KINDS = {kind.value: kind for kind in EventKind}


@dataclass(frozen=True)
class InteractionEvent:
    """One logged student action (attempt or hint request) on one exercise.

    Raises ValueError for an event no log may hold; a string kind becomes its EventKind.
    """

    student_id: str
    exercise_id: str
    module_id: str
    timestamp: datetime
    kind: EventKind
    correct: bool | None = None

    def __post_init__(self):
        if not self.student_id:
            raise ValueError("empty student_id")
        if not self.exercise_id:
            raise ValueError("empty exercise_id")
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ValueError(f"unknown kind {self.kind!r}")
        if kind is not self.kind:
            object.__setattr__(self, "kind", kind)
        if kind is EventKind.ATTEMPT:
            if self.correct is None:
                raise ValueError("attempt row lacks a correct value")
        elif self.correct is not None:
            raise ValueError("hint row carries a correct value")


@dataclass(frozen=True)
class RowProblem:
    """A rejected input row: the 1-based line it starts on, plus the reason."""

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
    """Counts for a parsed event sequence; callers add each rejected row as a violation."""

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


_CORRECT_CELLS = {"true": True, "false": False, "": None}


def _build_event(line: int, fields: Sequence[str], correct: bool | None) -> InteractionEvent | RowProblem:
    """One event from a row's fields other than ``correct``, in header order.

    Both formats parse through here, so they share its whitespace and case rules.
    """
    student_id, exercise_id, module_id, timestamp, kind = (f.strip() for f in fields)
    try:
        ts = parse_timestamp(timestamp)
    except ValueError:
        return RowProblem(line, f"unparseable timestamp {timestamp!r}")
    try:
        return InteractionEvent(student_id, exercise_id, module_id, ts, kind.lower(), correct)
    except ValueError as exc:
        return RowProblem(line, str(exc))


def _decode_csv(text: str) -> Iterator[tuple[int, list[str], bool | None] | RowProblem]:
    records = read_rows(text)
    try:
        _, header = next(records)
    except StopIteration:
        return
    if [h.strip() for h in header] != CSV_HEADER:
        raise UnreadableStream(
            f"unexpected CSV header {header!r}; expected {','.join(CSV_HEADER)}"
        )
    for line, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CSV_HEADER):
            yield RowProblem(line, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
            continue
        *fields, correct_raw = row
        correct_raw = correct_raw.strip().lower()
        if correct_raw in _CORRECT_CELLS:
            yield line, fields, _CORRECT_CELLS[correct_raw]
        else:
            yield RowProblem(line, f"correct must be true/false/empty, got {correct_raw!r}")


def _decode_jsonl(text: str) -> Iterator[tuple[int, list[str], bool | None] | RowProblem]:
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            yield RowProblem(line, f"invalid JSON: {exc.msg}")
            continue
        except (ValueError, RecursionError) as exc:  # an integer too long to convert, or arrays nested too deep
            yield RowProblem(line, f"invalid JSON: {exc}")
            continue
        if not isinstance(obj, dict):
            yield RowProblem(line, "line is not a JSON object")
            continue
        missing = [k for k in _TEXT_FIELDS if k not in obj]
        if missing:
            yield RowProblem(line, f"missing fields: {', '.join(missing)}")
            continue
        fields: list[str] = []
        try:
            for name in _TEXT_FIELDS:
                fields.append(ID.load(obj[name]))
        except ValueError as exc:
            yield RowProblem(line, f"{name}: {exc}")
            continue
        try:
            correct = _CORRECT.load(obj.get("correct"))
        except ValueError as exc:
            yield RowProblem(line, f"correct: {exc}")
            continue
        yield line, fields, correct


def parse_event_log(stream: bytes | str | io.IOBase, fmt: str = "csv") -> ParsedLog:
    """Parse a CSV or JSONL event log.

    ``stream`` may be bytes, text, or a file object. Raises
    :class:`UnreadableStream` when the stream cannot be decoded as UTF-8 or
    the CSV header does not match the contract; per-row issues are collected
    in ``ParsedLog.problems`` instead of being raised, as is a row whose
    instant is not after the last accepted row's.
    """
    if isinstance(stream, io.IOBase):
        stream = stream.read()
    if isinstance(stream, bytes):
        try:
            stream = stream.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UnreadableStream(f"input is not valid UTF-8: {exc}") from exc
    fmt = fmt.lower()
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown log format {fmt!r}; expected 'csv' or 'jsonl'")
    rows = _decode_csv(stream) if fmt == "csv" else _decode_jsonl(stream)
    events: list[InteractionEvent] = []
    problems: list[RowProblem] = []
    last_line = 0
    for row in rows:
        if isinstance(row, RowProblem):
            problems.append(row)
            continue
        line = row[0]
        event = _build_event(*row)
        if isinstance(event, RowProblem):
            problems.append(event)
        elif events and event.timestamp <= events[-1].timestamp:
            problems.append(RowProblem(line, f"timestamp not after line {last_line}'s"))
        else:
            events.append(event)
            last_line = line
    return ParsedLog(events, problems)


def read_event_log(path: str | Path, fmt: str | None = None) -> ParsedLog:
    """Read an event log file, inferring the format from the extension."""
    path = Path(path)
    if fmt is None:
        # a .json input is a scenario, never a log
        fmt = {".csv": "csv", ".jsonl": "jsonl", ".ndjson": "jsonl"}.get(path.suffix.lower())
        if fmt is None:
            raise UnreadableStream(f"cannot infer log format from {path.name!r}; use .csv or .jsonl")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise UnreadableStream(f"cannot read {path}: {exc}") from exc
    return parse_event_log(data, fmt)


def aggregate(events: Iterable[InteractionEvent]) -> list[StudentExerciseSummary]:
    """Tally events into one summary per (student, exercise) pair.

    Order-insensitive: any permutation of the input yields identical output.
    Summaries are returned sorted by (student_id, exercise_id). Each
    exercise gets one module, the lexicographically smallest module id it
    was logged under, so it lands in one fit group however its events
    disagree (:func:`module_conflicts` names the exercises where they do).
    """
    counts: dict[tuple[str, str], list[int]] = {}
    modules: dict[str, str] = {}
    for ev in events:
        tally = counts.setdefault((ev.student_id, ev.exercise_id), [0, 0, 0, 0])  # attempts, correct, wrong, hints
        if ev.kind is EventKind.ATTEMPT:
            tally[0] += 1
            if ev.correct:
                tally[1] += 1
            else:
                tally[2] += 1
        else:
            tally[3] += 1
        prev = modules.get(ev.exercise_id)
        if prev is None or ev.module_id < prev:
            modules[ev.exercise_id] = ev.module_id
    return [
        StudentExerciseSummary(sid, eid, modules[eid], *counts[(sid, eid)])
        for sid, eid in sorted(counts)
    ]


def module_conflicts(events: Iterable[InteractionEvent]) -> list[str]:
    """Exercises logged under more than one module id, sorted."""
    logged = Counter(eid for eid, _ in {(ev.exercise_id, ev.module_id) for ev in events})
    return sorted(eid for eid, n in logged.items() if n > 1)


def validate_log(events: Sequence[InteractionEvent]) -> ValidationReport:
    """Count events, students, exercises and kinds; an empty log warns.

    No event breaks a row rule, so callers add each rejected row as ``line N: reason``.
    """
    n_hints = sum(ev.kind is EventKind.HINT for ev in events)
    return ValidationReport(
        n_events=len(events),
        n_students=len({ev.student_id for ev in events}),
        n_exercises=len({ev.exercise_id for ev in events}),
        n_attempt_events=len(events) - n_hints,
        n_hint_events=n_hints,
        warnings=[] if events else ["log contains no events"],
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

