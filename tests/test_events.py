import io
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from itemlens.events import (
    EventKind,
    InteractionEvent,
    RowProblem,
    UnreadableStream,
    aggregate,
    events_to_csv,
    format_timestamp,
    parse_event_log,
    parse_timestamp,
    read_event_log,
    validate_log,
)

HEADER = "student_id,exercise_id,module_id,timestamp,kind,correct"

SAMPLE = f"""{HEADER}
s1,ex1,m1,2020-09-01T10:00:00Z,attempt,true
s1,ex1,m1,2020-09-01T10:05:00Z,attempt,false
s1,ex1,m1,2020-09-01T10:06:00Z,hint,
s2,ex1,m1,2020-09-01T11:00:00Z,attempt,true
"""


def _jsonl(events) -> str:
    """JSONL with one object per event, ``correct`` left out of hint rows."""
    rows = []
    for ev in events:
        row = {
            "student_id": ev.student_id,
            "exercise_id": ev.exercise_id,
            "module_id": ev.module_id,
            "timestamp": format_timestamp(ev.timestamp),
            "kind": ev.kind.value,
        }
        if ev.correct is not None:
            row["correct"] = ev.correct
        rows.append(json.dumps(row) + "\n")
    return "".join(rows)


def _attempt(sid, eid, correct, ts="2020-09-01T10:00:00Z", module="m1"):
    return InteractionEvent(sid, eid, module, parse_timestamp(ts), EventKind.ATTEMPT, correct)


def _hint(sid, eid, ts="2020-09-01T10:00:00Z", module="m1"):
    return InteractionEvent(sid, eid, module, parse_timestamp(ts), EventKind.HINT, None)


class TestParseCsv:
    def test_happy_path(self):
        parsed = parse_event_log(SAMPLE)
        assert parsed.ok
        assert len(parsed.events) == 4
        first = parsed.events[0]
        assert first.student_id == "s1"
        assert first.exercise_id == "ex1"
        assert first.module_id == "m1"
        assert first.kind is EventKind.ATTEMPT
        assert first.correct is True
        assert parsed.events[2].kind is EventKind.HINT
        assert parsed.events[2].correct is None

    def test_accepts_bytes_and_file_objects(self):
        assert len(parse_event_log(SAMPLE.encode()).events) == 4
        assert len(parse_event_log(io.StringIO(SAMPLE)).events) == 4

    def test_header_mismatch_is_unreadable(self):
        with pytest.raises(UnreadableStream):
            parse_event_log("a,b,c\n1,2,3\n")

    def test_non_utf8_is_unreadable(self):
        with pytest.raises(UnreadableStream):
            parse_event_log(b"\xff\xfe\x00bad")

    def test_blank_rows_skipped(self):
        parsed = parse_event_log(f"{HEADER}\n\ns1,e1,m1,2020-09-01T10:00:00Z,attempt,true\n\n")
        assert parsed.ok
        assert len(parsed.events) == 1

    def test_row_problems_collected_not_raised(self):
        bad = f"""{HEADER}
s1,e1,m1,2020-09-01T10:00:00Z,attempt
s1,e1,m1,not-a-time,attempt,true
s1,e1,m1,2020-09-01T10:00:00Z,attempt,
s1,e1,m1,2020-09-01T10:00:00Z,hint,true
s1,e1,m1,2020-09-01T10:00:00Z,pageview,
,e1,m1,2020-09-01T10:00:00Z,attempt,true
s1,e1,m1,2020-09-01T10:00:00Z,attempt,yes
s1,e1,m1,2020-09-01T10:00:00Z,attempt,true
"""
        parsed = parse_event_log(bad)
        assert len(parsed.events) == 1
        assert len(parsed.problems) == 7
        # line numbers are 1-based and count the header
        assert [p.line for p in parsed.problems] == [2, 3, 4, 5, 6, 7, 8]

    def test_rows_are_numbered_by_physical_line(self):
        # the line-2 record spans lines 2-3 through a quoted line break, and line 5 is blank
        text = (
            f'{HEADER}\ns1,"ex\n1",m1,2020-09-01T10:00:00Z,attempt,true\n'
            "s1,e2,m1,2020-09-01T10:01:00Z,attempt,maybe\n\n"
            "s1,e3,m1,2020-09-01T10:02:00Z,attempt,yes\n"
        )
        parsed = parse_event_log(text)
        assert [e.exercise_id for e in parsed.events] == ["ex\n1"]
        assert [p.line for p in parsed.problems] == [4, 6]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_event_log(SAMPLE, fmt="xml")

    def test_stamp_is_judged_before_the_event(self):
        # a row with several faults reports its timestamp, which is parsed before the event is built
        parsed = parse_event_log(f"{HEADER}\n,e1,m1,not-a-time,attempt,true\n")
        assert parsed.problems == [RowProblem(2, "unparseable timestamp 'not-a-time'")]


class TestTimestampOrder:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_not_after_the_last_accepted_one_is_rejected(self, fmt):
        stamps = [
            "2024-01-01T10:00:00Z",
            "2023-01-01T10:00:00Z",  # earlier
            "2024-01-01T10:00:00+00:00",  # the same instant
            "2024-01-01T10:00:01Z",
            "2024-01-01T10:00:00.999Z",  # after line 2, but not after line 5
        ]
        rows = [["s1", "e1", "m1", ts, "attempt", "true"] for ts in stamps]
        if fmt == "csv":
            text = "\n".join([HEADER] + [",".join(r) for r in rows]) + "\n"
            first = 2
        else:
            keys = HEADER.split(",")
            text = "\n".join(json.dumps({**dict(zip(keys, r)), "correct": True}) for r in rows) + "\n"
            first = 1
        parsed = parse_event_log(text, fmt=fmt)
        assert [ev.timestamp for ev in parsed.events] == [parse_timestamp(stamps[0]), parse_timestamp(stamps[3])]
        assert parsed.problems == [
            RowProblem(first + 1, f"timestamp not after line {first}'s"),
            RowProblem(first + 2, f"timestamp not after line {first}'s"),
            RowProblem(first + 4, f"timestamp not after line {first + 3}'s"),
        ]

    def test_instants_compare_not_strings(self):
        # as strings, each stamp here sorts before the one above it
        text = f"""{HEADER}
s1,e1,m1,2024-01-01T10:00:00Z,attempt,true
s1,e1,m1,2024-01-01T10:00:00.500Z,attempt,true
s1,e1,m1,2024-01-01T11:00:01+01:00,attempt,true
s1,e1,m1,2024-01-01T10:00:02,attempt,true
s1,e1,m1,2024-01-01T05:00:03-05:00,hint,
"""
        parsed = parse_event_log(text)
        assert parsed.ok
        assert len(parsed.events) == 5


class TestParseJsonl:
    def test_happy_path(self):
        text = (
            '{"student_id": "s1", "exercise_id": "e1", "module_id": "m1",'
            ' "timestamp": "2020-09-01T10:00:00Z", "kind": "attempt", "correct": true}\n'
            '{"student_id": "s1", "exercise_id": "e1", "module_id": "m1",'
            ' "timestamp": "2020-09-01T10:01:00Z", "kind": "hint"}\n'
        )
        parsed = parse_event_log(text, fmt="jsonl")
        assert parsed.ok
        assert len(parsed.events) == 2
        assert parsed.events[1].kind is EventKind.HINT

    def test_problems(self):
        text = (
            "not json\n"
            "[1, 2]\n"
            '{"student_id": "s1"}\n'
            '{"student_id": "s1", "exercise_id": "e1", "module_id": "m1",'
            ' "timestamp": "2020-09-01T10:00:00Z", "kind": "attempt", "correct": "yes"}\n'
        )
        parsed = parse_event_log(text, fmt="jsonl")
        assert not parsed.events
        assert len(parsed.problems) == 4

    @pytest.mark.parametrize("kind, csv_correct, json_correct", [(" Attempt ", " TRUE ", True), ("HINT ", "", None)])
    def test_padded_row_parses_like_csv(self, kind, csv_correct, json_correct):
        fields = [" s1 ", " ex a ", " m1 ", " 2020-09-01T10:00:00Z ", kind]
        obj = dict(zip(HEADER.split(","), fields))
        if json_correct is not None:
            obj["correct"] = json_correct
        from_csv = parse_event_log(f"{HEADER}\n{','.join(fields)},{csv_correct}\n")
        from_jsonl = parse_event_log(json.dumps(obj), fmt="jsonl")
        assert from_csv.ok and from_jsonl.ok
        assert from_jsonl.events == from_csv.events
        assert (from_csv.events[0].student_id, from_csv.events[0].exercise_id) == ("s1", "ex a")

    @pytest.mark.parametrize("value", [None, {"x": 1}, True, 1.5, ["s1"], 7])
    def test_id_must_be_string_or_integer(self, value):
        good = {"student_id": "s1", "exercise_id": "e1", "module_id": "m1", "timestamp": "2020-09-01T10:00:00Z", "kind": "hint"}
        later = {**good, "student_id": value, "timestamp": "2020-09-01T10:01:00Z"}
        text = json.dumps(good) + "\n" + json.dumps(later) + "\n"
        parsed = parse_event_log(text, fmt="jsonl")
        if isinstance(value, int) and not isinstance(value, bool):
            assert parsed.ok
            assert parsed.events[1].student_id == str(value)
        else:
            assert len(parsed.events) == 1
            assert [p.line for p in parsed.problems] == [2]
            assert parsed.problems[0].reason == f"student_id: expected a string or an integer, got {json.dumps(value)}"

    @pytest.mark.parametrize("value", ["yes", 1, {"ok": True}])
    def test_correct_must_be_boolean_or_null(self, value):
        row = {"student_id": "s1", "exercise_id": "e1", "module_id": "m1", "timestamp": "2020-09-01T10:00:00Z"}
        parsed = parse_event_log(json.dumps({**row, "kind": "attempt", "correct": value}), fmt="jsonl")
        assert not parsed.events
        assert [p.reason for p in parsed.problems] == [f"correct: expected a boolean, got {json.dumps(value)}"]


class TestTimestamps:
    def test_z_suffix_and_offset_agree(self):
        assert parse_timestamp("2020-09-01T10:00:00Z") == parse_timestamp("2020-09-01T10:00:00+00:00")

    def test_naive_is_utc(self):
        ts = parse_timestamp("2020-09-01T10:00:00")
        assert ts.tzinfo is not None
        assert ts == datetime(2020, 9, 1, 10, tzinfo=timezone.utc)

    def test_format_round_trip(self):
        ts = parse_timestamp("2020-09-01T10:00:00.250Z")
        assert format_timestamp(ts) == "2020-09-01T10:00:00.250Z"
        assert parse_timestamp(format_timestamp(ts)) == ts


class TestAggregate:
    def test_tallies(self):
        events = [
            _attempt("s1", "e1", True),
            _attempt("s1", "e1", False),
            _attempt("s1", "e1", False),
            _hint("s1", "e1"),
            _attempt("s2", "e1", True),
        ]
        summaries = aggregate(events)
        assert len(summaries) == 2
        s1 = summaries[0]
        assert (s1.student_id, s1.exercise_id) == ("s1", "e1")
        assert (s1.n_attempts, s1.n_correct, s1.n_wrong, s1.n_hints) == (3, 1, 2, 1)
        assert s1.r == pytest.approx(1 / 3)

    def test_two_hints_single_attempt(self):
        # more hints than attempts is legitimate activity
        events = [_hint("s1", "e1"), _hint("s1", "e1"), _attempt("s1", "e1", True)]
        (summary,) = aggregate(events)
        assert summary.n_hints == 2
        assert summary.n_attempts == 1

    def test_hint_only_pair_has_undefined_r(self):
        (summary,) = aggregate([_hint("s1", "e1")])
        assert summary.n_attempts == 0
        assert summary.r is None

    def test_six_of_nine_attempts(self):
        events = [_attempt("s1", "e1", i < 6) for i in range(9)]
        (summary,) = aggregate(events)
        assert summary.r == pytest.approx(6 / 9)

    def test_module_conflict_resolves_to_smallest(self):
        events = [
            _attempt("s1", "e1", True, module="m2"),
            _attempt("s1", "e1", True, module="m1"),
        ]
        (summary,) = aggregate(events)
        assert summary.module_id == "m1"

    def test_sorted_output(self):
        events = [_attempt("s2", "e1", True), _attempt("s1", "e2", True), _attempt("s1", "e1", True)]
        keys = [(s.student_id, s.exercise_id) for s in aggregate(events)]
        assert keys == sorted(keys)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2", "s3"]),
            st.sampled_from(["e1", "e2"]),
            st.sampled_from(["attempt-true", "attempt-false", "hint"]),
        ),
        max_size=30,
    ),
    st.randoms(),
)
def test_aggregate_permutation_invariant(rows, rnd):
    def build(seq):
        out = []
        for sid, eid, kind in seq:
            if kind == "hint":
                out.append(_hint(sid, eid))
            else:
                out.append(_attempt(sid, eid, kind.endswith("true")))
        return out

    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert aggregate(build(rows)) == aggregate(build(shuffled))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2"]),
            st.sampled_from(["e1", "e2", "e3"]),
            st.booleans(),
        ),
        max_size=25,
    )
)
def test_aggregate_count_identity(rows):
    events = [_attempt(sid, eid, ok) for sid, eid, ok in rows]
    for s in aggregate(events):
        assert s.n_correct + s.n_wrong == s.n_attempts


class TestValidate:
    def test_clean_log(self):
        report = validate_log(parse_event_log(SAMPLE).events)
        assert report.ok
        assert report.n_events == 4
        assert report.n_students == 2
        assert report.n_exercises == 1
        assert report.n_attempt_events == 3
        assert report.n_hint_events == 1

    def test_empty_log_warns(self):
        report = validate_log([])
        assert report.ok
        assert report.warnings

    def test_invariant_violations(self):
        # an event no log may hold cannot be built, so validate_log never sees one
        ts = parse_timestamp("2020-09-01T10:00:00Z")
        cases = [
            (("s1", "e1", "m1", ts, EventKind.ATTEMPT, None), "attempt row lacks a correct value"),
            (("s1", "e1", "m1", ts, EventKind.HINT, True), "hint row carries a correct value"),
            (("", "e1", "m1", ts, EventKind.ATTEMPT, True), "empty student_id"),
            (("s1", "", "m1", ts, EventKind.HINT, None), "empty exercise_id"),
            (("s1", "e1", "m1", ts, "hint", True), "hint row carries a correct value"),
            (("s1", "e1", "m1", ts, "pageview", None), "unknown kind 'pageview'"),
        ]
        for fields, reason in cases:
            with pytest.raises(ValueError) as exc:
                InteractionEvent(*fields)
            assert str(exc.value) == reason

    def test_plain_string_kind_is_its_member(self):
        ts = parse_timestamp("2020-09-01T10:00:00Z")
        events = [
            InteractionEvent("s1", "e1", "m1", ts, "attempt", True),
            InteractionEvent("s1", "e1", "m1", ts, "hint"),
        ]
        assert [ev.kind for ev in events] == [EventKind.ATTEMPT, EventKind.HINT]
        (summary,) = aggregate(events)
        assert (summary.n_attempts, summary.n_correct, summary.n_hints) == (1, 1, 1)
        report = validate_log(events)
        assert report.ok and (report.n_attempt_events, report.n_hint_events) == (1, 1)

    def test_report_dict_schema(self):
        d = validate_log([]).to_dict()
        assert d["schema_version"] == 1
        assert set(d) >= {"n_events", "n_students", "violations", "warnings", "ok"}


class TestRoundTrips:
    def test_csv_round_trip(self):
        events = parse_event_log(SAMPLE).events
        again = parse_event_log(events_to_csv(events))
        assert again.ok
        assert again.events == events

    def test_jsonl_round_trip(self):
        events = parse_event_log(SAMPLE).events
        again = parse_event_log(_jsonl(events), fmt="jsonl")
        assert again.ok
        assert again.events == events

    def test_read_event_log_infers_format(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text(SAMPLE)
        assert len(read_event_log(csv_path).events) == 4
        jsonl_path = tmp_path / "log.jsonl"
        jsonl_path.write_text(_jsonl(parse_event_log(SAMPLE).events))
        assert len(read_event_log(jsonl_path).events) == 4
        with pytest.raises(ValueError):
            read_event_log(tmp_path / "log.parquet")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(UnreadableStream):
            read_event_log(tmp_path / "absent.csv")
