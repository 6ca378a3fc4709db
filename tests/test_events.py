import io
import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from itemlens.events import (
    EventKind,
    InteractionEvent,
    UnreadableStream,
    aggregate,
    events_to_csv,
    events_to_jsonl,
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

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            parse_event_log(SAMPLE, fmt="xml")


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
        text = json.dumps(good) + "\n" + json.dumps({**good, "student_id": value}) + "\n"
        parsed = parse_event_log(text, fmt="jsonl")
        if isinstance(value, int) and not isinstance(value, bool):
            assert parsed.ok
            assert parsed.events[1].student_id == str(value)
        else:
            assert len(parsed.events) == 1
            assert [p.line for p in parsed.problems] == [2]
            assert "student_id" in parsed.problems[0].reason


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
        bad = [
            InteractionEvent("s1", "e1", "m1", parse_timestamp("2020-09-01T10:00:00Z"), EventKind.ATTEMPT, None),
            InteractionEvent("s1", "e1", "m1", parse_timestamp("2020-09-01T10:00:00Z"), EventKind.HINT, True),
            InteractionEvent("", "e1", "m1", parse_timestamp("2020-09-01T10:00:00Z"), EventKind.ATTEMPT, True),
        ]
        report = validate_log(bad)
        assert not report.ok
        assert len(report.violations) == 3
        assert report.to_dict()["ok"] is False

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
        again = parse_event_log(events_to_jsonl(events), fmt="jsonl")
        assert again.ok
        assert again.events == events

    def test_read_event_log_infers_format(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        csv_path.write_text(SAMPLE)
        assert len(read_event_log(csv_path).events) == 4
        jsonl_path = tmp_path / "log.jsonl"
        jsonl_path.write_text(events_to_jsonl(parse_event_log(SAMPLE).events))
        assert len(read_event_log(jsonl_path).events) == 4
        with pytest.raises(ValueError):
            read_event_log(tmp_path / "log.parquet")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(UnreadableStream):
            read_event_log(tmp_path / "absent.csv")
