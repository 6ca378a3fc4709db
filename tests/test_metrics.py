from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from itemlens.events import StudentExerciseSummary
from itemlens.metrics import (
    METRICS,
    POOLING_DIVERGENCE_LIMIT,
    Band,
    ExerciseMetrics,
    NoActivity,
    NoAttempts,
    NoParticipants,
    OutOfRange,
    UndefinedRatio,
    build_metrics_table,
    correct_ratio,
    difficulty_level,
    exercise_metrics,
    hint_ratio,
    incorrect_ratio,
    quartile_band,
)
from itemlens.tables import from_json, read_csv


def _summary(sid="s1", eid="e1", attempts=0, correct=0, hints=0, module="m1"):
    return StudentExerciseSummary(
        student_id=sid,
        exercise_id=eid,
        module_id=module,
        n_attempts=attempts,
        n_correct=correct,
        n_wrong=attempts - correct,
        n_hints=hints,
    )


class TestCorrectRatio:
    def test_six_of_nine(self):
        assert correct_ratio(_summary(attempts=9, correct=6)) == pytest.approx(6 / 9)

    def test_no_attempts_is_undefined(self):
        with pytest.raises(UndefinedRatio):
            correct_ratio(_summary(hints=2))


class TestDifficultyLevel:
    def test_mean_incorrectness(self):
        group = [
            _summary("s1", attempts=2, correct=2),  # r = 1
            _summary("s2", attempts=2, correct=1),  # r = 0.5
        ]
        assert difficulty_level(group) == pytest.approx(0.25)

    def test_skips_hint_only_students(self):
        group = [_summary("s1", attempts=1, correct=0), _summary("s2", hints=3)]
        assert difficulty_level(group) == 1.0

    def test_no_participants(self):
        with pytest.raises(NoParticipants):
            difficulty_level([_summary(hints=1)])

    def test_exact_rational_arithmetic(self):
        # thirds and sevenths: float summation would drift, Fractions do not
        group = [
            _summary("s1", attempts=3, correct=1),
            _summary("s2", attempts=7, correct=2),
            _summary("s3", attempts=21, correct=13),
        ]
        expected = Fraction(2, 3) + Fraction(5, 7) + Fraction(8, 21)
        assert difficulty_level(group) == float(expected / 3)


class TestHintRatio:
    def test_two_hints_one_attempt(self):
        assert hint_ratio([_summary(attempts=1, correct=1, hints=2)]) == pytest.approx(2 / 3)

    def test_pooled_sums_counts_first(self):
        group = [
            _summary("s1", attempts=1, correct=0, hints=1),
            _summary("s2", attempts=9, correct=5, hints=0),
        ]
        assert hint_ratio(group) == 1 / 11

    def test_per_student_averages_ratios(self):
        group = [
            _summary("s1", attempts=1, correct=0, hints=1),
            _summary("s2", attempts=9, correct=5, hints=0),
        ]
        assert hint_ratio(group, per_student=True) == pytest.approx(0.25)

    def test_no_activity(self):
        with pytest.raises(NoActivity):
            hint_ratio([_summary()])

    def test_zero_hints(self):
        assert hint_ratio([_summary(attempts=4, correct=2)]) == 0.0


class TestIncorrectRatio:
    def test_pooled(self):
        group = [
            _summary("s1", attempts=4, correct=1),
            _summary("s2", attempts=2, correct=2),
        ]
        assert incorrect_ratio(group) == 3 / 6

    def test_per_student(self):
        group = [
            _summary("s1", attempts=4, correct=1),
            _summary("s2", attempts=2, correct=2),
        ]
        assert incorrect_ratio(group, per_student=True) == pytest.approx(0.375)

    def test_no_attempts(self):
        with pytest.raises(NoAttempts):
            incorrect_ratio([_summary(hints=2)])


class TestQuartileBand:
    @pytest.mark.parametrize(
        "dl,band",
        [
            (0.50, Band.Q4),
            (0.25, Band.Q3),
            (0.15, Band.Q2),
            (0.05, Band.Q1),
            (0.0, Band.Q1),
            (1.0, Band.Q4),
        ],
    )
    def test_probe_points(self, dl, band):
        assert quartile_band(dl) is band

    def test_boundaries_resolve_upward(self):
        # shared endpoints in the published ranges go to the higher band
        assert quartile_band(0.12) is Band.Q2
        assert quartile_band(0.21) is Band.Q3
        assert quartile_band(0.34) is Band.Q3
        assert quartile_band(0.34 + 1e-9) is Band.Q4

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            quartile_band(-0.01)
        with pytest.raises(OutOfRange):
            quartile_band(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_total_on_unit_interval(self, dl):
        band = quartile_band(dl)
        if dl > 0.34:
            assert band is Band.Q4
        elif dl >= 0.21:
            assert band is Band.Q3
        elif dl >= 0.12:
            assert band is Band.Q2
        else:
            assert band is Band.Q1


class TestExerciseMetrics:
    def test_full_row(self):
        group = [
            _summary("s1", attempts=2, correct=1, hints=1),
            _summary("s2", attempts=3, correct=3),
        ]
        row = exercise_metrics("e1", group)
        assert row.n_students == 2
        assert row.dl == pytest.approx(0.25)
        assert row.hr == pytest.approx(1 / 6)
        assert row.ir == pytest.approx(1 / 5)
        assert row.band is Band.Q3

    def test_hint_only_exercise(self):
        row = exercise_metrics("e1", [_summary(hints=4)])
        assert row.n_students == 0
        assert row.dl is None and row.ir is None and row.band is None
        assert row.hr == 1.0

    def test_module_conflict_minimum(self):
        group = [_summary("s1", attempts=1, correct=1, module="mB"), _summary("s2", attempts=1, correct=1, module="mA")]
        assert exercise_metrics("e1", group).module_id == "mA"


class TestMetricsTable:
    def _table(self):
        summaries = [
            _summary("s1", "easy", attempts=2, correct=2),
            _summary("s2", "easy", attempts=4, correct=3, hints=1),
            _summary("s1", "hard", attempts=5, correct=1, hints=3),
            _summary("s3", "hintonly", hints=2),
        ]
        return build_metrics_table(summaries)

    def test_rows_sorted_by_exercise(self):
        table = self._table()
        assert [r.exercise_id for r in table.rows] == ["easy", "hard", "hintonly"]

    def test_hint_only_warned(self):
        table = self._table()
        assert any("hintonly" in w for w in table.warnings)

    def test_pooling_divergence_warned(self):
        summaries = [
            _summary("s1", attempts=1, correct=0, hints=1),
            _summary("s2", attempts=9, correct=5),
        ]
        table = build_metrics_table(summaries)
        assert any("pooling" in w for w in table.warnings)

    def test_csv_round_trip(self):
        table = self._table()
        rows = read_csv(METRICS, table.to_csv())
        assert [r.exercise_id for r in rows] == [r.exercise_id for r in table.rows]
        by_id = {r.exercise_id: r for r in rows}
        assert by_id["hintonly"].dl is None
        assert by_id["hintonly"].band is None
        assert by_id["easy"].dl == pytest.approx(self._table().rows[0].dl, abs=5e-5)

    def test_dict_round_trip(self):
        table = self._table()
        data = table.to_dict()
        assert data["schema_version"] == 1
        rows = from_json(METRICS, data)
        assert rows == table.rows

    def test_csv_header_checked(self):
        with pytest.raises(ValueError):
            read_csv(METRICS, "a,b\n1,2\n")


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # students indexed below
            st.integers(min_value=0, max_value=2),  # exercises indexed below
            st.integers(min_value=0, max_value=12),  # attempts
            st.integers(min_value=0, max_value=12),  # correct (clamped)
            st.integers(min_value=0, max_value=5),  # hints
        ),
        min_size=1,
        max_size=24,
    )
)
def test_metrics_match_rational_recount(raw):
    seen = set()
    summaries = []
    for sidx, eidx, attempts, correct, hints in raw:
        if (sidx, eidx) in seen:
            continue
        seen.add((sidx, eidx))
        correct = min(correct, attempts)
        if attempts == 0 and hints == 0:
            continue
        summaries.append(_summary(f"s{sidx}", f"e{eidx}", attempts=attempts, correct=correct, hints=hints))
    rows, warnings = [], []
    for eid in sorted({s.exercise_id for s in summaries}):
        group = [s for s in summaries if s.exercise_id == eid]
        attempting = [s for s in group if s.n_attempts > 0]
        hints = sum(s.n_hints for s in group)
        total = sum(s.n_attempts for s in group)
        wrong = sum(s.n_wrong for s in group)
        # pooled hr and ir: single integer divisions
        hr = hints / (hints + total)
        assert hint_ratio(group) == hr
        if not attempting:
            rows.append(ExerciseMetrics(eid, "m1", 0, None, hr, None, None))
            warnings.append(f"{eid}: hint-only exercise, dl/ir undefined")
            continue
        ir = wrong / total
        assert incorrect_ratio(group) == ir
        # dl, per-student ir and per-student hr: one exact rational per student, compared bit for bit
        dl = float(sum(Fraction(s.n_wrong, s.n_attempts) for s in attempting) / len(attempting))
        assert difficulty_level(group) == dl
        assert incorrect_ratio(group, per_student=True) == dl
        hr_each = float(sum(Fraction(s.n_hints, s.n_hints + s.n_attempts) for s in group) / len(group))
        assert hint_ratio(group, per_student=True) == hr_each
        rows.append(ExerciseMetrics(eid, "m1", len(attempting), dl, hr, ir, quartile_band(dl)))
        for name, pooled, per_student in (("hr", hr, hr_each), ("ir", ir, dl)):
            gap = abs(per_student - pooled)
            if gap > POOLING_DIVERGENCE_LIMIT:
                warnings.append(f"{eid}: {name} pooling choice matters (pooled vs per-student differ by {gap:.4f})")
    table = build_metrics_table(summaries)
    assert table.rows == rows
    assert table.warnings == warnings
