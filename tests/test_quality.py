import pytest
from hypothesis import given, strategies as st

from itemlens.irt import ItemParameters
from itemlens.metrics import Band, ExerciseMetrics
from itemlens.quality import (
    REPORT,
    DifficultyLabel,
    DiscriminationLabel,
    IdMismatch,
    PoorReason,
    QualityVerdict,
    Verdict,
    classify_quality,
    difficulty_label,
    discrimination_label,
    quality_report,
)

# published course items used as anchor cases: (id, a, b, dl)
ANCHOR_ITEMS = [
    ("AlistRemovePROp", -0.4715, 6.72, 0.83),
    ("CompareTF-MCQ5p", 0.1614, -2.24, 0.19),
    ("SelSortPROp", 0.0496, -34.98, 0.76),
    ("BTSummaryQuestionsp", -0.0303, 2.20, 0.70),
    ("BSTremovePRO", 0.3297, -0.20, 0.60),
    ("binarySearchPRO", -0.3379, 8.02, 0.88),
]

DISC_RANK = {
    DiscriminationLabel.NONE: 0,
    DiscriminationLabel.VERY_LOW: 1,
    DiscriminationLabel.LOW: 2,
    DiscriminationLabel.MODERATE: 3,
    DiscriminationLabel.HIGH: 4,
    DiscriminationLabel.VERY_HIGH: 5,
}
DIFF_RANK = {DifficultyLabel.EASY: 0, DifficultyLabel.MEDIUM: 1, DifficultyLabel.HARD: 2}


class TestDiscriminationLabel:
    @pytest.mark.parametrize(
        "a,label,flag",
        [
            (-0.4715, DiscriminationLabel.NONE, True),
            (-0.0303, DiscriminationLabel.NONE, True),
            (0.0, DiscriminationLabel.NONE, False),
            (0.0496, DiscriminationLabel.VERY_LOW, False),
            (0.1614, DiscriminationLabel.VERY_LOW, False),
            (0.3297, DiscriminationLabel.VERY_LOW, False),
            (0.5, DiscriminationLabel.LOW, False),
            (1.0, DiscriminationLabel.MODERATE, False),
            (1.5, DiscriminationLabel.HIGH, False),
            (2.4, DiscriminationLabel.VERY_HIGH, False),
        ],
    )
    def test_anchor_values(self, a, label, flag):
        assert discrimination_label(a) == (label, flag)

    def test_half_open_edges(self):
        # each cut belongs to the interval above it
        assert discrimination_label(0.01)[0] is DiscriminationLabel.VERY_LOW
        assert discrimination_label(0.35)[0] is DiscriminationLabel.LOW
        assert discrimination_label(0.65)[0] is DiscriminationLabel.MODERATE
        assert discrimination_label(1.35)[0] is DiscriminationLabel.HIGH
        assert discrimination_label(1.70)[0] is DiscriminationLabel.VERY_HIGH
        assert discrimination_label(0.009999)[0] is DiscriminationLabel.NONE

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    def test_total_and_flag_matches_sign(self, a):
        label, flag = discrimination_label(a)
        assert label in DISC_RANK
        assert flag is (a < 0)

    @given(
        st.floats(min_value=-20, max_value=20, allow_nan=False),
        st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    def test_rank_monotone_in_a(self, a, bump):
        lo, _ = discrimination_label(a)
        hi, _ = discrimination_label(a + bump)
        assert DISC_RANK[lo] <= DISC_RANK[hi]


class TestDifficultyLabel:
    @pytest.mark.parametrize(
        "b,label",
        [
            (6.72, DifficultyLabel.HARD),
            (2.20, DifficultyLabel.HARD),
            (8.02, DifficultyLabel.HARD),
            (1.01, DifficultyLabel.HARD),
            (1.0, DifficultyLabel.MEDIUM),
            (0.0, DifficultyLabel.MEDIUM),
            (-1.0, DifficultyLabel.MEDIUM),
            (-1.01, DifficultyLabel.EASY),
            (-2.24, DifficultyLabel.EASY),
            (-34.98, DifficultyLabel.EASY),
        ],
    )
    def test_symmetric_cut(self, b, label):
        assert difficulty_label(b) is label

    def test_compat_widens_easy(self):
        # legacy table labels every negative-b item easy
        assert difficulty_label(-0.20) is DifficultyLabel.MEDIUM
        assert difficulty_label(-0.20, table2_compat=True) is DifficultyLabel.EASY
        assert difficulty_label(0.0, table2_compat=True) is DifficultyLabel.MEDIUM
        assert difficulty_label(1.5, table2_compat=True) is DifficultyLabel.HARD

    @given(
        st.floats(min_value=-40, max_value=40, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.booleans(),
    )
    def test_rank_monotone_in_b(self, b, bump, compat):
        lo = difficulty_label(b, table2_compat=compat)
        hi = difficulty_label(b + bump, table2_compat=compat)
        assert DIFF_RANK[lo] <= DIFF_RANK[hi]


class TestClassifyQuality:
    def test_all_anchor_items_poor_under_compat(self):
        for item_id, a, b, _ in ANCHOR_ITEMS:
            v = classify_quality(ItemParameters(item_id, a, b), table2_compat=True)
            assert v.verdict is Verdict.POOR, item_id

    def test_anchor_reasons_under_compat(self):
        by_id = {
            item_id: classify_quality(ItemParameters(item_id, a, b), table2_compat=True)
            for item_id, a, b, _ in ANCHOR_ITEMS
        }
        assert by_id["AlistRemovePROp"].reasons == (PoorReason.NEGATIVE_DISCRIMINATION,)
        assert by_id["BTSummaryQuestionsp"].reasons == (PoorReason.NEGATIVE_DISCRIMINATION,)
        assert by_id["binarySearchPRO"].reasons == (PoorReason.NEGATIVE_DISCRIMINATION,)
        assert by_id["CompareTF-MCQ5p"].reasons == (PoorReason.LOW_DISCRIMINATION_EASY_ITEM,)
        assert by_id["SelSortPROp"].reasons == (PoorReason.LOW_DISCRIMINATION_EASY_ITEM,)
        assert by_id["BSTremovePRO"].reasons == (PoorReason.LOW_DISCRIMINATION_EASY_ITEM,)

    def test_strict_cut_flips_only_the_borderline_item(self):
        flips = []
        for item_id, a, b, _ in ANCHOR_ITEMS:
            strict = classify_quality(ItemParameters(item_id, a, b))
            if strict.verdict is Verdict.GOOD:
                flips.append(item_id)
                assert strict.difficulty_label is DifficultyLabel.MEDIUM
        assert flips == ["BSTremovePRO"]

    def test_good_item(self):
        v = classify_quality(ItemParameters("ok", 1.2, 0.4))
        assert v.verdict is Verdict.GOOD
        assert v.reasons == ()
        assert v.discrimination_label is DiscriminationLabel.MODERATE

    def test_low_discrimination_needs_easy(self):
        # very low slope on a hard item is not the stated poor pattern
        v = classify_quality(ItemParameters("hardish", 0.05, 2.0))
        assert v.verdict is Verdict.GOOD

    def test_degenerate_reason(self):
        v = classify_quality(ItemParameters("flat", 1.0, -50.0, degenerate=True))
        assert v.verdict is Verdict.POOR
        assert PoorReason.DEGENERATE in v.reasons

    def test_reason_order_is_stable(self):
        v = classify_quality(
            ItemParameters("worst", -0.2, -30.0, degenerate=True), table2_compat=True
        )
        assert v.reasons == (PoorReason.NEGATIVE_DISCRIMINATION, PoorReason.DEGENERATE)

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.booleans(),
        st.booleans(),
    )
    def test_verdict_iff_reasons(self, a, b, degenerate, compat):
        v = classify_quality(
            ItemParameters("x", a, b, degenerate=degenerate), table2_compat=compat
        )
        assert (v.verdict is Verdict.POOR) == bool(v.reasons)
        if PoorReason.LOW_DISCRIMINATION_EASY_ITEM in v.reasons:
            assert a >= 0
            assert v.difficulty_label is DifficultyLabel.EASY
            assert v.discrimination_label in (
                DiscriminationLabel.NONE,
                DiscriminationLabel.VERY_LOW,
            )
        if degenerate:
            assert v.verdict is Verdict.POOR


def _metric(eid, dl, module="m1"):
    return ExerciseMetrics(
        exercise_id=eid, module_id=module, n_students=25, dl=dl, hr=0.1, ir=0.4, band=Band.Q3
    )


def _pair(eid, a=1.0, b=0.0, compat=False):
    p = ItemParameters(eid, a, b)
    return classify_quality(p, table2_compat=compat), p


class TestQualityReport:
    def _inputs(self):
        verdicts, params = [], []
        for eid, a, b in [("w", 1.0, 0.2), ("x", 0.05, -2.0), ("y", -0.3, 4.0), ("z", 1.8, 0.0)]:
            v, p = _pair(eid, a, b)
            verdicts.append(v)
            params.append(p)
        metrics = [_metric("w", 0.40), _metric("x", 0.70), _metric("z", 0.40)]
        return verdicts, metrics, params

    def test_sorted_by_dl_desc_then_id_missing_last(self):
        verdicts, metrics, params = self._inputs()
        report = quality_report(verdicts, metrics, params)
        assert [r.item_id for r in report.rows] == ["x", "w", "z", "y"]

    def test_missing_metrics_blank_and_warned(self):
        verdicts, metrics, params = self._inputs()
        report = quality_report(verdicts, metrics, params)
        row = {r.item_id: r for r in report.rows}["y"]
        assert row.dl is None and row.hr is None and row.band is None
        assert any("'y'" in w for w in report.warnings)

    def test_extra_metrics_warned(self):
        verdicts, metrics, params = self._inputs()
        metrics = metrics + [_metric("stranger", 0.5)]
        report = quality_report(verdicts, metrics, params)
        assert any("stranger" in w for w in report.warnings)

    def test_id_mismatch_raises(self):
        verdicts, metrics, params = self._inputs()
        with pytest.raises(IdMismatch):
            quality_report(verdicts[:-1], metrics, params)

    def test_duplicate_ids_raise(self):
        verdicts, metrics, params = self._inputs()
        with pytest.raises(IdMismatch):
            quality_report(verdicts + [verdicts[0]], metrics, params + [params[0]])

    def test_summary_counts(self):
        verdicts, metrics, params = self._inputs()
        report = quality_report(verdicts, metrics, params)
        assert report.summary["n_items"] == 4
        assert report.summary["n_good"] == 2  # w and z
        assert report.summary["n_poor"] == 2  # x (low disc easy) and y (negative)
        assert report.summary["poor_by_reason"] == {
            "LowDiscriminationEasyItem": 1,
            "NegativeDiscrimination": 1,
        }
        assert report.summary["table2_compat"] is False

    def test_csv_shape(self):
        verdicts, metrics, params = self._inputs()
        text = quality_report(verdicts, metrics, params).to_csv()
        lines = text.splitlines()
        assert lines[0] == ",".join(REPORT.header)
        data_lines = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data_lines) == 4
        x_line = next(ln for ln in data_lines if ln.startswith("x,"))
        assert ",0.7000," in x_line  # four-decimal metric formatting
        assert "LowDiscriminationEasyItem" in x_line
        assert any(ln.startswith("#") for ln in lines[1:])  # notes ride along

    def test_dict_shape(self):
        verdicts, metrics, params = self._inputs()
        data = quality_report(verdicts, metrics, params).to_dict()
        assert data["schema_version"] == 1
        assert len(data["rows"]) == 4
        assert data["summary"]["n_items"] == 4

    def test_anchor_table_end_to_end(self):
        verdicts, params, metrics = [], [], []
        for item_id, a, b, dl in ANCHOR_ITEMS:
            v, p = _pair(item_id, a, b, compat=True)
            verdicts.append(v)
            params.append(p)
            metrics.append(_metric(item_id, dl))
        report = quality_report(verdicts, metrics, params, table2_compat=True)
        assert report.summary["n_poor"] == 6
        assert report.summary["table2_compat"] is True
        # ranked by observed difficulty: binarySearchPRO tops the table
        assert report.rows[0].item_id == "binarySearchPRO"
        assert isinstance(report.rows[0], type(report.rows[-1]))
        assert all(isinstance(v, QualityVerdict) for v in verdicts)
