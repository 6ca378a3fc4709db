import numpy as np
import pytest
from hypothesis import given, strategies as st

from itemlens.events import StudentExerciseSummary
from itemlens.response import (
    MISSING,
    ResponseMatrix,
    UnmappedExercise,
    build_matrices,
    dichotomize,
)


def _summary(sid, eid, attempts=0, correct=0, hints=0, module="m1"):
    return StudentExerciseSummary(
        student_id=sid,
        exercise_id=eid,
        module_id=module,
        n_attempts=attempts,
        n_correct=correct,
        n_wrong=attempts - correct,
        n_hints=hints,
    )


class TestDichotomize:
    def test_threshold_is_inclusive(self):
        assert dichotomize(0.70) == 1
        assert dichotomize(0.699) == 0

    def test_extremes(self):
        assert dichotomize(0.0) == 0
        assert dichotomize(1.0) == 1

    def test_custom_threshold(self):
        assert dichotomize(0.5, threshold=0.5) == 1
        assert dichotomize(0.499, threshold=0.5) == 0

    def test_ratio_validated(self):
        with pytest.raises(ValueError):
            dichotomize(-0.1)
        with pytest.raises(ValueError):
            dichotomize(1.1)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            dichotomize(0.5, threshold=0.0)
        with pytest.raises(ValueError):
            dichotomize(0.5, threshold=1.5)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_monotone_in_ratio(self, r1, r2, threshold):
        lo, hi = sorted((r1, r2))
        assert dichotomize(lo, threshold) <= dichotomize(hi, threshold)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_antitone_in_threshold(self, r, t1, t2):
        lo, hi = sorted((t1, t2))
        assert dichotomize(r, hi) <= dichotomize(r, lo)


class TestResponseMatrix:
    def _matrix(self):
        cells = np.array([[1, 0, MISSING], [1, 1, 0]], dtype=np.int8)
        return ResponseMatrix("g", ["s1", "s2"], ["a", "b", "c"], cells)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            ResponseMatrix("g", ["s1"], ["a", "b"], np.zeros((2, 2), dtype=np.int8))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ResponseMatrix("g", ["s1", "s1"], ["a"], np.zeros((2, 1), dtype=np.int8))
        with pytest.raises(ValueError):
            ResponseMatrix("g", ["s1"], ["a", "a"], np.zeros((1, 2), dtype=np.int8))

    def test_observed_mask_and_count(self):
        m = self._matrix()
        assert m.n_observed() == 5
        assert m.observed().tolist() == [[True, True, False], [True, True, True]]

    def test_degenerate_items(self):
        cells = np.array(
            [[1, 0, MISSING, 0], [1, 1, MISSING, 0], [1, 0, MISSING, 1]], dtype=np.int8
        )
        m = ResponseMatrix("g", ["s1", "s2", "s3"], ["allone", "mixed", "empty", "mixed2"], cells)
        assert m.degenerate_items() == ["allone", "empty"]

    @given(st.data())
    def test_degenerate_items_match_column_loop(self, data):
        n_students = data.draw(st.integers(min_value=0, max_value=6))
        n_items = data.draw(st.integers(min_value=0, max_value=6))
        cells = np.array(
            data.draw(
                st.lists(
                    st.lists(st.sampled_from([MISSING, 0, 1]), min_size=n_items, max_size=n_items),
                    min_size=n_students,
                    max_size=n_students,
                )
            ),
            dtype=np.int8,
        ).reshape(n_students, n_items)
        for j in data.draw(st.sets(st.integers(min_value=0, max_value=max(0, n_items - 1)))):
            if j < n_items:
                cells[:, j] = MISSING
        items = [f"i{j}" for j in reversed(range(n_items))]  # column order, not sorted order
        m = ResponseMatrix("g", [f"s{i}" for i in range(n_students)], items, cells)
        expected = []
        for j, item_id in enumerate(m.item_ids):
            col = m.cells[m.observed()[:, j], j]
            if col.size == 0 or np.all(col == col[0]):
                expected.append(item_id)
        assert m.degenerate_items() == expected

    def test_drop_items(self):
        m = self._matrix().drop_items(["b"])
        assert m.item_ids == ["a", "c"]
        assert m.cells.tolist() == [[1, MISSING], [1, 0]]

    def test_csv_missing_rendered_na(self):
        assert "NA" in self._matrix().to_csv()


class TestBuildMatrices:
    def test_module_fallback_grouping(self):
        summaries = [
            _summary("s1", "e1", attempts=1, correct=1, module="mA"),
            _summary("s1", "e2", attempts=1, correct=0, module="mB"),
        ]
        result = build_matrices(summaries)
        assert [m.group_id for m in result.matrices] == ["mA", "mB"]

    def test_explicit_mapping_with_default(self):
        summaries = [
            _summary("s1", "e1", attempts=1, correct=1),
            _summary("s1", "e2", attempts=1, correct=0),
        ]
        result = build_matrices(summaries, grouping={"e1": "gX"}, default_group="rest")
        assert sorted(m.group_id for m in result.matrices) == ["gX", "rest"]

    def test_unmapped_without_default_raises(self):
        summaries = [_summary("s1", "e1", attempts=1, correct=1)]
        with pytest.raises(UnmappedExercise):
            build_matrices(summaries, grouping={})

    def test_threshold_applied(self):
        summaries = [_summary("s1", "e1", attempts=10, correct=7)]
        assert build_matrices(summaries).matrices[0].cells[0, 0] == 1
        assert build_matrices(summaries, threshold=0.71).matrices[0].cells[0, 0] == 0

    def test_hint_only_cell_is_missing(self):
        summaries = [
            _summary("s1", "e1", attempts=1, correct=1),
            _summary("s1", "e2", hints=3),
        ]
        m = build_matrices(summaries).matrices[0]
        assert m.cells[0, m.item_ids.index("e2")] == MISSING

    def test_student_with_no_attempts_omitted(self):
        summaries = [
            _summary("s1", "e1", attempts=1, correct=1),
            _summary("s2", "e1", hints=5),
        ]
        m = build_matrices(summaries).matrices[0]
        assert m.student_ids == ["s1"]

    def test_empty_group_skipped_and_warned(self):
        summaries = [
            _summary("s1", "e1", attempts=1, correct=1, module="mA"),
            _summary("s2", "e2", hints=1, module="mB"),
        ]
        result = build_matrices(summaries)
        assert [m.group_id for m in result.matrices] == ["mA"]
        assert result.skipped_groups == ["mB"]
        assert any("mB" in w for w in result.warnings)

    def test_ids_sorted_regardless_of_input_order(self):
        summaries = [
            _summary("s2", "e2", attempts=1, correct=1),
            _summary("s1", "e1", attempts=1, correct=0),
            _summary("s2", "e1", attempts=2, correct=2),
        ]
        m = build_matrices(summaries).matrices[0]
        assert m.student_ids == ["s1", "s2"]
        assert m.item_ids == ["e1", "e2"]
        assert m.cells.tolist() == [[0, MISSING], [1, 1]]


_GROUPS = ["g0", "g1", "rest"]
_RAW_SUMMARY = st.tuples(
    st.sampled_from(["s0", "s1", "s10", "s2", "s 3"]),  # student
    st.sampled_from(["e0", "e1", "e10", "e2", "e,3"]),  # exercise
    st.sampled_from(["m1", "m0", "m 2"]),  # module
    st.integers(min_value=0, max_value=5),  # attempts
    st.integers(min_value=0, max_value=5),  # correct (clamped)
    st.integers(min_value=0, max_value=2),  # hints
)


@given(
    raw=st.lists(_RAW_SUMMARY, max_size=25, unique_by=lambda t: t[:2]),
    grouping=st.none() | st.dictionaries(st.sampled_from(["e0", "e1", "e10", "e2", "e,3"]), st.sampled_from(_GROUPS)),
    default_group=st.none() | st.sampled_from(_GROUPS),
    threshold=st.sampled_from([0.5, 0.6, 0.75, 1.0]) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_matrices_match_recount(raw, grouping, default_group, threshold):
    raw = [(s, e, m, a, min(c, a), h) for s, e, m, a, c, h in raw if a or h]  # aggregate never makes an empty pair
    summaries = [_summary(s, e, attempts=a, correct=c, hints=h, module=m) for s, e, m, a, c, h in raw]
    # with no map each pair's module is its group
    group_of_pair = {(s, e): m if grouping is None else grouping.get(e, default_group) for s, e, m, *_ in raw}
    if None in group_of_pair.values():
        with pytest.raises(UnmappedExercise):
            build_matrices(summaries, grouping=grouping, threshold=threshold, default_group=default_group)
        return
    expected, skipped = [], []
    for group in sorted(set(group_of_pair.values())):
        pairs = [t for t in raw if group_of_pair[t[0], t[1]] == group]
        students = sorted({s for s, _, _, a, _, _ in pairs if a})
        items = sorted({e for _, e, *_ in pairs})
        if not students:
            skipped.append(group)
            continue
        score = {(s, e): 1 if c / a >= threshold else 0 for s, e, _, a, c, _ in pairs if a}
        cells = [[score.get((s, e), MISSING) for e in items] for s in students]  # a hint-only pair is MISSING
        expected.append((group, students, items, cells))
    result = build_matrices(summaries, grouping=grouping, threshold=threshold, default_group=default_group)
    got = [(m.group_id, m.student_ids, m.item_ids, m.cells.tolist()) for m in result.matrices]
    assert got == expected
    assert result.skipped_groups == skipped
    assert result.warnings == [f"group {g!r} has no observed responses; skipped" for g in skipped]
