import pytest
from hypothesis import given, strategies as st

from itemlens.irt import PARAMS, ItemParameters
from itemlens.metrics import METRICS, Band, ExerciseMetrics
from itemlens.tables import from_json, read_csv, read_rows, to_json, write_csv

finite = st.floats(allow_nan=False, allow_infinity=False)
# four-decimal values: metrics CSV keeps four decimals, so only these survive it exactly
four_decimals = st.integers(min_value=0, max_value=10_000).map(lambda k: k / 10_000)

item_params = st.builds(
    ItemParameters,
    item_id=st.text(),
    a=finite,
    b=finite,
    se_a=st.none() | finite,
    se_b=st.none() | finite,
    degenerate=st.booleans(),
)
exercise_metrics = st.builds(
    ExerciseMetrics,
    exercise_id=st.text(),
    module_id=st.text(),
    n_students=st.integers(min_value=0, max_value=10**9),
    dl=st.none() | four_decimals,
    hr=four_decimals,
    ir=st.none() | four_decimals,
    band=st.none() | st.sampled_from(Band),
)


@given(st.lists(item_params), st.lists(st.text()))
def test_params_csv_round_trip(rows, notes):
    notes = [n for n in notes if "\n" not in n and "\r" not in n]
    assert read_csv(PARAMS, write_csv(PARAMS, rows, notes)) == rows


@given(st.lists(exercise_metrics))
def test_metrics_csv_round_trip(rows):
    assert read_csv(METRICS, write_csv(METRICS, rows, ["a note"])) == rows


@given(st.lists(item_params), st.lists(exercise_metrics))
def test_json_round_trip(params, metrics):
    assert from_json(PARAMS, to_json(PARAMS, params)) == params
    assert from_json(METRICS, to_json(METRICS, metrics)) == metrics


def test_quoting_is_standard():
    text = write_csv(PARAMS, [ItemParameters('ex,"a" b', 1.0, 0.5)])
    assert text.splitlines()[1] == '"ex,""a"" b",1.0,0.5,,,false'


def test_leading_hash_id_is_not_a_note():
    rows = [ItemParameters("#x", 1.0, 0.5)]
    text = write_csv(PARAMS, rows, ["a note"])
    assert text.splitlines()[1].startswith('"#x"')
    assert read_csv(PARAMS, text) == rows


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "header mismatch"),
        ("a,b\n1,2\n", "header mismatch"),
        ("item_id,a,b,se_a,se_b,degenerate\nx,1.0,0.5,,\n", "line 2: expected 6 fields, got 5"),
        ("item_id,a,b,se_a,se_b,degenerate\n# n\nx,1.0,oops,,,false\n", "line 3, b:"),
        ("item_id,a,b,se_a,se_b,degenerate\nx,1.0,0.5,,,maybe\n", "degenerate: expected true or false"),
    ],
)
def test_bad_csv_raises_value_error(text, match):
    with pytest.raises(ValueError, match=match):
        read_csv(PARAMS, text)


def test_unreadable_csv_raises_value_error():
    # an unterminated quote swallows the rest of the text, past csv's field size limit
    text = 'item_id,a,b,se_a,se_b,degenerate\n"' + "x" * 200_000
    with pytest.raises(ValueError, match="malformed CSV"):
        read_csv(PARAMS, text)
    with pytest.raises(ValueError, match="malformed CSV"):
        list(read_rows(text))


@pytest.mark.parametrize(
    "data",
    [[], {}, {"items": [1]}, {"items": [{"item_id": "x", "a": 1.0}]}, {"items": [{"item_id": "x", "a": "q"}]}],
)
def test_bad_json_raises_value_error(data):
    with pytest.raises(ValueError, match="bad items JSON"):
        from_json(PARAMS, data)
