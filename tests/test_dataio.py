import re

import numpy as np
import pytest

from paircluster import Assignment, read_csv, validate_dataset, write_csv
from paircluster.errors import (
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
    ParseError,
)
from helpers import paired_rows


def _write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


def test_minimal_file_parses(tmp_path):
    path = _write(
        tmp_path,
        "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,0.0\np2,c,0,1.0\np2,d,1,1.0\n",
    )
    data, assignment = read_csv(path)
    assert data.P == 2
    assert assignment.totals(data) == (2, 2)


def test_blank_lines_and_whitespace_tolerated(tmp_path):
    path = _write(
        tmp_path,
        "pair_id, unit_id, treatment, outcome\n"
        "p1, a, 1, 2.5\n"
        "\n"
        "p1, b, 0, 0.25\n"
        "\n",
    )
    data, _ = read_csv(path)
    assert data.n_total == 2
    assert data.outcomes[0] == 2.5


def test_bad_header(tmp_path):
    path = _write(tmp_path, "pair,unit,w,y\np1,a,1,2.0\n")
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert err.value.line == 1


def test_wrong_field_count(tmp_path):
    path = _write(tmp_path, "pair_id,unit_id,treatment,outcome\np1,a,1\n")
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert err.value.line == 2


def test_nonnumeric_outcome_and_nonfinite(tmp_path):
    path = _write(tmp_path, "pair_id,unit_id,treatment,outcome\np1,a,1,abc\n")
    with pytest.raises(ParseError):
        read_csv(path)
    path2 = _write(tmp_path, "pair_id,unit_id,treatment,outcome\np1,a,1,nan\n")
    with pytest.raises(ParseError):
        read_csv(path2)


def test_header_only_is_empty(tmp_path):
    path = _write(tmp_path, "pair_id,unit_id,treatment,outcome\n")
    with pytest.raises(EmptyInput):
        read_csv(path)
    with pytest.raises(EmptyInput):
        read_csv(_write(tmp_path, ""))


def test_scattered_unit_rows_aggregate():
    rows = [
        ("p1", "a", 1, 1.0),
        ("p1", "b", 0, 5.0),
        ("p2", "c", 1, 7.0),
        ("p1", "a", 1, 3.0),
        ("p2", "d", 0, 7.0),
        ("p1", "a", 1, 2.0),
    ]
    data, _ = validate_dataset(rows)
    assert data.unit_ids[0] == "a"
    assert data.unit_sizes[0] == 3
    assert np.array_equal(data.outcomes[:3], [1.0, 3.0, 2.0])
    assert data.unit_means[0] == 2.0


def test_assignment_rejects_nonbinary():
    with pytest.raises(NonBinaryTreatment):
        Assignment([2])
    with pytest.raises(NonBinaryTreatment):
        Assignment([0.5])
    with pytest.raises(NonBinaryTreatment):
        Assignment(["1"])
    assert Assignment([1, 0.0, True]).treated.tolist() == [True, False, True]


def test_write_preserves_full_precision(tmp_path):
    value = 0.1 + 0.2  # not exactly representable in decimal
    rows = [("p1", "a", 1, value), ("p1", "b", 0, -1e-17)]
    data, assignment = validate_dataset(rows)
    path = tmp_path / "roundtrip.csv"
    write_csv(path, data, assignment)
    data2, _ = read_csv(path)
    assert data2.outcomes[0] == value
    assert data2.outcomes[1] == -1e-17


def _messy_csv(rows, rng):
    """CSV text of ``rows`` with blank lines, padded fields and quoted ids."""
    lines = ["pair_id , unit_id,treatment, outcome"]
    for pair_id, unit_id, w, y in rows:
        if rng.random() < 0.2:
            lines.append(" " if rng.random() < 0.5 else "")
        lines.append(f'" {pair_id} ","  {unit_id}\t", {w} ,{y!r}  ')
    return "\n".join(lines) + "\n"


def test_read_csv_matches_validate_dataset_on_messy_rows(tmp_path):
    rng = np.random.default_rng(17)
    sizes = rng.integers(1, 5, size=(12, 2))
    rows = [
        (f"p,{p[1:]}", f"unit {u}, x", w, y) for p, u, w, y in paired_rows(rng, sizes)
    ]
    rng.shuffle(rows)
    path = _write(tmp_path, _messy_csv(rows, rng))
    data, assignment = read_csv(path)
    expected_data, expected_assignment = validate_dataset(rows)
    assert data == expected_data
    assert assignment == expected_assignment
    assert data.pair_ids[0] == "p,0000"
    assert data.unit_ids[0] == "unit u0, x"


BAD_ROWS = [
    ("p2,c,x,1.0", "treatment 'x' is not an integer"),
    ("p2,c,1.5,1.0", "treatment '1.5' is not an integer"),
    ("p2,c,1, abc ", "outcome 'abc' is not a number"),
    ("p2,c,1,nan", "outcome 'nan' is not finite"),
    ("p2,c,1,-inf", "outcome '-inf' is not finite"),
    ("p2,c,1", "expected 4 fields, got 3"),
]


@pytest.mark.parametrize("bad, message", BAD_ROWS)
def test_parse_error_line_after_blank_lines(tmp_path, bad, message):
    lines = ["pair_id,unit_id,treatment,outcome", "p1,a,1,2.0", "", "  ", "p1,b,0,0.5", "",
             bad, "p2,d,0,1.0", "p3,e,q,1.0", "p3,f", ""]
    with pytest.raises(ParseError) as err:
        read_csv(_write(tmp_path, "\n".join(lines)))
    assert err.value.line == 7
    assert str(err.value) == f"line 7: {message}"


def test_first_bad_row_wins_across_checks(tmp_path):
    header = "pair_id,unit_id,treatment,outcome\n"
    text = header + "p1,a,1,2.0\n\np1,b,0,zz\np1,c\np1,d,y,1\n"
    with pytest.raises(ParseError, match="line 4: outcome 'zz'") as err:
        read_csv(_write(tmp_path, text))
    assert err.value.line == 4


def test_oversized_field_is_a_parse_error(tmp_path):
    text = "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\n\np1,b,0," + "1" * 200_000 + "\n"
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        read_csv(_write(tmp_path, text))
    assert err.value.line == 4


def test_non_utf8_file_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.csv"
    text = "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,1.0\np\u00e9,c,0,1\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        read_csv(path)
    assert err.value.line == 4


def test_csv_validation_errors_name_the_unit(tmp_path):
    header = "pair_id,unit_id,treatment,outcome\n"
    for treatment in ("2", "99999999999999999999999"):
        text = header + f"p1,a,1,2.0\np1,b,{treatment},0.0\n"
        message = f"treatment must be 0 or 1, got {int(treatment)!r} (unit 'b' in pair 'p1')"
        with pytest.raises(NonBinaryTreatment, match=re.escape(message)):
            read_csv(_write(tmp_path, text))
    text = header + "p1,a,1,2.0\np1,b,0,0.0\np1,a,0,1.0\n"
    with pytest.raises(MixedTreatmentWithinUnit, match="unit 'a' in pair 'p1'"):
        read_csv(_write(tmp_path, text))


@pytest.mark.parametrize(
    "value", [True, 1, 1.0, np.bool_(True), np.int64(1), np.float64(1.0)]
)
def test_validate_dataset_accepts_binary_values(value):
    _, assignment = validate_dataset([("p1", "a", value, 1.0), ("p1", "b", 0, 0.0)])
    assert assignment.treated.tolist() == [True, False]


@pytest.mark.parametrize("value", ["1", 2, 0.5, -1, None, float("nan")])
def test_validate_dataset_rejects_other_values(value):
    message = f"treatment must be 0 or 1, got {value!r} (unit 'a' in pair 'p1')"
    with pytest.raises(NonBinaryTreatment, match=re.escape(message)):
        validate_dataset([("p1", "b", 0, 0.0), ("p1", "a", value, 1.0)])


def test_validate_dataset_reports_the_first_bad_row():
    mixed_first = [("p1", "a", 1, 1.0), ("p1", "a", 0, 1.0), ("p1", "b", 2, 0.0)]
    with pytest.raises(MixedTreatmentWithinUnit):
        validate_dataset(mixed_first)
    binary_first = [("p1", "b", 2, 0.0), ("p1", "a", 1, 1.0), ("p1", "a", 0, 1.0)]
    with pytest.raises(NonBinaryTreatment, match="got 2"):
        validate_dataset(binary_first)


def test_padded_ids_round_trip(tmp_path):
    # " p2" sorts before "p1" unless stripped; both paths must strip alike
    rows = [(" p2", "a ", 1, 1.0), (" p2", "\tb", 0, 2.0), ("p1", " c", 1, 3.0), ("p1", "d", 0, 4.0)]
    data, assignment = validate_dataset(rows)
    assert data.pair_ids.tolist() == ["p1", "p2"]
    assert data.unit_ids.tolist() == ["c", "d", "a", "b"]
    path = tmp_path / "padded.csv"
    write_csv(path, data, assignment)
    assert read_csv(path) == (data, assignment)
    with pytest.raises(MixedTreatmentWithinUnit, match="unit 'a' in pair 'p1'"):
        validate_dataset([("p1", "a", 1, 1.0), ("p1", " a", 0, 2.0), ("p1", "b", 0, 3.0)])


def test_byte_order_mark_is_skipped(tmp_path):
    text = "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,0.0\np2,a,0,1.5\np2,b,1,1.0\n"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_csv(marked) == read_csv(_write(tmp_path, text))
