import csv
import io
import math
import os
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paircluster import Assignment, read_csv, validate_dataset, write_csv
from paircluster import dataio
from paircluster.dataio import CSV_HEADER
from paircluster.errors import (
    DataError,
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
    ParseError,
)
from oracles import totals
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
    assert totals(data, assignment) == (2, 2)


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


def test_oversized_finite_outcome_and_id_are_parse_errors(tmp_path):
    head = "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\n\n"
    for row in ("p1,b,0,0." + "1" * 200_000, "p" * 200_000 + ",b,0,1.0"):
        with pytest.raises(ParseError, match="field larger than field limit") as err:
            read_csv(_write(tmp_path, head + row + "\n"))
        assert err.value.line == 4


def test_oversized_field_over_several_lines_is_a_parse_error(tmp_path):
    # Every line is short; the quoted pair id spans 2,000 of them.
    long_id = "\n".join(["x" * 99] * 2000)
    text = f'pair_id,unit_id,treatment,outcome\n"{long_id}",a,1,2.0\n"{long_id}",b,0,1.0\n'
    path = _write(tmp_path, text)
    expected = _oracle(path)
    assert "field larger than field limit" in str(expected)
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert (str(err.value), err.value.line) == (str(expected), expected.line)


@pytest.mark.parametrize("pair_id", ["p\n1", "p\r\n1", 'p"\n"1', "p,\n1"])
def test_quoted_line_breaks_read_as_validate_dataset(tmp_path, pair_id):
    rows = [(pair_id, "a", 1, 2.0), (pair_id, "b", 0, 1.0), ("p2", "a", 0, 3.0), ("p2", "b", 1, 0.5)]
    path = tmp_path / "quoted.csv"
    write_csv(path, *validate_dataset(rows))
    assert read_csv(path) == validate_dataset(rows)


_HEAD = "pair_id,unit_id,treatment,outcome\n"


def _ending_first_chunk(tail):
    """Rows, then ``tail`` as the last bytes of the first 1 MB the scan reads."""
    fill = (1 << 20) - len(_HEAD) - len(tail)
    return "p0,b,0,1.0\n" * (fill // 11 - 1) + "p0,b,0," + "1" * (fill % 11 + 3) + "\n" + tail


@pytest.mark.parametrize("row, differs", [
    ('"p,1",a,1,2.0', False),  # a quoted comma stays on the fast path
    ('"p""1",a,1,2.0', False),
    ('"p\n1",a,1,2.0', True),
    ('"p\r1",a,1,2.0', True),
    ('"p"1",a,1,2.0', True),
    ('p"1,"a\nb",1,2.0', True),  # a quote inside an unquoted field shifts the count
    # the next chunk's line breaks have no quote of their own
    pytest.param(_ending_first_chunk('"p'), True, id="open-quote-ends-chunk"),
])
def test_scan_finds_line_breaks_inside_quotes(tmp_path, row, differs):
    path = tmp_path / "scan.csv"
    path.write_bytes(f"{_HEAD}{row}\np1,b,0,1.0\n".encode())
    assert dataio._numpy_may_differ(path) is differs


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
def test_header_only_is_empty_without_warnings(tmp_path, body):
    path = _write(tmp_path, "pair_id,unit_id,treatment,outcome\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EmptyInput, match="no data rows"):
            read_csv(path)
    assert caught == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_read_once(tmp_path):
    text = "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,0.5\n"
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    result = []
    reader = threading.Thread(target=lambda: result.append(read_csv(fifo)), daemon=True)
    reader.start()
    fifo.write_text(text)  # waits for the reader to open the pipe
    reader.join(timeout=30)
    if reader.is_alive():  # it opened the pipe again: end that read with an empty writer
        fifo.write_text("")
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert result == [read_csv(_write(tmp_path, text))]


# Differential test: read_csv against the csv module row by row.  Each file is
# a valid dataset written with awkward texts, plus at most two flaws: a text
# or a line that numpy's tokenizer and Python's int/float read differently,
# or a byte that is not UTF-8.
PAIR_IDS = ["p1", " p1", "p2 ", "p#3", "p,4", 'p"5', "p\n6", "#"]
TREATED_UNITS = ["a", " a", "u,1", 'u"2']
CONTROL_UNITS = ["b", "b\t", "u\r\n3", "c#"]
TREATED = ["1", "+1", " 1 ", "01"]
CONTROL = ["0", " 0 ", "00", "-0"]
OUTCOMES = ["1.5", " -2 ", "1e3", ".5", "-0.0"]
FLAWS = {
    2: ["1.0", "2", "1_0", "\x1f1", "x"],  # treatment
    3: ["1_000", "\u0661", "\x1e2", "nan", "inf", "-Infinity", "x", ""],  # outcome
    None: [" ", "\t", '""', "p1,a,1", "p1,a,1,2,"],  # a line of its own
}


@st.composite
def _lines(draw):
    """Data lines: a treated and a control row per pair, blank lines and flaws."""
    rows = []
    for pair_id in draw(st.lists(st.sampled_from(PAIR_IDS), min_size=1, max_size=4)):
        for units, texts in ((TREATED_UNITS, TREATED), (CONTROL_UNITS, CONTROL)):
            outcome = draw(st.one_of(st.sampled_from(OUTCOMES), st.floats(-1e6, 1e6).map(repr)))
            rows.append([pair_id, draw(st.sampled_from(units)), draw(st.sampled_from(texts)),
                         outcome])
    quoted = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    other_lines = [""] * draw(st.integers(0, 2))
    for column in draw(st.lists(st.sampled_from(list(FLAWS)), max_size=2)):
        text = draw(st.sampled_from(FLAWS[column]))
        if column is None:
            other_lines.append(text)
        else:
            rows[draw(st.integers(0, len(rows) - 1))][column] = text
    lines = [",".join(_render(f, q) for f in row) for row, q in zip(rows, quoted)]
    return draw(st.permutations(lines + other_lines))


def _render(field, quote):
    if quote or any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _oracle(path):
    """read_csv's result for ``path``: csv-module records converted row by row."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")  # error offsets are the file's
    except UnicodeDecodeError as exc:  # a small file is decoded before its first row is read
        return ParseError(f"not UTF-8 text ({exc.reason})", line=raw.count(b"\n", 0, exc.start) + 1)
    records = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = next(records, None)
        if header is None:
            return EmptyInput(f"{path}: file is empty")
        if [h.strip() for h in header] != CSV_HEADER:
            got = ",".join(header)
            return ParseError(f"expected header {','.join(CSV_HEADER)!r}, got {got!r}", line=1)
        for line, record in enumerate(records, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != 4:
                return ParseError(f"expected 4 fields, got {len(record)}", line=line)
            pair_id, unit_id, w_text, y_text = record
            try:
                w = int(w_text)
            except ValueError:
                return ParseError(f"treatment {w_text.strip()!r} is not an integer", line=line)
            try:
                y = float(y_text)
            except ValueError:
                return ParseError(f"outcome {y_text.strip()!r} is not a number", line=line)
            if not math.isfinite(y):
                return ParseError(f"outcome {y_text.strip()!r} is not finite", line=line)
            rows.append((pair_id, unit_id, w, y))
    except csv.Error as exc:
        return ParseError(str(exc), line=records.line_num)
    if not rows:
        return EmptyInput(f"{path}: no data rows")
    try:
        return validate_dataset(rows)
    except DataError as exc:
        return exc


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(lines=_lines(), bom=st.booleans(), crlf=st.booleans(),
       bad_byte=st.one_of(st.none(), st.none(), st.none(), st.integers(0, 1000)))
def test_read_csv_reads_as_the_csv_module(tmp_path, lines, bom, crlf, bad_byte):
    eol = "\r\n" if crlf else "\n"
    raw = (("\ufeff" if bom else "") + eol.join([",".join(CSV_HEADER)] + lines) + eol).encode()
    if bad_byte is not None:
        at = bad_byte % (len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    path = tmp_path / "case.csv"
    path.write_bytes(raw)
    expected = _oracle(path)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            read_csv(path)
        assert str(err.value) == str(expected)
        assert getattr(err.value, "line", None) == getattr(expected, "line", None)
    else:
        assert read_csv(path) == expected
