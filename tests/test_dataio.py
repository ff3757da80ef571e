import bz2
import contextlib
import csv
import gzip
import io
import lzma
import math
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from paircluster import Assignment, read_csv, validate_dataset, write_csv
from paircluster import dataio
from paircluster.dataio import CSV_HEADER
from paircluster.errors import (
    DataError,
    DegeneratePair,
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
    ParseError,
)
from oracles import sorted_codes, totals
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
    assert data.outcomes[: data.unit_sizes[0]].mean() == 2.0


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


def test_parse_error_names_the_line_after_quoted_line_breaks(tmp_path):
    text = 'pair_id,unit_id,treatment,outcome\n"p\n1",a,1,1.0\n"p\n1",b,0,2.0\np2,c,1,x\n'
    with pytest.raises(ParseError, match="line 6: outcome 'x' is not a number") as err:
        read_csv(_write(tmp_path, text))
    assert err.value.line == 6


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


@pytest.mark.parametrize("row, message", [
    (("p1", "b", 0), "expected 4 fields per row, got ('p1', 'b', 0)"),
    (None, "expected 4 fields per row, got None"),
    (7, "expected 4 fields per row, got 7"),
    (("p1", "b", 0, "x"), "outcome 'x' is not a number (row 1)"),
    (("p1", "b", 0, None), "outcome None is not a number (row 1)"),
    (("p1", "b", 0, float("nan")), "unit 'b' has non-finite outcomes"),
    (("p1", "b", 0, float("inf")), "unit 'b' has non-finite outcomes"),
], ids=["3-fields", "none-row", "int-row", "text-outcome", "none-outcome", "nan-outcome",
        "inf-outcome"])
def test_validate_dataset_raises_data_errors_on_malformed_rows(row, message):
    with pytest.raises(DataError) as err:
        validate_dataset([("p1", "a", 1, 1.0), row])
    assert str(err.value) == message


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
    assert (dataio._scan(path) is None) is differs


def test_scan_finds_a_character_split_around_an_ascii_chunk(tmp_path):
    # The first 1 MB ends with a lead byte, the next is ASCII, and the one
    # after starts with the two bytes that would complete the character.
    first = (_HEAD + _ending_first_chunk("p")).encode()[:-1] + b"\xe3"
    second = (b",b,0,1.0\n" + b"p1,b,0,1.0\n" * (1 << 17))[:1 << 20]
    path = tmp_path / "split.csv"
    path.write_bytes(first + second + b"\x81\x82,b,0,1.0\n")
    assert dataio._scan(path) is None
    path.write_bytes(first + b"\x81\x82" + second + b"\n")
    assert dataio._scan(path) is not None
    path.write_bytes(first)  # the file ends inside the character
    assert dataio._scan(path) is None


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


def _through_pipe(tmp_path, raw):
    """What read_csv returns or raises for ``raw`` written through a named pipe."""
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    result = []
    reader = threading.Thread(target=lambda: result.append(_raised(read_csv, fifo)), daemon=True)
    reader.start()
    fifo.write_bytes(raw)
    reader.join(timeout=30)
    assert not reader.is_alive()
    return result[0]


def _cr_file_with_a_bad_byte_at_a_chunk_boundary():
    """20,001 lines ending in a lone \r, the last one starting with p and 0xff at byte 2**18,
    a chunk boundary for any power-of-two chunk size up to that."""
    header = b"pair_id,unit_id,treatment,outcome"
    rows = [b"p%d,%s,%d,1." % (k // 2, b"ab"[k % 2 : k % 2 + 1], k % 2) for k in range(19_999)]
    pad, n = divmod(2**18 - len(b"\r".join([header] + rows) + b"\r"), len(rows))
    rows = [row + b"0" * (pad + (k < n)) for k, row in enumerate(rows)]
    head = b"\r".join([header] + rows) + b"\r"
    assert len(head) == 2**18
    return head + b"p\xff,d,1,1.0\r"


# A bad outcome on line 3, then a byte that is not UTF-8 on line 5.
BAD_OUTCOME_THEN_BAD_BYTE = (b"pair_id,unit_id,treatment,outcome\np1,a,1,1.0\np1,b,0,x\n"
                             b"p2,c,1,1.0\np2,d,0,\xff\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_non_utf8_byte_in_a_named_pipe_names_its_line(tmp_path):
    raw = b"pair_id,unit_id,treatment,outcome\rp1,a,1,2.0\rp1,b,0,1.0\rp\xff,c,0,1\r"
    error = _through_pipe(tmp_path, raw)
    assert (type(error), error.line) == (ParseError, 4)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("raw, line", [
    (BAD_OUTCOME_THEN_BAD_BYTE, 5),
    (_cr_file_with_a_bad_byte_at_a_chunk_boundary(), 20_001),
], ids=["after-a-bad-row", "after-a-lone-cr-ending-a-chunk"])
def test_non_utf8_byte_in_a_named_pipe_is_decoded_first(tmp_path, raw, line):
    error = _through_pipe(tmp_path, raw)
    message = f"line {line}: not UTF-8 text (invalid start byte)"
    assert (type(error), str(error)) == (ParseError, message)


def _raised(f, *args):
    try:
        f(*args)
    except Exception as exc:
        return exc


# Differential test: read_csv against the csv module row by row.  Each file is
# a valid dataset written with awkward texts, plus at most two flaws: a text
# or a line that numpy's tokenizer and Python's int/float read differently,
# a byte that is not UTF-8, or an id holding a NUL.
PAIR_IDS = ["p1", " p1", "p2 ", "p#3", "p,4", 'p"5', "p\n6", "#",
            "pà", "p\xa0", "ペア7", "p\U0001F600", "pair0008", "pair00009"]
TREATED_UNITS = ["a", " a", "u,1", 'u"2', "Å", "unit0008", "unit00009"]
CONTROL_UNITS = ["b", "b\t", "u\r\n3", "c#", "\xa0х", "ctrl0008", "ctrl00009"]
TREATED = ["1", "+1", " 1 ", "01"]
CONTROL = ["0", " 0 ", "00", "-0"]
OUTCOMES = ["1.5", " -2 ", "1e3", ".5", "-0.0"]
FLAWS = {
    0: ["p\x00", "\x00"],  # pair id
    1: ["a\x00b"],  # unit id
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
        head = raw[: exc.start]  # \r\n, a lone \r and a lone \n each end a line
        line = 1 + len(re.findall(rb"\r\n?|\n", head))
        return ParseError(f"not UTF-8 text ({exc.reason})", line=line)
    records = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        header = next(records, None)
        if header is None:
            return EmptyInput(f"{path}: file is empty")
        if [h.strip() for h in header] != CSV_HEADER:
            got = ",".join(header)
            return ParseError(f"expected header {','.join(CSV_HEADER)!r}, got {got!r}", line=1)
        end = records.line_num  # the line the last record read ends on
        for record in records:
            line, end = end + 1, records.line_num  # the line the record starts on
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != 4:
                return ParseError(f"expected 4 fields, got {len(record)}", line=line)
            pair_id, unit_id, w_text, y_text = record
            for kind, text in (("pair", pair_id), ("unit", unit_id)):
                if "\x00" in text:
                    return ParseError(f"{kind} id {text!r} contains a NUL character", line=line)
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
@given(lines=_lines(), bom=st.booleans(), eol=st.sampled_from(["\n", "\r\n", "\r"]),
       bad_byte=st.one_of(st.none(), st.none(), st.none(), st.integers(0, 1000)))
def test_read_csv_reads_as_the_csv_module(tmp_path, lines, bom, eol, bad_byte):
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


def _fallbacks(patch):
    """The paths read_csv hands to the csv pass from now on."""
    paths, read_columns = [], dataio._read_columns
    patch.setattr(dataio, "_read_columns", lambda path: paths.append(path) or read_columns(path))
    return paths


def _benchmark_shaped_rows(rng):
    """Shuffled rows like the benchmark's: ids p%06d and u%07d, outcomes near 1e3."""
    rows = [(f"p{int(p[1:]):06d}", f"u{2 * int(p[1:]) + int(u[1:]):07d}", w, 1e3 + y)
            for p, u, w, y in paired_rows(rng, rng.integers(1, 5, size=(40, 2)))]
    return [rows[k] for k in rng.permutation(len(rows))]


def _non_ascii_rows(rng):
    names = {"ペア": ["あ", "い"], "pé": ["Å", "à"], "p\U0001F600": ["х", "\U0001D538"]}
    rows = [(pair, f" {unit}\xa0", w, float(rng.normal()))
            for pair, units in names.items() for unit, w in zip(units, (1, 0))]
    return rows + [(" pé", "Å", 1, 2.5), ("ペア\t", "い", 0, -1.0)]


@pytest.mark.parametrize("make_rows, encoding", [(_benchmark_shaped_rows, "utf-8"),
                                                 (_non_ascii_rows, "utf-8-sig")])
def test_typical_files_stay_on_the_fast_path(tmp_path, monkeypatch, make_rows, encoding):
    rows = make_rows(np.random.default_rng(8))
    path = tmp_path / "fast.csv"
    with open(path, "w", newline="", encoding=encoding) as handle:
        csv.writer(handle).writerows([CSV_HEADER] + rows)
    fallbacks = _fallbacks(monkeypatch)
    assert read_csv(path) == validate_dataset(rows)
    assert fallbacks == []


def test_id_over_64_bytes_reads_through_the_fallback(tmp_path, monkeypatch):
    long_id = "é" * 32 + "x"  # 65 bytes: wider than any S field of the fast path
    rows = [(long_id, "a", 1, 2.0), (long_id, "b", 0, 1.0), ("p2", "a", 0, 3.0), ("p2", "b", 1, 0.5)]
    path = tmp_path / "long.csv"
    write_csv(path, *validate_dataset(rows))
    fallbacks = _fallbacks(monkeypatch)
    assert read_csv(path) == validate_dataset(rows)
    assert fallbacks == [path]


# The header (33 bytes) is the longest line; the widest pair id has 12 bytes,
# the widest unit id 10, and the header's own fields 7.
WIDTH_ROWS = [("p0000001", "u0000001", 1, 2.0), ("p0000001", "ünit00005", 0, 1.0),
              ("pair0000002x", "u2", 0, 3.0), ("pair0000002x", "u3", 1, 0.5)]


def _width_file(tmp_path, eol, quote=""):
    lines = [",".join(CSV_HEADER)] + [f"{quote}{p}{quote},{u},{w},{y}" for p, u, w, y in WIDTH_ROWS]
    path = tmp_path / "widths.csv"
    path.write_bytes((eol.join(lines) + eol).encode())
    return path, max(len(line.encode()) for line in lines)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_id_fields_are_as_wide_as_their_widest_ids(tmp_path, eol):
    path, _ = _width_file(tmp_path, eol)
    table = dataio._load_table(path)
    assert (table.dtype["pair"].itemsize, table.dtype["unit"].itemsize) == (12, 10)
    assert read_csv(path) == validate_dataset(WIDTH_ROWS)


@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("wide_first", [True, False])
@pytest.mark.parametrize("split", [0, 1, 13, 14, 15, 16, 30, -2, -1])
def test_id_widths_carry_across_chunks(tmp_path, eol, wide_first, split):
    # The first 1 MB the scan reads ends ``split`` bytes into the first of two rows.
    wide, narrow = "pair0000000003,unit000000000004,0,1.0", "pair000000001,u00000000002,1,2.0"
    first, second = (wide, narrow) if wide_first else (narrow, wide)
    first += eol
    path = tmp_path / "chunks.csv"
    path.write_bytes((_HEAD + _ending_first_chunk(first[:split]) + first[split:] + second).encode())
    assert dataio._scan(path)[1:] == (14, 16)


def test_a_long_line_across_chunks_stays_on_the_fast_path(tmp_path):
    # A 100 KiB outcome, under the csv field size limit, straddles the end of the first 1 MB.
    wide, long = "pair0000000003,unit000000000004,0,1.0", "p1,u1,1,2." + "0" * 100_000
    path = tmp_path / "long.csv"
    text = _HEAD + _ending_first_chunk(long[:50_000]) + long[50_000:] + "\n" + wide + "\n"
    path.write_bytes(text.encode())
    assert dataio._scan(path) == (len(long), 14, 16)
    table = dataio._load_table(path)
    assert (table.dtype["pair"].itemsize, table.dtype["unit"].itemsize) == (14, 16)
    assert table["outcome"][-2:].tolist() == [2.0, 1.0]


def test_a_last_line_without_a_line_break_across_chunks(tmp_path):
    # The last line starts in the first 1 MB and has no line break, so the last
    # 512 KiB block the scan reads holds none: the file ends as if one followed.
    long = "p0,a,1,2." + "0" * 100_000
    text = _HEAD + _ending_first_chunk(long[:50_000]) + long[50_000:]
    ended, unended = tmp_path / "ended.csv", tmp_path / "unended.csv"
    ended.write_bytes((text + "\n").encode())
    unended.write_bytes(text.encode())
    assert dataio._scan(unended) == dataio._scan(ended) == (len(long), 7, 7)  # the header's
    assert read_csv(unended) == read_csv(ended)


def test_a_file_with_a_quoted_id_gets_the_line_width(tmp_path):
    path, longest = _width_file(tmp_path, "\n", quote='"')  # a quoted id may hold a comma
    assert longest == len(",".join(CSV_HEADER))
    table = dataio._load_table(path)
    assert (table.dtype["pair"].itemsize, table.dtype["unit"].itemsize) == (longest, longest)
    assert read_csv(path) == validate_dataset(WIDTH_ROWS)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_text_with_a_compressed_suffix_reads_as_plain_text(tmp_path, suffix):
    # numpy, given a path, picks a decompressor from the suffix
    plain = _write(tmp_path, "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,0.5\n")
    named = tmp_path / f"x.csv{suffix}"
    named.write_bytes(plain.read_bytes())
    assert read_csv(named) == read_csv(plain)


@pytest.mark.parametrize("suffix, compress", [
    (".gz", lambda raw: gzip.compress(raw, mtime=0)),
    (".bz2", bz2.compress),
    (".xz", lzma.compress),
    (".lzma", lambda raw: lzma.compress(raw, format=lzma.FORMAT_ALONE)),
])
def test_compressed_file_is_the_csv_module_error(tmp_path, suffix, compress):
    path = tmp_path / f"x.csv{suffix}"
    path.write_bytes(compress(b"pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,0,0.5\n"))
    expected = _oracle(path)
    assert isinstance(expected, ParseError)
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert (str(err.value), err.value.line) == (str(expected), expected.line)


@pytest.mark.parametrize("tail", [
    b"p\xff,c,0,1.0\n",  # not a UTF-8 byte
    b"p\xc3,c,0,1.0\n",  # a character cut short
    b"p\xed\xa0\x80,c,0,1.0\n",  # an encoded surrogate
    b"p\xe3\x81\x82\xe3\x81,c,0,1.0\n",  # a character cut short after a whole one
    b"p3,c,0,\xa01.0\n",  # numpy would strip 0xa0 from the number read as Latin-1
    b"p3,c,0,1.0\np\xe3\x81",  # the file ends inside a character
])
def test_invalid_utf8_is_the_csv_module_error(tmp_path, tail):
    head = b"pair_id,unit_id,treatment,outcome\n" + b"p1,a,1,2.0\np1,b,0,1.0\n" * 3000
    path = tmp_path / "bad.csv"
    path.write_bytes(head + tail)
    expected = _oracle(path)
    assert "not UTF-8 text" in str(expected)
    with pytest.raises(ParseError) as err:
        read_csv(path)
    assert (str(err.value), err.value.line) == (str(expected), expected.line)


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
def test_non_utf8_byte_names_its_line_for_any_line_end(tmp_path, eol):
    path = tmp_path / "bad.csv"
    lines = [b"pair_id,unit_id,treatment,outcome", b"p1,a,1,2.0", b"p1,b,0,1.0", b"p2,c,0,1.0"]
    path.write_bytes(eol.join(lines + [b"p\xff,d,1,1.0"]) + eol)
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        read_csv(path)
    assert err.value.line == 5


def test_non_utf8_byte_after_a_lone_cr_that_ends_a_chunk(tmp_path):
    raw = _cr_file_with_a_bad_byte_at_a_chunk_boundary()
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match="not UTF-8 text") as err:
        read_csv(path)
    assert err.value.line == 20_001
    path.write_bytes(raw.replace(b"p0,a,0,", b"p0,a,x,", 1))
    with pytest.raises(ParseError, match="line 20001: not UTF-8 text"):  # the file is decoded first
        read_csv(path)


def test_non_utf8_byte_wins_over_an_earlier_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(BAD_OUTCOME_THEN_BAD_BYTE)
    with pytest.raises(ParseError, match="line 5: not UTF-8 text"):
        read_csv(path)


def test_header_padded_with_no_break_spaces(tmp_path):
    text = "\xa0pair_id,unit_id\xa0,treatment,outcome\np1,a,1,2.0\np1,b,0,0.5\n"
    plain = text.replace("\xa0", "")
    assert read_csv(_write(tmp_path, text)) == read_csv(_write(tmp_path, plain))


def test_nul_in_an_id_is_a_data_error(tmp_path):
    rows = [("p1", "a", 1, 2.0), ("p1", "a\x00", 0, 1.0)]  # an S array would read both as "a"
    message = "unit id 'a\\x00' contains a NUL character"
    with pytest.raises(DataError, match=re.escape(message)):
        validate_dataset(rows)
    text = "".join(f"{p},{u},{w},{y}\n" for p, u, w, y in rows)
    with pytest.raises(ParseError) as err:
        read_csv(_write(tmp_path, "pair_id,unit_id,treatment,outcome\n\n" + text))
    assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)
    with pytest.raises(ParseError, match="line 3: outcome 'x'"):  # an earlier bad row wins
        read_csv(_write(tmp_path, "pair_id,unit_id,treatment,outcome\np0,a,1,1\np0,b,0,x\n" + text))
    for later in ("p2,c,1\n", "p2,c,1," + "1" * 200_000 + "\n"):  # a later bad row loses
        with pytest.raises(ParseError, match=re.escape(f"line 3: {message}")):
            read_csv(_write(tmp_path, "pair_id,unit_id,treatment,outcome\n" + text + later))


# Ranking: read_csv (fast path and fallback) and validate_dataset against the
# dict-based oracle, over ids whose UTF-8 spans one, two or more 8-byte words.
ID_CHARS = ["a", "Z", "0", "~", "#", ",", '"', "é", "à", "Å", "ÿ", "中", "ペ",
            "\U0001F600", "\U0001D538"]
ID_PADS = ["", " ", "\t", "\xa0"]
ID_BYTES = [7, 8, 9, 16, 17, 64, 65]


@st.composite
def _id_columns(draw):
    """Pair and unit columns drawn from a few ids of the given UTF-8 lengths, some padded."""
    ids = []
    for size in draw(st.lists(st.sampled_from(ID_BYTES), min_size=1, max_size=4)):
        text = ""
        for char in draw(st.lists(st.sampled_from(ID_CHARS), max_size=size)):
            if len((text + char).encode()) > size:
                break
            text += char
        ids.append(text + "x" * (size - len(text.encode())))
    padded = st.builds(lambda left, text, right: left + text + right,
                       st.sampled_from(ID_PADS), st.sampled_from(ids), st.sampled_from(ID_PADS))
    n = draw(st.integers(1, 12))
    return (draw(st.lists(padded, min_size=n, max_size=n)),
            draw(st.lists(padded, min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_id_columns())
# one word whose 64 bits all vary, more than a digit holds; a leading word shared by every
# row, with later words that order the ids differently; a column of one id
@example(columns=(["éaaaaa0", "baaaaaa1", "éaaaaa1", "baaaaaa0"], ["0", "~", "0", "0"]))
@example(columns=(["shared:-aaaaaaaaZ", "shared:-aaaaaaabA", "shared:-aaaaaaaaA", "shared:-bé"],
                  ["unit-id-x1", "unit-id-x2", "unit-id-x1", "unit-id-y\t"]))
@example(columns=(["p"] * 6, ["a", "b", "a", "c", "b", "a"]))
def test_id_ranking_equals_the_oracle(tmp_path, monkeypatch, columns):
    pairs, units = columns
    rows = [(p, u, k % 2, float(k)) for k, (p, u) in enumerate(zip(pairs, units))]
    path = tmp_path / "ids.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([CSV_HEADER] + rows)
    expected = [sorted_codes(pairs), sorted_codes(units)]
    fast = max(len(text.encode()) for text in pairs + units) < dataio._WIDEST
    for digit_bits, entry, fallback in (
        (bits, *entry) for bits in (dataio._DIGIT_BITS, 1)  # 1: a sort per varying key bit
        for entry in ((lambda: read_csv(path), not fast), (lambda: validate_dataset(rows), False))
    ):
        ranked, widths, rank = [], [], dataio._sorted_codes

        def record(column):
            widths.append(0 if column.dtype == object else column.itemsize)
            ranked.append(rank(column))
            return ranked[-1]

        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_DIGIT_BITS", digit_bits)
            patch.setattr(dataio, "_sorted_codes", record)
            fallbacks = _fallbacks(patch)
            with contextlib.suppress(MixedTreatmentWithinUnit, DegeneratePair):  # only ranks matter
                entry()
        assert [(ids.tolist(), codes.tolist()) for ids, codes in ranked] == [
            (ids.tolist(), codes.tolist()) for ids, codes in expected]
        assert fallbacks == ([path] if fallback else [])
        assert max(widths) <= dataio._WIDEST  # 0 for an object column


@st.composite
def _key_rows(draw):
    """Rows of 1-3 uint64 words drawn from a few distinct rows, each word varying only
    in the bits of its own mask and equal to a shared word elsewhere."""
    words = draw(st.integers(1, 3))
    shared, masks = ([draw(st.integers(0, 2**64 - 1)) for _ in range(words)] for _ in range(2))
    pool = [[(s & ~m) | (draw(st.integers(0, 2**64 - 1)) & m) for s, m in zip(shared, masks)]
            for _ in range(draw(st.integers(1, 5)))]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=_key_rows())
@example(rows=[[1 << 61], [1 << 63], [1], [0], [1 << 62], [1 << 60]])  # all 64 bits vary
def test_sort_rows_equals_a_stable_sort(monkeypatch, rows):
    expected = sorted(range(len(rows)), key=lambda k: (rows[k], k))
    for digit_bits in (dataio._DIGIT_BITS, 3):
        keys = np.array(rows, np.uint64)
        with monkeypatch.context() as patch:
            patch.setattr(dataio, "_DIGIT_BITS", digit_bits)  # 3: a sort per 3 varying bits
            order, words = dataio._sort_rows(keys)
        assert keys.tolist() == [rows[k] for k in expected]  # sorted in place
        assert words == [j for j, column in enumerate(zip(*rows)) if len(set(column)) > 1]
        assert order.tolist() == expected


# canonicalize's memory: each row-length array it makes is dropped after its last use.
def _canonical_columns(rng, P):
    """canonicalize's arguments for shuffled rows of P pairs of units with 1-9 rows each:
    ids as ``S`` columns, each pair's first unit treated."""
    unit = rng.permutation(np.repeat(np.arange(2 * P), rng.integers(1, 10, 2 * P)))
    pairs = np.array([f"p{k // 2:06d}" for k in unit.tolist()], "S")
    units = np.array([f"u{k:07d}" for k in unit.tolist()], "S")
    return pairs, units, (unit % 2 == 0).astype(np.int8), rng.normal(size=unit.size)


def test_canonicalize_peaks_at_64_bytes_per_row():
    columns = _canonical_columns(np.random.default_rng(0), 20_000)  # about 200k rows
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dataio.canonicalize(*columns, lambda k: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / columns[0].size <= 64


@pytest.mark.parametrize("digit_bits", [dataio._DIGIT_BITS, 1], ids=["one-sort", "several-sorts"])
@pytest.mark.parametrize("kind", ["S", "object"])
def test_canonicalize_leaves_its_arguments_unchanged(monkeypatch, digit_bits, kind):
    monkeypatch.setattr(dataio, "_DIGIT_BITS", digit_bits)  # 1: a sort per varying key bit
    columns = list(_canonical_columns(np.random.default_rng(1), 50))
    if kind == "object":  # str ids, sorted as str
        columns[:2] = [np.array(column.astype(str).tolist(), dtype=object) for column in columns[:2]]
    before = [column.copy() for column in columns]
    dataio.canonicalize(*columns, lambda k: None)
    for column, copy in zip(columns, before):
        assert column.dtype == copy.dtype and np.array_equal(column, copy)
