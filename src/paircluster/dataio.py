"""Ingestion and CSV emission: every dataset is built here.

``validate_dataset`` (rows) and ``read_csv`` (a file) hand their columns
to one canonicalizer, ``canonicalize``, which strips ids of surrounding
whitespace, groups the rows into units and checks the whole dataset at
once.  It ranks the ids of every entry path one way: as UTF-8 bytes in
fixed-width ``S`` arrays at most 64 bytes wide (``read_csv`` reads them
so; lists are encoded), sorted by ``_sort_rows`` as big-endian integer
words, whose order is str order; only the distinct ids become str again.
Lists with an id wider than 64 bytes are sorted as str.  An id may not hold
a NUL character, which an ``S`` array would drop from its end.  Each array
of one entry per row is dropped after its last use (see ``canonicalize``).

Input is long format, one row per observation, header
``pair_id,unit_id,treatment,outcome`` with treatment in {0,1}, in UTF-8
with or without a byte-order mark.  Row order never affects results;
writing uses the canonical order, so a write/read round trip of a
dataset from ``validate_dataset`` or ``read_csv`` reproduces it exactly.

Reading has one fast path and one fallback.  The fast path scans the
bytes in chunks of whole lines, checking the header with ``csv.reader`` on
the first chunk, and parses the data rows with one ``np.loadtxt`` call,
which opens the file by its path and reads it in blocks, as Latin-1 so
that each byte is one character.  numpy's C tokenizer yields the ids as
``S`` fields holding their exact UTF-8 bytes, each as wide as the widest
field of its column (of the longest line in a file with quotes) but at
most 64 bytes, and the treatments and outcomes as int64 and float64
arrays, so no field ever becomes a Python string.  It hands its rows on
only when they are exactly what the csv module and ``int``/``float``
would give, so it gives up on a file when:

- the scan finds a header that is not the expected one, a line longer
  than the csv module's field size limit, a line break inside a quoted
  field, a byte in 0x1c-0x1f, which numpy strips from numbers and
  ``float`` does not, a NUL byte, which an ``S`` field drops from the end
  of an id, or bytes that are not UTF-8;
- numpy refuses the rows or warns (a row it cannot split or convert, no
  data rows, or an older numpy reading ``1.0`` as an integer);
- an outcome is not finite;
- an id fills a 64-byte field, so may have been cut;
- the path is not a regular file, which could not be read twice, or ends
  in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``, which numpy would
  decompress.

The fallback alone decides such files.  It reads the file's bytes once
and checks that they are UTF-8 before it parses a row: a file that is
not is a ``ParseError`` on the line of its first bad byte, for regular
files and pipes alike.  One loop over the ``csv.reader`` records then
checks each where it is read: after skipping blank lines, its field count,
a NUL in an id, an integer treatment, a numeric and finite outcome.  It
raises the first ``ParseError`` on the line its record starts on, or reads
what Python accepts and numpy does not, such as whitespace-only lines,
``1_000``, non-ASCII digits and integers beyond int64.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from array import array
from functools import partial
from itertools import chain
from operator import itemgetter, length_hint
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Assignment, ExperimentData, _binary_code, check_contrast
from .errors import DataError, EmptyInput, MixedTreatmentWithinUnit, NonBinaryTreatment, ParseError

__all__ = ["CSV_HEADER", "validate_dataset", "read_csv", "write_csv"]

CSV_HEADER = ["pair_id", "unit_id", "treatment", "outcome"]
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # numpy decompresses a path with these
_REFUSED = b"\x00\x1c\x1d\x1e\x1f"  # bytes _scan sends to the csv pass


# The widest fixed-width id, in bytes: up to it an ``S`` field costs no more
# than the 8-byte pointer plus the str (at least 57 bytes) it replaces.
# ``read_csv`` makes each id field as wide as its column's widest field, up to this.
_WIDEST = 64
_DIGIT_BITS = 64  # the most varying key bits one pass of _sort_rows sorts; tests lower it


def _nul_id(pairs: list[str], units: list[str]) -> str | None:
    """A message naming the first row's id that holds U+0000, if any.

    An ``S`` array drops trailing NULs, so such an id would rank as the id without them.
    """
    found = [
        (next(k for k, text in enumerate(texts) if "\x00" in text), kind, texts)
        for kind, texts in (("pair", pairs), ("unit", units))
        if "\x00" in "".join(texts)
    ]
    if not found:
        return None
    k, kind, texts = min(found, key=itemgetter(0))
    return f"{kind} id {texts[k]!r} contains a NUL character"


def _id_column(texts: list[str]) -> np.ndarray:
    """A list of ids without NULs as an ``S`` array of their UTF-8 bytes, for ``_sorted_codes``.

    ``surrogatepass`` encodes every str, in str order.  The ids are encoded
    as one text and copied into place with a mask, which makes no Python
    object per row.  Where an id is wider than ``_WIDEST`` bytes the ids
    stay str, in an object array.
    """
    raw = np.frombuffer("\x00".join(texts).encode("utf-8", "surrogatepass"), np.uint8)
    ends = raw == 0
    lengths = np.diff(np.flatnonzero(np.concatenate(([True], ends, [True])))) - 1
    width = max(int(lengths.max()), 1)
    if width > _WIDEST:
        return np.array(texts, dtype=object)
    column = np.zeros((len(texts), width), np.uint8)
    column[np.arange(width) < lengths[:, None]] = raw[~ends]
    return column.view(f"S{width}").ravel()


def _sort_rows(keys: np.ndarray, stable: bool = True) -> tuple[np.ndarray, list[int]]:
    """Sort ``keys``, rows of uint64 words with the most significant first, in place, and
    return the order and the words that vary, in increasing index: sorted row i was row
    ``order[i]``, equal rows in input order if ``stable``.

    The span of bits that vary in each word is cut into digits of at most 64 - row_bits bits,
    row_bits = ⌈log2 n⌉, sorted least significant first, each by an in-place value sort of
    ``(digit << row_bits) | position``; one digit is packed in ``keys`` and unpacked sorted.
    Unless ``stable``, one word wider than a digit takes ``np.argsort``, faster than two passes."""
    n, row_bits = len(keys), (len(keys) - 1).bit_length()
    width, cols = min(_DIGIT_BITS, 64 - row_bits), range(keys.shape[1])  # per column: 3x faster
    same = np.array([np.bitwise_and.reduce(keys[:, j]) for j in cols], np.uint64)
    varying = [int(np.bitwise_or.reduce(keys[:, j]) ^ same[j]) for j in cols]
    digits = [(j, shift) for j, bits in reversed(list(enumerate(varying))) if bits
              for shift in range((bits & -bits).bit_length() - 1, bits.bit_length(), width)]
    words, order = {j for j, _ in digits}, None if len(digits) == 1 else np.arange(n)
    if len(words) == 1 < len(digits) and not stable:
        order, digits = np.argsort(keys[:, min(words)]), []
    for j, shift in digits:
        packed = keys[:, j] if order is None else keys[:, j][order]  # one digit: in place
        packed >>= shift
        packed <<= row_bits  # bits it pushes out are later passes' or the same in all rows
        packed |= np.arange(n, dtype=np.uint64)
        packed.sort()
        rows = np.bitwise_and(packed, (1 << row_bits) - 1, out=np.empty(n, np.intp))
        order = rows if order is None else order[rows]
    if len(digits) == 1:  # the sorted values unpack to the sorted keys: every other bit is same's
        packed >>= row_bits
        np.bitwise_or(np.left_shift(packed, shift, out=packed), same[j], out=packed)
    for j in words if len(digits) != 1 else ():
        keys[:, j] = keys[:, j][order]
    return order, sorted(words)


def _sorted_codes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct stripped ids of a column in sorted order, and each row's index into them.

    ``column`` holds each row's id as UTF-8 bytes in an ``S`` array (no id
    holds a NUL), or as str in an object array.  UTF-8 byte order is code
    point order, which is str order, so the bytes, zero-padded to whole
    8-byte words and read as big-endian integers, sort as the ids do, and
    ``_sort_rows`` sorts them in the copy made to pad them and names the words
    that vary, the only ones neighbouring rows are compared in.  Only the distinct
    ids are decoded, stripped and, where one was padded, merged and sorted again.
    """
    n = column.size
    if column.dtype.kind == "S":
        ranked = column.astype(f"S{-(-column.itemsize // 8) * 8}").view(">u8").reshape(n, -1)
        ranked = ranked.byteswap(inplace=True).view(ranked.dtype.newbyteorder())  # native, in place
        order, words = _sort_rows(ranked, stable=False)
    else:
        order, words = np.argsort(column), [0]
        ranked = column[order, None]
    first = np.zeros(n, bool)
    first[:1] = True
    for j in words:  # a row starts an id where a word that varies differs from the last row's
        first[1:] |= ranked[1:, j] != ranked[:-1, j]
    del ranked
    codes = np.empty(n, np.intp)
    codes[order] = np.cumsum(first) - 1
    texts = column[order[first]].tolist()
    if column.dtype.kind == "S":
        texts = [raw.decode("utf-8", "surrogatepass") for raw in texts]
    ids = [text.strip() for text in texts]
    if ids != texts:  # padded ids: merge each with its stripped form
        ids = sorted(set(ids))
        index = dict(zip(ids, range(len(ids))))
        codes = np.array([index[text.strip()] for text in texts], np.intp)[codes]
    return np.array(ids, dtype=object), codes


def canonicalize(pair_col, unit_col, treated, outcomes, treatment_value):
    """Sort, check and pack rows given as columns into a dataset and assignment,
    for ``validate_dataset`` and both paths of ``read_csv``.

    ``pair_col``/``unit_col`` hold each row's ids as ``_sorted_codes``
    takes them, which are stripped of surrounding whitespace here,
    ``treated`` its treatment coded 0, 1, or -1 for a value that is not
    binary, and ``outcomes`` its outcome;
    ``treatment_value(k)`` is row k's treatment as given, for the error
    message.  Errors name the offending pair or unit; of the treatment
    errors, the one raised is the one a row-by-row pass would meet first.

    ``_sort_rows`` groups the rows into units by the keys ``pair * N + unit``
    (N unit ids), stably, so in canonical order: by pair, unit id and input
    row.  Each row-length array is dropped after its last use, so the peak,
    as the dataset is built, holds three: the canonical order, the outcomes
    in it and the dataset's copy of them.  On 200k rows in units of 1-9 rows
    it is 58 bytes per row above the arguments, all temporaries and the
    distinct ids included.
    """
    pair_ids, pair_code = _sorted_codes(pair_col)
    names, name_code = _sorted_codes(unit_col)
    n, N = pair_code.size, len(names)
    unit_key = pair_code * N
    unit_key += name_code
    del pair_code, name_code
    order, _ = _sort_rows(unit_key.view(np.uint64)[:, None])  # and unit_key, in place
    starts = np.flatnonzero(np.concatenate(([True], unit_key[1:] != unit_key[:-1])))
    unit_sizes = np.diff(starts, append=n)
    keys = unit_key[starts]
    unit_pair, unit_ids = keys // N, names[keys % N]

    in_order = treated[order]
    unit_w = in_order[starts]  # each unit's first row
    bad = np.flatnonzero((in_order < 0) | (in_order != np.repeat(unit_w, unit_sizes)))
    del in_order, unit_key  # unit_key here, not at its last use above: there it raised peak RSS
    if bad.size:  # the bad row first in input order
        j = int(bad[np.argmin(order[bad])])
        k, u = int(order[j]), int(np.searchsorted(starts, j, "right")) - 1
        context = f"unit {unit_ids[u]!r} in pair {pair_ids[unit_pair[u]]!r}"
        if treated[k] < 0:
            raise NonBinaryTreatment(
                f"treatment must be 0 or 1, got {treatment_value(k)!r} ({context})"
            )
        raise MixedTreatmentWithinUnit(f"{context} has both treated and control rows")

    check_contrast(unit_pair, unit_w, pair_ids)
    outcomes = np.ascontiguousarray(outcomes)[order]  # a gather from a strided field is slower
    data = ExperimentData._canonical(outcomes, unit_pair, unit_sizes, pair_ids, unit_ids)
    return data, Assignment(unit_w.astype(bool))


def validate_dataset(rows: Iterable[Sequence]) -> tuple[ExperimentData, Assignment]:
    """Group raw (pair_id, unit_id, treatment, outcome) rows into canonical form.

    Treatment must be constant within each unit and must vary within each
    pair; a pair whose units are all treated (or all control) has no
    within-pair contrast and is rejected.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("no data rows")
    # length_hint is 0 for a row without a length, such as None or 7
    bad = next(([row] for row in rows if length_hint(row) != 4), None)
    if bad:
        raise DataError(f"expected 4 fields per row, got {bad[0]!r}")
    pair_col, unit_col, w_col, y_col = (map(itemgetter(j), rows) for j in range(4))
    pairs, units, n = list(map(str, pair_col)), list(map(str, unit_col)), len(rows)
    if message := _nul_id(pairs, units):
        raise DataError(message)
    try:
        y = np.fromiter(map(float, y_col), float, n)
    except (TypeError, ValueError):
        for k, row in enumerate(rows):
            try:
                float(row[3])
            except (TypeError, ValueError):
                raise DataError(f"outcome {row[3]!r} is not a number (row {k})") from None
        raise
    treated = np.fromiter(map(_binary_code, w_col), np.int8, n)
    return canonicalize(_id_column(pairs), _id_column(units), treated, y, lambda k: rows[k][2])


def _check_header(reader, path) -> None:
    header = next(reader, None)
    if header is None:
        raise EmptyInput(f"{path}: file is empty")
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )


def _read_columns(path):
    """``canonicalize``'s arguments from one loop over the file's records; the first
    bad record raises its ``ParseError`` on the line it starts on."""
    with open(path, "rb") as handle:  # once: a pipe cannot be read again
        raw = handle.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # \r\n, a lone \r and a lone \n each end a line, as csv counts
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise ParseError(f"not UTF-8 text ({exc.reason})", line=line_no) from None
    nul = b"\x00" in raw
    # A StringIO of the text would keep 4 bytes per character.
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    pairs, units, treatments, outcomes, parsed = [], [], [], array("d"), {}
    add_pair, add_unit, add_w, add_y = pairs.append, units.append, treatments.append, outcomes.append
    try:
        _check_header(reader, path)
        end = reader.line_num  # the line the last record read ends on
        for record in reader:
            line, end = end + 1, reader.line_num
            if len(record) != 4:
                if not record or (len(record) == 1 and not record[0].strip()):
                    continue
                raise ParseError(f"expected 4 fields, got {len(record)}", line=line)
            pair_id, unit_id, w_text, y_text = record
            if nul and (message := _nul_id([pair_id], [unit_id])):
                raise ParseError(message, line=line)
            # int() and float() ignore surrounding whitespace; str.strip drops more
            w = parsed.get(w_text)
            if w is None:
                try:
                    w = parsed[w_text] = int(w_text)
                except ValueError:
                    raise ParseError(f"treatment {w_text.strip()!r} is not an integer",
                                     line=line) from None
            try:
                y = float(y_text)
            except ValueError:
                raise ParseError(f"outcome {y_text.strip()!r} is not a number", line=line) from None
            if not math.isfinite(y):
                raise ParseError(f"outcome {y_text.strip()!r} is not finite", line=line)
            add_pair(pair_id)  # canonicalize strips each distinct id once
            add_unit(unit_id)
            add_w(w)
            add_y(y)
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(str(exc), line=reader.line_num) from None
    if not pairs:
        raise EmptyInput(f"{path}: no data rows")
    codes = {w: _binary_code(w) for w in parsed.values()}
    treated = np.fromiter(map(codes.__getitem__, treatments), np.int8, len(treatments))
    return (_id_column(pairs), _id_column(units), treated, np.frombuffer(outcomes),
            treatments.__getitem__)


def _scan(path) -> tuple[int, int, int] | None:
    """The length in bytes of the file's longest line and of its widest pair-id
    and unit-id fields, or None where numpy might read the file otherwise than
    the csv module and int/float, or the header is not the expected one.

    None for a line longer than the csv module's field size limit, or a line
    break inside a quoted field, either of which could hold a field the csv
    module refuses; for any of the bytes 0x1c-0x1f, which numpy strips from
    numbers as whitespace and int/float do not, and 0x00, which an ``S`` field
    drops from the end of an id; and for bytes that are not UTF-8, which
    ``np.loadtxt``'s Latin-1 view would read (numpy strips a stray 0x85 or 0xa0
    from a number as whitespace).  A line break is inside a quoted field when
    an odd number of quotes precede it.  A quote inside an unquoted field
    shifts that count.  Such quotes can hide a line break only inside a quoted
    field of their own row, and then either the row ends at an odd count or
    one of its numbers holds a quote, which numpy refuses.

    A field is the bytes between two separators (``,``, ``\\n``, ``\\r``).  A
    line's first field is its pair id and, where a comma ends that, its second
    is its unit id; the header's fields count too.  A quoted field may hold a
    comma, so in a file with a quote both widths are the longest line's.

    Each block read is cut after its last line break and the rest carried into
    the next, so each chunk holds whole lines and is checked on its own, the
    first with the header; the file ends as if a line break followed it.
    """
    limit = csv.field_size_limit()
    longest = pair_width = unit_width = 0
    quoted, carry, header = False, b"", True
    with open(path, "rb") as handle:
        for block in chain(iter(partial(handle.read, 1 << 19), b""), [b"\n"]):
            block = carry + block
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
            chunk, carry = block[:cut], block[cut:]
            if len(carry) > limit or any(byte in chunk for byte in _REFUSED):
                return None
            if not chunk:
                continue
            try:  # no character spans two chunks
                if header:
                    _check_header(csv.reader(io.StringIO(chunk.decode("utf-8-sig"), "")), path)
                elif not chunk.isascii():
                    chunk.decode("utf-8")
            except (ValueError, csv.Error):  # also a header error: the csv pass words it
                return None
            codes, header = np.frombuffer(chunk, np.uint8), False
            ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
            starts = np.concatenate(([0], ends[:-1] + 1))
            quoted = quoted or b'"' in chunk  # a file without quotes skips the count
            if quoted and np.any(np.searchsorted(np.flatnonzero(codes == ord('"')), ends) % 2):
                return None
            longest = max(longest, int((ends - starts).max()))
            # Each line's first two commas, clipped at its end; two pads lie past every end.
            commas = np.append(np.flatnonzero(codes == ord(",")), [len(chunk)] * 2)
            k = np.searchsorted(commas, starts)
            first, second = np.minimum(commas[k], ends), np.minimum(commas[k + 1], ends)
            pair_width = max(pair_width, int((first - starts).max()))
            unit_width = max(unit_width, int((second - first)[first < ends].max(initial=1)) - 1)
    if longest > limit:
        return None
    return (longest,) * 3 if quoted else (longest, pair_width, unit_width)


def _fills_field(table: np.ndarray, name: str) -> bool:
    """Whether an id of the ``S`` field ``name`` fills the field, so may have been cut."""
    dtype, offset = table.dtype.fields[name][:2]
    return bool(table.view(np.uint8).reshape(table.size, -1)[:, offset + dtype.itemsize - 1].any())


def _load_table(path) -> np.ndarray | None:
    """The data rows as a structured array, or None where the csv pass must decide."""
    name = os.path.abspath(os.fsdecode(path))  # numpy would read "http://..." as a URL
    scan = _scan(path) if os.path.isfile(path) and not name.endswith(_COMPRESSED) else None
    if scan is None:
        return None
    pair_width, unit_width = (min(width, _WIDEST) for width in scan[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            # Ids as S fields, which numpy fills from the Latin-1 text, so each holds its
            # id's UTF-8 bytes.  Such a field drops trailing NULs: the scan refused NUL bytes.
            row = np.dtype([("pair", f"S{pair_width}"), ("unit", f"S{unit_width}"),
                            ("treatment", np.int64), ("outcome", float)])
            table = np.loadtxt(  # by path, numpy reads the file in blocks, not by lines
                name, row, delimiter=",", quotechar='"', comments=None, ndmin=1,
                encoding="latin-1", skiprows=1,
            )  # comments=None: ids may contain "#"
        except (ValueError, Warning):
            return None
    if any(width == _WIDEST and _fills_field(table, column)
           for column, width in (("pair", pair_width), ("unit", unit_width))):
        return None
    return table if np.isfinite(table["outcome"]).all() else None


def read_csv(path) -> tuple[ExperimentData, Assignment]:
    """Parse and validate an experiment CSV file."""
    table = _load_table(path)
    if table is None:
        return canonicalize(*_read_columns(path))
    w = table["treatment"]
    treated = np.where((w == 0) | (w == 1), w, -1).astype(np.int8)
    return canonicalize(table["pair"], table["unit"], treated, table["outcome"], lambda k: int(w[k]))


def write_csv(path, data: ExperimentData, assignment: Assignment) -> None:
    """Write a dataset and assignment in canonical order."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        writer.writerows(
            zip(
                data.pair_ids[data.obs_pair],
                data.unit_ids[data.obs_unit],
                assignment.observation_vector(data).astype(int).tolist(),
                map(repr, data.outcomes.tolist()),
            )
        )
