"""CSV ingestion and emission.

Input is long format, one row per observation, header
``pair_id,unit_id,treatment,outcome`` with treatment in {0,1}, in UTF-8
with or without a byte-order mark.  Row order never affects results;
writing uses the canonical order, and ids are stripped of surrounding
whitespace by the canonicalizer on both paths, so a write/read round
trip of a dataset from ``validate_dataset`` or ``read_csv`` reproduces
it exactly.

Reading has one fast path and one fallback.  The fast path checks the
header with ``csv.reader`` and parses the data rows with one
``np.loadtxt`` call on the same handle.  numpy's C tokenizer yields the
ids as objects and the treatments and outcomes as int64 and float64
arrays, so no number ever becomes a Python string; on a 1M-row file this
cuts peak memory by about a fifth.  It hands its rows on only when they
are exactly what the csv module and ``int``/``float`` would give, so it
gives up on a file when:

- numpy refuses it or warns (a row it cannot split or convert, no data
  rows, or an older numpy reading ``1.0`` as an integer);
- an outcome is not finite;
- a line is longer than the csv module's field size limit, or a byte is
  in 0x1c-0x1f, which numpy strips from numbers and ``float`` does not;
- the path is not a regular file, which could not be read twice.

The fallback then reads the file in one ``csv.reader`` pass into columns
of strings.  It alone decides such files: it raises the ``ParseError``
of the first bad row with its file line (worked out only then), or reads
what Python accepts and numpy does not, such as whitespace-only lines,
``1_000``, non-ASCII digits and integers beyond int64.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .data import Assignment, ExperimentData, _binary_code, canonicalize
from .errors import EmptyInput, ParseError

__all__ = ["CSV_HEADER", "read_csv", "write_csv"]

CSV_HEADER = ["pair_id", "unit_id", "treatment", "outcome"]
# Object ids, not fixed-width strings: those cost the longest id times the
# rows, and numpy strips their trailing NULs.
_ROW = np.dtype([("pair", object), ("unit", object), ("treatment", np.int64), ("outcome", float)])


def _first_parse_error(treatments, outcomes, line) -> ParseError | None:
    """The error of the first row whose treatment or outcome does not parse, if any."""
    for k, (w_text, y_text) in enumerate(zip(treatments, outcomes)):
        try:  # the texts as read: str.strip drops more than int() and float() ignore
            int(w_text)
        except ValueError:
            return ParseError(f"treatment {w_text.strip()!r} is not an integer", line=line(k))
        try:
            outcome = float(y_text)
        except ValueError:
            return ParseError(f"outcome {y_text.strip()!r} is not a number", line=line(k))
        if not math.isfinite(outcome):
            return ParseError(f"outcome {y_text.strip()!r} is not finite", line=line(k))
    return None


def _check_header(reader, path) -> None:
    header = next(reader, None)
    if header is None:
        raise EmptyInput(f"{path}: file is empty")
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )


def _read_columns(path):
    """One pass over the file into columns of the raw field texts.

    Also returns ``line(k)``, the file line of data row k.
    """
    pairs, units, treatments, outcomes = [], [], [], []
    blanks = []  # the number of data rows read before each skipped blank line

    def line(k):  # the line of data row k: the header, k rows and the blanks before it
        return k + 2 + bisect_right(blanks, k)

    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader, error = csv.reader(handle), None
        try:
            _check_header(reader, path)
            add_pair, add_unit, add_w, add_y = (
                pairs.append, units.append, treatments.append, outcomes.append
            )
            for record in reader:
                if len(record) == 4:
                    pair_id, unit_id, w_text, y_text = record
                    add_pair(pair_id)  # canonicalize strips each distinct id once
                    add_unit(unit_id)
                    add_w(w_text)  # int() and float() ignore surrounding whitespace
                    add_y(y_text)
                elif not record or (len(record) == 1 and not record[0].strip()):
                    blanks.append(len(pairs))
                else:
                    raise _first_parse_error(treatments, outcomes, line) or ParseError(
                        f"expected 4 fields, got {len(record)}", line=line(len(pairs))
                    )
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            error = ParseError(str(exc), line=reader.line_num)
        except UnicodeDecodeError as exc:  # decoding runs a chunk ahead of the reader
            ahead = exc.object.count(b"\n", 0, exc.start)
            error = ParseError(f"not UTF-8 text ({exc.reason})", line=reader.line_num + 1 + ahead)
    if error is not None:  # loses to an earlier row that does not parse, as above
        raise _first_parse_error(treatments, outcomes, line) or error
    if not pairs:
        raise EmptyInput(f"{path}: no data rows")
    return pairs, units, treatments, outcomes, line


def _numpy_may_differ(path) -> bool:
    """Whether numpy might read the file otherwise than the csv module and int/float.

    True for a line longer than the csv module's field size limit, which
    could hold a field the csv module refuses, and for any of the bytes
    0x1c-0x1f, which numpy strips from numbers as whitespace and int/float
    do not.  A field that long spread over several lines inside quotes is
    not caught.
    """
    limit = csv.field_size_limit()
    with open(path, "rb") as handle:
        start = offset = 0  # file offsets of the current line and of the chunk
        while chunk := handle.read(1 << 20):
            codes = np.frombuffer(chunk, np.uint8)
            if np.any(codes - np.uint8(0x1C) < 4):
                return True
            ends = offset + np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
            offset += len(chunk)
            if ends.size:
                if np.diff(ends, prepend=start - 1).max() > limit + 1:
                    return True
                start = int(ends[-1]) + 1
            if offset - start > limit:
                return True
    return False


def _load_table(path) -> np.ndarray | None:
    """The data rows as a ``_ROW`` array, or None where the csv pass must decide."""
    if not os.path.isfile(path) or _numpy_may_differ(path):
        return None
    with open(path, newline="", encoding="utf-8-sig") as handle, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _check_header(csv.reader(handle), path)
            table = np.loadtxt(
                handle, _ROW, delimiter=",", quotechar='"', comments=None, ndmin=1
            )  # comments=None: ids may contain "#"
        except (ParseError, EmptyInput):
            raise
        except (csv.Error, ValueError, Warning):  # ValueError covers UnicodeDecodeError
            return None
    return table if np.isfinite(table["outcome"]).all() else None


def read_csv(path) -> tuple[ExperimentData, Assignment]:
    """Parse and validate an experiment CSV file."""
    table = _load_table(path)
    if table is not None:
        w = table["treatment"]
        treated = np.where((w == 0) | (w == 1), w, -1).astype(np.int8)
        return canonicalize(table["pair"], table["unit"], treated, table["outcome"],
                            lambda k: int(w[k]))
    pairs, units, treatments, outcomes, line = _read_columns(path)
    try:
        codes = {text: _binary_code(int(text)) for text in set(treatments)}
        y = np.fromiter(map(float, outcomes), float, len(outcomes))
    except ValueError:
        y = None
    if y is None or not np.isfinite(y).all():
        raise _first_parse_error(treatments, outcomes, line)
    del outcomes  # free one string per row before canonicalizing
    treated = np.fromiter(map(codes.__getitem__, treatments), np.int8, len(treatments))
    return canonicalize(pairs, units, treated, y, lambda k: int(treatments[k]))


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
