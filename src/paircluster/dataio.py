"""CSV ingestion and emission.

Input is long format, one row per observation, header
``pair_id,unit_id,treatment,outcome`` with treatment in {0,1}, in UTF-8
with or without a byte-order mark.  Row order never affects results;
writing uses the canonical order, and ids are stripped of surrounding
whitespace by the canonicalizer on both paths, so a write/read round
trip of a dataset from ``validate_dataset`` or ``read_csv`` reproduces
it exactly.

Reading is one ``csv.reader`` pass into four columns of strings, which
are then converted and canonicalized in bulk.  Line numbers are worked
out only when a row is rejected.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from pathlib import Path

import numpy as np

from .data import Assignment, ExperimentData, _binary_code, canonicalize
from .errors import EmptyInput, ParseError

__all__ = ["CSV_HEADER", "read_csv", "write_csv"]

CSV_HEADER = ["pair_id", "unit_id", "treatment", "outcome"]


def _first_parse_error(treatments, outcomes, line) -> ParseError | None:
    """The error of the first row whose treatment or outcome does not parse, if any."""
    for k, (w_text, y_text) in enumerate(zip(treatments, outcomes)):
        w_text, y_text = w_text.strip(), y_text.strip()
        try:
            int(w_text)
        except ValueError:
            return ParseError(f"treatment {w_text!r} is not an integer", line=line(k))
        try:
            outcome = float(y_text)
        except ValueError:
            return ParseError(f"outcome {y_text!r} is not a number", line=line(k))
        if not math.isfinite(outcome):
            return ParseError(f"outcome {y_text!r} is not finite", line=line(k))
    return None


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
            header = next(reader, None)
            if header is None:
                raise EmptyInput(f"{path}: file is empty")
            if [h.strip() for h in header] != CSV_HEADER:
                raise ParseError(
                    f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}",
                    line=1,
                )
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


def read_csv(path) -> tuple[ExperimentData, Assignment]:
    """Parse and validate an experiment CSV file."""
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
