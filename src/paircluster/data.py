"""Experiment data model.

A dataset is a collection of pairs (or strata) of randomization units,
each unit holding one or more observed outcomes.  It is stored as flat
arrays in canonical order: pairs sorted by id, units sorted by id within
each pair, and each unit's outcomes in input order, so results never
depend on input row order.  ``validate_dataset`` and ``read_csv`` build
it in bulk through one canonicalizer, which strips ids of surrounding
whitespace.  It ranks the ids of all entry paths one way: as UTF-8 bytes
in fixed-width ``S`` arrays at most 64 bytes wide (``read_csv`` reads
them so; lists are encoded), sorted as big-endian integer words, whose
order is str order; only the distinct ids become str again.  Lists with
an id wider than 64 bytes are sorted as str.  An id may not hold a NUL
character, which an ``S`` array would drop from its end.  A pair holds
two or more units; ``check_contrast`` asks each for a treated and a
control unit, for ``canonicalize`` and ``report.analyze``, and
``ExperimentData.require_pairs`` for exactly two.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AssignmentMismatch,
    DataError,
    DegeneratePair,
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
    NotPaired,
)

__all__ = ["ExperimentData", "Assignment", "validate_dataset"]

_NUMBER = (int, float, np.bool_, np.integer, np.floating)


def _binary_code(value) -> int:
    """0 or 1 for a binary treatment value (bools and numbers equal to 0/1), else -1."""
    if isinstance(value, _NUMBER) and (value == 0 or value == 1):
        return int(value)
    return -1


def _frozen(values, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype).reshape(-1)
    arr.setflags(write=False)
    return arr


_FIELDS = (
    ("outcomes", float),
    ("unit_pair", np.intp),
    ("unit_sizes", np.int64),
    ("pair_ids", object),
    ("unit_ids", object),
)


@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Canonical dataset as flat arrays.

    ``outcomes`` holds every observation, unit after unit in canonical
    order; ``unit_sizes`` and ``unit_pair`` give each unit's observation
    count and pair index; ``pair_ids`` and ``unit_ids`` are the ids of the
    pairs and of the units (a unit id is unique within its pair only).
    The per-observation indexes and the per-unit and per-pair totals are
    derived on first use.  ``validate_dataset`` and ``read_csv`` build it;
    direct construction checks that the arrays are canonical.
    """

    outcomes: np.ndarray
    unit_pair: np.ndarray
    unit_sizes: np.ndarray
    pair_ids: np.ndarray
    unit_ids: np.ndarray

    def __post_init__(self):
        for name, dtype in _FIELDS:
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        P, pair = self.P, self.unit_pair
        if P == 0:
            raise EmptyInput("dataset has no pairs")
        if not (pair.size == self.unit_sizes.size == self.unit_ids.size):
            raise ValueError("unit_pair, unit_sizes and unit_ids need one entry per unit")
        if np.any(np.diff(pair) < 0) or np.any((pair < 0) | (pair >= P)):
            raise ValueError("unit_pair must be nondecreasing pair indexes below P")
        for kind, ids in (("pair", self.pair_ids), ("unit", self.unit_ids)):
            # read_csv reads ids as stripped text without NULs, so no other id would round-trip
            bad = [i for i in ids.tolist()
                   if not isinstance(i, str) or i != i.strip() or "\x00" in i]
            others = [i for i in bad if not isinstance(i, str)]
            if others:
                raise ValueError(f"{kind} id {min(others, key=repr)!r} is not a string")
            padded = [i for i in bad if i != i.strip()]
            if padded:
                raise ValueError(f"{kind} id {min(padded)!r} has surrounding whitespace")
            if bad:
                raise DataError(f"{kind} id {min(bad)!r} contains a NUL character")
        if np.any(self.pair_ids[:-1] >= self.pair_ids[1:]):
            raise ValueError("pair ids must be distinct and sorted")
        same = pair[1:] == pair[:-1]
        if np.any(self.unit_ids[:-1][same] >= self.unit_ids[1:][same]):
            raise ValueError("unit ids must be distinct and sorted within each pair")
        counts = self.pair_unit_counts
        if np.any(counts < 2):
            p = int(np.argmax(counts < 2))
            raise ValueError(f"pair {self.pair_ids[p]!r} has {counts[p]} unit(s); need at least 2")
        if np.any(self.unit_sizes < 1):
            u = int(np.argmax(self.unit_sizes < 1))
            raise ValueError(f"unit {self.unit_ids[u]!r} has no outcomes")
        if self.outcomes.size != self.unit_sizes.sum():
            raise ValueError("unit sizes do not add up to the number of outcomes")
        finite = np.isfinite(self.outcomes)
        if not finite.all():
            u = self.obs_unit[int(np.argmin(finite))]
            raise ValueError(f"unit {self.unit_ids[u]!r} has non-finite outcomes")

    @property
    def P(self) -> int:
        """Number of pairs/strata."""
        return int(self.pair_ids.size)

    @property
    def n_units(self) -> int:
        return int(self.unit_sizes.size)

    @property
    def n_total(self) -> int:
        return int(self.outcomes.size)

    @cached_property
    def obs_unit(self) -> np.ndarray:
        """Unit index of each observation."""
        return _frozen(np.repeat(np.arange(self.n_units), self.unit_sizes), np.intp)

    @cached_property
    def obs_pair(self) -> np.ndarray:
        """Pair index of each observation."""
        return _frozen(self.unit_pair[self.obs_unit])

    @cached_property
    def unit_sums(self) -> np.ndarray:
        return _frozen(np.bincount(self.obs_unit, weights=self.outcomes, minlength=self.n_units))

    @property
    def unit_means(self) -> np.ndarray:
        return self.unit_sums / self.unit_sizes

    @cached_property
    def pair_unit_counts(self) -> np.ndarray:
        """Units per pair."""
        return _frozen(np.bincount(self.unit_pair, minlength=self.P), np.int64)

    def require_pairs(self) -> None:
        """The one check of paired-only code: raises ``NotPaired`` naming
        the first pair that does not have exactly two units."""
        unpaired = self.pair_unit_counts != 2
        if np.any(unpaired):
            bad = self.pair_ids[int(np.argmax(unpaired))]
            raise NotPaired(f"pair {bad!r} does not have exactly 2 units")

    @property
    def centred_unit_sums(self) -> np.ndarray:
        """Unit sums of the outcomes minus their global mean.

        Centring each observation, not the sums, keeps full precision under a
        large common offset.  Block means would not do: the no-FE fit is not
        invariant to per-block shifts.
        """
        centred = self.outcomes - self.outcomes.mean()
        return np.bincount(self.obs_unit, weights=centred, minlength=self.n_units)

    def __eq__(self, other):
        return isinstance(other, ExperimentData) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name, _ in _FIELDS
        )


@dataclass(frozen=True, eq=False)
class Assignment:
    """One draw of the treatment: one boolean per unit, in canonical unit order.

    Accepts booleans, or numbers equal to 0 or 1.
    """

    treated: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.treated).reshape(-1)
        if raw.dtype != bool:
            values = raw.tolist()
            codes = np.fromiter(map(_binary_code, values), np.int8, len(values))
            if np.any(codes < 0):
                k = int(np.argmax(codes < 0))
                raise NonBinaryTreatment(
                    f"treatment must be 0 or 1, got {values[k]!r} (unit {k})"
                )
            raw = codes
        object.__setattr__(self, "treated", _frozen(raw, bool))

    def unit_vector(self, data: ExperimentData) -> np.ndarray:
        """The treatment vector, checked to have one entry per unit of ``data``."""
        if self.treated.size != data.n_units:
            raise AssignmentMismatch(
                f"assignment covers {self.treated.size} units, dataset has {data.n_units}"
            )
        return self.treated

    def observation_vector(self, data: ExperimentData) -> np.ndarray:
        return self.unit_vector(data)[data.obs_unit]

    def __eq__(self, other):
        return isinstance(other, Assignment) and np.array_equal(self.treated, other.treated)


# The widest fixed-width id, in bytes: up to it an ``S`` field costs no more
# than the 8-byte pointer plus the str (at least 57 bytes) it replaces.
# ``read_csv`` makes each id field as wide as its column's widest field, up to this.
_WIDEST = 64


def _nul_id(pairs: list[str], units: list[str]) -> tuple[int, str] | None:
    """The first row with an id holding U+0000, and a message naming that id, if any.

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
    return k, f"{kind} id {texts[k]!r} contains a NUL character"


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


def _runs(ranked: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For keys sorted by ``order``: whether each sorted row starts a run of
    equal keys, and the run of each row in input order."""
    step = ranked[1:] != ranked[:-1]
    first = np.ones(order.size, bool)
    first[1:] = step if step.ndim == 1 else step.any(axis=1)
    runs = np.empty(order.size, np.intp)
    runs[order] = np.cumsum(first) - 1
    return first, runs


def _sorted_codes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct stripped ids of a column in sorted order, and each row's index into them.

    ``column`` holds each row's id as UTF-8 bytes in an ``S`` array (no id
    holds a NUL), or as str in an object array.  UTF-8 byte order is code
    point order, which is str order, so the bytes, zero-padded to whole
    8-byte words and read as big-endian integers, sort as the ids do.  One
    integer sort groups the rows; only the distinct ids are decoded,
    stripped and, where one was padded, merged and sorted again.
    """
    n = column.size
    if column.dtype.kind == "S":
        words = column.astype(f"S{-(-column.itemsize // 8) * 8}").view(">u8").reshape(n, -1)
        used = max(int(words.any(axis=0).sum()), 1)  # a zero word ends every id it is in
        keys = (words[:, 0] if used == 1 else words[:, :used]).astype(np.uint64)
    else:
        keys = column
    order = np.argsort(keys) if keys.ndim == 1 else np.lexsort(keys.T[::-1])
    first, codes = _runs(keys[order], order)
    texts = column[order[first]].tolist()
    if column.dtype.kind == "S":
        texts = [raw.decode("utf-8", "surrogatepass") for raw in texts]
    ids = [text.strip() for text in texts]
    if ids != texts:  # padded ids: merge each with its stripped form
        ids = sorted(set(ids))
        index = dict(zip(ids, range(len(ids))))
        codes = np.array([index[text.strip()] for text in texts], np.intp)[codes]
    return np.array(ids, dtype=object), codes


def check_contrast(unit_pair, treated, pair_ids) -> np.ndarray:
    """Each pair's treated-unit count; ``DegeneratePair`` names the first
    pair without a treated and a control unit."""
    treated_units = np.bincount(unit_pair, weights=treated, minlength=pair_ids.size)
    units = np.bincount(unit_pair, minlength=pair_ids.size)
    degenerate = (treated_units == 0) | (treated_units == units)
    if np.any(degenerate):
        p = int(np.argmax(degenerate))
        raise DegeneratePair(
            f"pair {pair_ids[p]!r} has no treated/control contrast "
            f"(treatments: {[int(treated_units[p] > 0)]}, units: {units[p]})"
        )
    return treated_units


def canonicalize(pair_col, unit_col, treated, outcomes, treatment_value):
    """Sort, check and pack rows given as columns into a dataset and assignment.

    ``pair_col``/``unit_col`` hold each row's ids as ``_sorted_codes``
    takes them, which are stripped of surrounding whitespace here,
    ``treated`` its treatment coded 0, 1, or -1 for a value that is not
    binary, and ``outcomes`` its outcome;
    ``treatment_value(k)`` is row k's treatment as given, for the error
    message.  Errors name the offending pair or unit; of the treatment
    errors, the one raised is the one a row-by-row pass would meet first.

    Rows are grouped into units by numpy's default (unstable) argsort of
    their unit keys; a sort of the distinct keys ``unit * n + row`` then
    puts each unit's rows back in input order.  Any sort of distinct keys
    gives the stable order, and the two take about half the time of one
    stable argsort.
    """
    pair_ids, pair_code = _sorted_codes(pair_col)
    names, name_code = _sorted_codes(unit_col)
    # Units are (pair, unit id) keys, sorted by pair and then by unit id.
    row_key = pair_code * len(names) + name_code
    del pair_code, name_code
    order = np.argsort(row_key)
    first, row_unit = _runs(row_key[order], order)
    n = order.size  # row_unit * n + row fits in int64 for n below 3e9
    order = np.sort(row_unit * n + np.arange(n)) % n
    starts = np.flatnonzero(first)
    keys = row_key[order[starts]]
    unit_sizes = np.diff(starts, append=order.size)
    unit_pair = keys // len(names)
    unit_ids = names[keys % len(names)]

    unit_w = treated[order[starts]]  # each unit's first row
    bad = np.flatnonzero((treated < 0) | (treated != unit_w[row_unit]))
    if bad.size:
        k = int(bad[0])
        u = row_unit[k]
        context = f"unit {unit_ids[u]!r} in pair {pair_ids[unit_pair[u]]!r}"
        if treated[k] < 0:
            raise NonBinaryTreatment(
                f"treatment must be 0 or 1, got {treatment_value(k)!r} ({context})"
            )
        raise MixedTreatmentWithinUnit(f"{context} has both treated and control rows")

    check_contrast(unit_pair, unit_w, pair_ids)
    data = ExperimentData(outcomes[order], unit_pair, unit_sizes, pair_ids, unit_ids)
    return data, Assignment(unit_w.astype(bool))


def validate_dataset(
    rows: Iterable[Sequence],
) -> tuple[ExperimentData, Assignment]:
    """Group raw (pair_id, unit_id, treatment, outcome) rows into canonical form.

    Treatment must be constant within each unit and must vary within each
    pair; a pair whose units are all treated (or all control) has no
    within-pair contrast and is rejected.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("no data rows")
    bad = next((row for row in rows if len(row) != 4), None)
    if bad is not None:
        raise ValueError(f"expected 4 fields per row, got {bad!r}")
    pair_col, unit_col, w_col, y_col = (map(itemgetter(j), rows) for j in range(4))
    pairs, units, n = list(map(str, pair_col)), list(map(str, unit_col)), len(rows)
    nul = _nul_id(pairs, units)
    if nul is not None:
        raise DataError(nul[1])
    return canonicalize(
        _id_column(pairs),
        _id_column(units),
        np.fromiter(map(_binary_code, w_col), np.int8, n),
        np.fromiter(map(float, y_col), float, n),
        lambda k: rows[k][2],
    )
