"""Experiment data model.

A dataset is a collection of pairs (or strata) of randomization units,
each unit holding one or more observed outcomes.  It is stored as flat
arrays in canonical order: pairs sorted by id, units sorted by id within
each pair, and each unit's outcomes in input order, so results never
depend on input row order.  ``validate_dataset`` and ``read_csv`` build
it in bulk through one canonicalizer, which strips ids of surrounding
whitespace.  Code that needs exactly two units per pair reads per-unit
values through ``ExperimentData.pair_columns``, the one place that
checks it.  All types are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AssignmentMismatch,
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
            distinct = set(ids.tolist())
            # read_csv reads ids as stripped text, so no other id would round-trip
            others = [i for i in distinct if not isinstance(i, str)]
            if others:
                raise ValueError(f"{kind} id {min(others, key=repr)!r} is not a string")
            padded = [i for i in distinct if i != i.strip()]
            if padded:
                raise ValueError(f"{kind} id {min(padded)!r} has surrounding whitespace")
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

    def pair_columns(self, values) -> np.ndarray:
        """Per-unit ``values`` as a (P, 2) array, one row per pair.

        The one accessor of paired-only code: raises ``NotPaired`` naming
        the first pair that does not have exactly two units.
        """
        unpaired = self.pair_unit_counts != 2
        if np.any(unpaired):
            bad = self.pair_ids[int(np.argmax(unpaired))]
            raise NotPaired(f"pair {bad!r} does not have exactly 2 units")
        return np.asarray(values).reshape(-1, 2)

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


def _sorted_codes(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct stripped ids of a column in sorted order, and each row's index into them."""
    texts = set(column)
    ids = sorted({text.strip() for text in texts})
    index = dict(zip(ids, range(len(ids))))
    index.update({text: index[text.strip()] for text in texts - index.keys()})  # padded ids
    codes = np.fromiter(map(index.__getitem__, column), np.intp, len(column))
    return np.array(ids, dtype=object), codes


def canonicalize(pair_col, unit_col, treated, outcomes, treatment_value):
    """Sort, check and pack rows given as columns into a dataset and assignment.

    ``pair_col``/``unit_col`` hold each row's ids, which are stripped of
    surrounding whitespace here, ``treated`` its treatment coded 0, 1, or
    -1 for a value that is not binary, and ``outcomes`` its outcome;
    ``treatment_value(k)`` is row k's treatment as given, for the error
    message.  Errors name the offending pair or unit; of the treatment
    errors, the one raised is the one a row-by-row pass would meet first.
    """
    pair_ids, pair_code = _sorted_codes(pair_col)
    names, name_code = _sorted_codes(unit_col)
    # Units are (pair, unit id) keys, sorted by pair and then by unit id.
    keys, row_unit = np.unique(pair_code * len(names) + name_code, return_inverse=True)
    del pair_code, name_code
    order = np.argsort(row_unit, kind="stable")  # keeps input order within a unit
    unit_sizes = np.bincount(row_unit, minlength=keys.size)
    unit_pair = keys // len(names)
    unit_ids = names[keys % len(names)]

    unit_w = treated[order[np.cumsum(unit_sizes) - unit_sizes]]  # each unit's first row
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

    treated_units = np.bincount(unit_pair, weights=unit_w, minlength=pair_ids.size)
    units = np.bincount(unit_pair, minlength=pair_ids.size)
    degenerate = (treated_units == 0) | (treated_units == units)
    if np.any(degenerate):
        p = int(np.argmax(degenerate))
        raise DegeneratePair(
            f"pair {pair_ids[p]!r} has no treated/control contrast "
            f"(treatments: {[int(treated_units[p] > 0)]}, units: {units[p]})"
        )
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
    n = len(rows)
    return canonicalize(
        list(map(str, pair_col)),
        list(map(str, unit_col)),
        np.fromiter(map(_binary_code, w_col), np.int8, n),
        np.fromiter(map(float, y_col), float, n),
        lambda k: rows[k][2],
    )
