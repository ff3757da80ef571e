"""Experiment data model.

A dataset is a collection of pairs (or strata) of randomization units,
each unit holding one or more observed outcomes.  Construction
canonicalizes order: pairs sorted lexicographically by id, units sorted
within each pair, so results never depend on input row order.  All types
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AssignmentMismatch,
    DegeneratePair,
    EmptyInput,
    MixedTreatmentWithinUnit,
    NonBinaryTreatment,
)

__all__ = [
    "UnitBlock",
    "PairBlock",
    "ExperimentData",
    "Assignment",
    "PotentialData",
    "validate_dataset",
    "subset_pairs",
]


def _as_binary(value, context: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        if value == 0:
            return 0
        if value == 1:
            return 1
    raise NonBinaryTreatment(f"treatment must be 0 or 1, got {value!r} ({context})")


@dataclass(frozen=True, eq=False)
class UnitBlock:
    """One randomization unit: an opaque id and its observed outcomes."""

    unit_id: str
    outcomes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.outcomes, dtype=float, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError(f"unit {self.unit_id!r} has no outcomes")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"unit {self.unit_id!r} has non-finite outcomes")
        arr.setflags(write=False)
        object.__setattr__(self, "outcomes", arr)

    @property
    def n_obs(self) -> int:
        return int(self.outcomes.size)

    @property
    def mean(self) -> float:
        return float(self.outcomes.mean())

    def __eq__(self, other):
        return (
            isinstance(other, UnitBlock)
            and self.unit_id == other.unit_id
            and np.array_equal(self.outcomes, other.outcomes)
        )


@dataclass(frozen=True, eq=False)
class PairBlock:
    """A pair (or stratum) of randomization units sharing one block id."""

    pair_id: str
    units: tuple[UnitBlock, ...]

    def __post_init__(self):
        units = tuple(sorted(self.units, key=lambda u: u.unit_id))
        if not units:
            raise ValueError(f"pair {self.pair_id!r} has no units")
        ids = [u.unit_id for u in units]
        if len(set(ids)) != len(ids):
            raise ValueError(f"pair {self.pair_id!r} has duplicate unit ids")
        object.__setattr__(self, "units", units)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_obs(self) -> int:
        return sum(u.n_obs for u in self.units)

    def __eq__(self, other):
        return (
            isinstance(other, PairBlock)
            and self.pair_id == other.pair_id
            and self.units == other.units
        )


class _Layout:
    """Flat array view of a dataset, computed once and cached.

    Everything downstream (estimators, variances, simulation) consumes
    these arrays; the nested blocks are the user-facing form only.
    """

    __slots__ = (
        "outcomes",
        "obs_unit",
        "obs_pair",
        "unit_pair",
        "unit_sizes",
        "unit_sums",
        "pair_sizes",
        "pair_unit_counts",
        "unit_keys",
        "pair_ids",
        "n",
        "n_units",
        "n_pairs",
    )

    def __init__(self, data: "ExperimentData"):
        unit_keys: list[tuple[str, str]] = []
        unit_pair: list[int] = []
        sizes: list[int] = []
        chunks: list[np.ndarray] = []
        pair_unit_counts: list[int] = []
        for ip, pair in enumerate(data.pairs):
            pair_unit_counts.append(pair.n_units)
            for unit in pair.units:
                unit_keys.append((pair.pair_id, unit.unit_id))
                unit_pair.append(ip)
                sizes.append(unit.n_obs)
                chunks.append(unit.outcomes)
        self.unit_keys = unit_keys
        self.pair_ids = [p.pair_id for p in data.pairs]
        self.unit_pair = np.asarray(unit_pair, dtype=np.intp)
        self.unit_sizes = np.asarray(sizes, dtype=np.int64)
        self.pair_unit_counts = np.asarray(pair_unit_counts, dtype=np.int64)
        self.outcomes = np.concatenate(chunks)
        self.n = int(self.outcomes.size)
        self.n_units = len(unit_keys)
        self.n_pairs = len(data.pairs)
        self.obs_unit = np.repeat(np.arange(self.n_units, dtype=np.intp), self.unit_sizes)
        self.obs_pair = self.unit_pair[self.obs_unit]
        self.unit_sums = np.bincount(
            self.obs_unit, weights=self.outcomes, minlength=self.n_units
        )
        self.pair_sizes = np.bincount(
            self.unit_pair, weights=self.unit_sizes, minlength=self.n_pairs
        ).astype(np.int64)

    @property
    def unit_means(self) -> np.ndarray:
        return self.unit_sums / self.unit_sizes

    @property
    def centred_unit_sums(self) -> np.ndarray:
        """Unit sums of the outcomes minus their global mean.

        Centring each observation, not the sums, keeps full precision under a
        large common offset.  Block means would not do: the no-FE fit is not
        invariant to per-block shifts.
        """
        centred = self.outcomes - self.outcomes.mean()
        return np.bincount(self.obs_unit, weights=centred, minlength=self.n_units)


@dataclass(frozen=True, eq=False)
class ExperimentData:
    """Canonical in-memory dataset: sorted pairs of units with outcomes."""

    pairs: tuple[PairBlock, ...]

    def __post_init__(self):
        pairs = tuple(sorted(self.pairs, key=lambda p: p.pair_id))
        if not pairs:
            raise EmptyInput("dataset has no pairs")
        ids = [p.pair_id for p in pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pair ids")
        for pair in pairs:
            if pair.n_units < 2:
                raise ValueError(
                    f"pair {pair.pair_id!r} has {pair.n_units} unit(s); need at least 2"
                )
        object.__setattr__(self, "pairs", pairs)

    @property
    def P(self) -> int:
        """Number of pairs/strata."""
        return len(self.pairs)

    @property
    def n_total(self) -> int:
        return sum(p.n_obs for p in self.pairs)

    @property
    def n_units(self) -> int:
        return sum(p.n_units for p in self.pairs)

    def layout(self) -> _Layout:
        cached = getattr(self, "_layout", None)
        if cached is None:
            cached = _Layout(self)
            object.__setattr__(self, "_layout", cached)
        return cached

    def unit_ids(self) -> list[tuple[str, str]]:
        """(pair_id, unit_id) keys in canonical order."""
        return list(self.layout().unit_keys)

    def __eq__(self, other):
        return isinstance(other, ExperimentData) and self.pairs == other.pairs


@dataclass(frozen=True, eq=False)
class Assignment:
    """One draw of the treatment: (pair_id, unit_id) -> 0/1 indicator."""

    treated: Mapping[tuple[str, str], int]

    def __post_init__(self):
        clean = {}
        for key, value in dict(self.treated).items():
            pair_id, unit_id = key
            clean[(str(pair_id), str(unit_id))] = _as_binary(
                value, f"unit {unit_id!r} in pair {pair_id!r}"
            )
        object.__setattr__(self, "treated", clean)

    def unit_vector(self, data: ExperimentData) -> np.ndarray:
        """Boolean indicator aligned with the dataset's canonical unit order."""
        keys = data.layout().unit_keys
        if len(self.treated) != len(keys):
            raise AssignmentMismatch(
                f"assignment covers {len(self.treated)} units, dataset has {len(keys)}"
            )
        try:
            return np.fromiter(
                (bool(self.treated[k]) for k in keys), dtype=bool, count=len(keys)
            )
        except KeyError as missing:
            raise AssignmentMismatch(f"assignment missing unit {missing.args[0]!r}") from None

    def observation_vector(self, data: ExperimentData) -> np.ndarray:
        lay = data.layout()
        return self.unit_vector(data)[lay.obs_unit]

    def per_pair_counts(self, data: ExperimentData) -> tuple[np.ndarray, np.ndarray]:
        """(treated, control) observation counts per pair, canonical order."""
        lay = data.layout()
        w = self.unit_vector(data)
        t_p = np.bincount(
            lay.unit_pair, weights=lay.unit_sizes * w, minlength=lay.n_pairs
        ).astype(np.int64)
        return t_p, lay.pair_sizes - t_p

    def totals(self, data: ExperimentData) -> tuple[int, int]:
        """(treated, control) observation counts over the whole dataset."""
        t_p, c_p = self.per_pair_counts(data)
        return int(t_p.sum()), int(c_p.sum())

    def __eq__(self, other):
        return isinstance(other, Assignment) and self.treated == other.treated


@dataclass(frozen=True, eq=False)
class PotentialData:
    """Per-observation potential outcomes aligned with a dataset's layout.

    ``y0``/``y1`` are what each observation would record under control and
    treatment; their difference is the observation-level treatment effect.
    """

    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self):
        y0 = np.array(self.y0, dtype=float, copy=True).reshape(-1)
        y1 = np.array(self.y1, dtype=float, copy=True).reshape(-1)
        if y0.shape != y1.shape:
            raise ValueError("y0 and y1 must have identical shapes")
        y0.setflags(write=False)
        y1.setflags(write=False)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)

    def effects(self) -> np.ndarray:
        return self.y1 - self.y0

    def observed(self, data: ExperimentData, assignment: Assignment) -> np.ndarray:
        lay = data.layout()
        if self.y0.size != lay.n:
            raise ValueError("potential outcomes do not match the dataset size")
        w_obs = assignment.observation_vector(data)
        return np.where(w_obs, self.y1, self.y0)

    def unit_means(self, data: ExperimentData, d: int) -> np.ndarray:
        lay = data.layout()
        y = self.y1 if d == 1 else self.y0
        return np.bincount(lay.obs_unit, weights=y, minlength=lay.n_units) / lay.unit_sizes


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

    outcomes: dict[tuple[str, str], list[float]] = {}
    treatment: dict[tuple[str, str], int] = {}
    pair_units: dict[str, list[str]] = {}
    for row in rows:
        try:
            pair_id, unit_id, w_raw, y_raw = row
        except ValueError:
            raise ValueError(f"expected 4 fields per row, got {row!r}") from None
        pair_id = str(pair_id)
        unit_id = str(unit_id)
        key = (pair_id, unit_id)
        w = _as_binary(w_raw, f"unit {unit_id!r} in pair {pair_id!r}")
        if key in treatment:
            if treatment[key] != w:
                raise MixedTreatmentWithinUnit(
                    f"unit {unit_id!r} in pair {pair_id!r} has both treated and control rows"
                )
        else:
            treatment[key] = w
            pair_units.setdefault(pair_id, []).append(unit_id)
        outcomes.setdefault(key, []).append(float(y_raw))

    pairs = []
    for pair_id in sorted(pair_units):
        unit_ids = sorted(pair_units[pair_id])
        statuses = {treatment[(pair_id, uid)] for uid in unit_ids}
        if statuses != {0, 1}:
            raise DegeneratePair(
                f"pair {pair_id!r} has no treated/control contrast "
                f"(treatments: {sorted(statuses)}, units: {len(unit_ids)})"
            )
        units = tuple(
            UnitBlock(uid, np.asarray(outcomes[(pair_id, uid)], dtype=float))
            for uid in unit_ids
        )
        pairs.append(PairBlock(pair_id, units))

    data = ExperimentData(tuple(pairs))
    assignment = Assignment(dict(treatment))
    return data, assignment


def subset_pairs(
    data: ExperimentData, assignment: Assignment, pair_ids: Iterable[str]
) -> tuple[ExperimentData, Assignment]:
    """Restrict a dataset and its assignment to the given pair ids."""
    keep = set(pair_ids)
    missing = keep - {p.pair_id for p in data.pairs}
    if missing:
        raise ValueError(f"unknown pair ids: {sorted(missing)}")
    pairs = tuple(p for p in data.pairs if p.pair_id in keep)
    sub = ExperimentData(pairs)
    treated = {
        key: value for key, value in assignment.treated.items() if key[0] in keep
    }
    return sub, Assignment(treated)
