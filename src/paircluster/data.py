"""Experiment data model.

A dataset is a collection of pairs (or strata) of two or more
randomization units, each unit holding one or more observed outcomes.
It is stored as flat arrays in canonical order: pairs sorted by id,
units sorted by id within each pair, and each unit's outcomes in input
order, so results never depend on input row order.  ``dataio`` builds
it from rows or a CSV file; arrays built directly must equal what its
``validate_dataset`` makes of their own rows.  All types are immutable
after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssignmentMismatch, DataError, DegeneratePair, NonBinaryTreatment, NotPaired

__all__ = ["ExperimentData", "Assignment"]

_NUMBER = (int, float, np.bool_, np.integer, np.floating)


def _binary_code(value) -> int:
    """0 or 1 for a binary treatment value (bools and numbers equal to 0/1), else -1."""
    if isinstance(value, _NUMBER) and (value == 0 or value == 1):
        return int(value)
    return -1


def _frozen(values, dtype=None) -> np.ndarray:
    return _read_only(np.array(values, dtype=dtype).reshape(-1))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only: for arrays made fresh, which need no copy."""
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
    The per-observation indexes, the units per pair and
    ``centred_unit_sums``, the one per-unit outcome sum every statistic
    reads, are computed on each access, never stored.  Built directly, the
    arrays must equal ``dataio.validate_dataset`` of their own rows;
    ``dataio.canonicalize`` uses the private ``_canonical``, which checks
    only that outcomes are finite.
    """

    outcomes: np.ndarray
    unit_pair: np.ndarray
    unit_sizes: np.ndarray
    pair_ids: np.ndarray
    unit_ids: np.ndarray

    def __post_init__(self):
        for name, dtype in _FIELDS:
            try:
                object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
            except OverflowError:  # a Python int beyond int64
                raise ValueError(f"{name} has an entry {np.dtype(dtype)} cannot hold") from None
        if not (self.unit_pair.size == self.unit_sizes.size == self.unit_ids.size):
            raise ValueError("unit_pair, unit_sizes and unit_ids need one entry per unit")
        if np.any((self.unit_pair < 0) | (self.unit_pair >= self.P)):
            raise ValueError("unit_pair must hold pair indexes in [0, P)")
        # summed as Python ints: int64 sizes that wrap around would crash np.repeat
        if np.any(self.unit_sizes < 0) or self.outcomes.size != sum(self.unit_sizes.tolist()):
            raise ValueError("unit sizes must be >= 0 and add up to the number of outcomes")
        from .dataio import validate_dataset  # dataio imports this module
        first = (np.diff(self.unit_pair, prepend=-1) != 0)[self.obs_unit]  # treated units
        rows = zip(self.pair_ids[self.obs_pair].tolist(), self.unit_ids[self.obs_unit].tolist(),
                   first.tolist(), self.outcomes.tolist())
        canonical, _ = validate_dataset(rows)
        labels = {"pair_ids": "pair id", "unit_ids": "unit id", "unit_pair": "pair index",
                  "unit_sizes": "unit size", "outcomes": "outcome"}  # ids before layout
        for name, label in labels.items():
            ours, theirs = getattr(self, name).tolist(), getattr(canonical, name).tolist()
            if ours != theirs:  # theirs is never the longer
                k = next((k for k, (a, b) in enumerate(zip(ours, theirs)) if a != b), len(theirs))
                raise ValueError(f"{label} {ours[k]!r} at {name}[{k}] differs from "
                                 "validate_dataset of the dataset's own rows")

    @classmethod
    def _canonical(cls, *arrays) -> ExperimentData:
        data = cls.__new__(cls)  # arrays canonical by construction: no id or order checks
        data.__dict__.update((name, _frozen(a, dtype)) for (name, dtype), a in zip(_FIELDS, arrays))
        finite = np.isfinite(data.outcomes)
        if not finite.all():
            u = data.obs_unit[int(np.argmin(finite))]
            raise DataError(f"unit {data.unit_ids[u]!r} has non-finite outcomes")
        return data

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

    @property
    def obs_unit(self) -> np.ndarray:
        """Unit index of each observation."""
        return _read_only(np.repeat(np.arange(self.n_units, dtype=np.intp), self.unit_sizes))

    @property
    def obs_pair(self) -> np.ndarray:
        """Pair index of each observation."""
        return _read_only(np.repeat(self.unit_pair, self.unit_sizes))

    @property
    def pair_unit_counts(self) -> np.ndarray:
        """Units per pair."""
        counts = np.bincount(self.unit_pair, minlength=self.P)
        return _read_only(counts.astype(np.int64, copy=False))

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


def check_contrast(unit_pair, treated, pair_ids) -> tuple[np.ndarray, np.ndarray]:
    """``DegeneratePair`` names the first pair without a treated and a control unit;
    else each pair's treated units (as floats) and units."""
    treated_units = np.bincount(unit_pair, weights=treated, minlength=pair_ids.size)
    units = np.bincount(unit_pair, minlength=pair_ids.size)
    degenerate = (treated_units == 0) | (treated_units == units)
    if np.any(degenerate):
        p = int(np.argmax(degenerate))
        raise DegeneratePair(
            f"pair {pair_ids[p]!r} has no treated/control contrast "
            f"(treatments: {[int(treated_units[p] > 0)]}, units: {units[p]})"
        )
    return treated_units, units
