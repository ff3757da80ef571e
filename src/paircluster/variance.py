"""Cluster-robust variance estimators for paired and stratified experiments.

Every statistic the package reports or tallies comes from one kernel,
``unit_sum_stats``: both fits (the difference in means and the block
fixed-effects regression) and all four clustered variances (by block and
by unit, each without and with fixed effects) from per-unit outcome
sums, unit sizes, block indexes and the assignment, for any number of units
per block and unequal unit sizes, deriving every count from the sizes and
blocks as ``software_factors`` does; it checks nothing.  A rectangular design
(G contiguous units in every block, as in every Monte Carlo draw and a paired
dataset) of at least ``_SLOT_VALUES`` (row, block) values adds its block sums
slot by slot, any other by ``np.bincount``: both add each block's units in
order to a 0, so with the same bits.  ``UnitStats`` names each variance
by its test, the key ``analyze`` reports it under (``pair_fe``: a "pair" is a
block), in the order ``TESTS`` lists for every output.  ``variance_set`` feeds
the kernel a dataset, checks the assignment and refuses a statistic that
overflows; ``software_factors``, keyed by those names, gives the small-sample
factors that ``analyze`` reports and the Monte Carlo engine applies.  All estimators
are the raw cluster-robust forms, and every t-test rejects when |t| > ``critical_value(level)``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import Assignment, ExperimentData, check_contrast
from .dgp import _real
from .errors import EstimationError

__all__ = ["UnitStats", "unit_sum_stats", "variance_set", "software_factors", "critical_value"]

# OpenBLAS splits a dot of more than 10,000 elements across its threads, and
# the rounding then depends on the thread count.  ``row_dot`` adds up dots of
# at most this many units, each run on one thread; a row of no more units is
# one BLAS call, with the bits of a plain ``a @ b``.
_DOT_UNITS = 8192
# A rectangular design (G contiguous units a block) of at least this many (row, block) values
# adds block sums slot by slot; below it an add's fixed cost outweighs what bincount costs.
_SLOT_VALUES = 1024


def critical_value(level: float) -> float:
    """z with P(|N(0, 1)| > z) = ``level``: a two-sided normal test rejects when |t| > z.
    The one check of a test level: a ``ValueError`` unless it is a number in (2**-53, 1),
    since at or below 2**-53, 1 - level/2 rounds to 1, whose quantile is infinite."""
    level = _real("level", level)
    if not 2.0**-53 < level < 1.0:
        raise ValueError(f"level must be in (2**-53, 1), got {level!r}")
    from statistics import NormalDist  # here, so that ``import paircluster`` loads no more
    return NormalDist().inv_cdf(1.0 - level / 2.0)


class UnitStats(NamedTuple):
    """Both effect estimates and the four raw variances, each named by its test: clustered
    by pair (a block: a pair or stratum) or by unit, without and with pair fixed effects."""

    tau_nofe: float
    tau_fe: float
    pair_nofe: float
    unit_nofe: float
    pair_fe: float
    unit_fe: float


# The four tests: each ``UnitStats`` variance, in field order, with the estimate its t divides.
TESTS = {"pair_nofe": "tau_nofe", "unit_nofe": "tau_nofe", "pair_fe": "tau_fe", "unit_fe": "tau_fe"}


def unit_sum_stats(sums, sizes, treated, block) -> UnitStats:
    """Both fits and all four raw clustered variances from unit sums.

    ``sums`` and ``sizes`` are each unit's outcome sum and observation
    count, ``treated`` its treatment and ``block`` its block index, every
    block from 0 to the largest holding a unit.  The fits and the cluster
    scores depend on the data only through these, so any number of units
    per block and any unit sizes are handled.

    ``treated`` is (rows, units), one assignment per row, with (rows, units)
    ``sums`` or shared (units,) ones; every field is (rows,).  Every block
    of every row must hold a treated and a control unit.  The kernel checks
    nothing: ``variance_set`` checks an assignment from outside, and the
    Monte Carlo engine fails a replication whose variance is not positive.
    """
    tf, n_blocks, n_obs = treated.astype(float), int(block.max()) + 1, sizes.sum()
    G = block.size // n_blocks
    slotted = tf.size >= G * _SLOT_VALUES and np.array_equal(block, np.arange(block.size) // G)
    flat = None if slotted else (block + n_blocks * np.arange(len(tf))[:, None]).ravel()

    def block_sums(values):  # per row of (rows, units) values; shared for (units,) ones
        if slotted:  # G units a block, added slot by slot in bincount's order: its bits
            view = values.reshape(*values.shape[:-1], n_blocks, G)
            total = view[..., 0].copy()
            for g in range(1, G):
                total += view[..., g]
            return total
        if values.ndim == 1:
            return np.bincount(block, values, n_blocks)
        return np.bincount(flat, values.ravel(), len(tf) * n_blocks).reshape(-1, n_blocks)

    def row_dot(a, b):  # per row, BLAS dots of at most _DOT_UNITS units, added in order
        if a.shape[-1] <= _DOT_UNITS:
            return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]
        total = row_dot(a[:, :_DOT_UNITS], b[..., :_DOT_UNITS])
        for k in range(_DOT_UNITS, a.shape[-1], _DOT_UNITS):
            total += row_dot(a[:, k:k + _DOT_UNITS], b[..., k:k + _DOT_UNITS])
        return total

    def variances(base, slope, x, weight, denom):  # block, unit; scores weight * residual
        scores = slope[:, None] * x  # the residual is sums - sizes * (base + slope * x)
        scores += base
        scores *= sizes
        np.subtract(sums, scores, out=scores)
        scores *= weight
        block_scores = block_sums(scores)
        return row_dot(block_scores, block_scores) / denom**2, row_dot(scores, scores) / denom**2

    T = row_dot(tf, sizes)
    C = n_obs - T
    sum_t = row_dot(tf, sums)
    alpha = (sums.sum(axis=-1) - sum_t) / C
    tau = sum_t / T - alpha
    x = tf - (T / n_obs)[:, None]
    pair_nofe, unit_nofe = variances(alpha[:, None], tau, tf, x, T * C / n_obs)

    size_b = block_sums(sizes)
    x_fe = tf - np.take(block_sums(sizes * tf) / size_b, block, axis=-1)
    denom_fe = row_dot(x_fe * x_fe, sizes)
    tau_fe = row_dot(x_fe, sums) / denom_fe
    mean_b = np.take(block_sums(sums) / size_b, block, axis=-1)
    pair_fe, unit_fe = variances(mean_b, tau_fe, x_fe, x_fe, denom_fe)
    return UnitStats(tau, tau_fe, pair_nofe, unit_nofe, pair_fe, unit_fe)


def overflow_error(stats) -> EstimationError | None:
    """An ``EstimationError`` naming the first ``UnitStats`` field not finite, or None."""
    bad = [name for name, value in zip(UnitStats._fields, stats) if not np.isfinite(value)]
    return EstimationError(f"{bad[0]} overflows: the outcomes are too large") if bad else None


def variance_set(data: ExperimentData, assignment: Assignment) -> UnitStats:
    """``unit_sum_stats`` of a dataset under an assignment, as floats; blocks are pairs.
    The variances are raw: ``software_factors`` and P/(P-1) are the factors to apply.
    ``DegeneratePair`` names the first pair without a treated and a control unit, and
    ``EstimationError`` the first statistic that overflows."""
    return _variance_set(data, assignment, data.centred_unit_sums)


def _variance_set(data: ExperimentData, assignment: Assignment, sums: np.ndarray) -> UnitStats:
    """``variance_set`` on ``sums``, ``data.centred_unit_sums`` computed by the caller."""
    treated = assignment.unit_vector(data)
    check_contrast(data.unit_pair, treated, data.pair_ids)
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        stats = unit_sum_stats(sums, data.unit_sizes.astype(float), treated[None], data.unit_pair)
    stats = UnitStats(*(float(v[0]) for v in stats))
    if error := overflow_error(stats):
        raise error
    return stats


def software_factors(sizes, block) -> dict:
    """c/(c-1) * (n-1)/(n-K), regression software's small-sample factor, keyed and ordered
    like ``TESTS``, for units of ``sizes`` in blocks ``block`` as ``unit_sum_stats`` takes
    them: c clusters (blocks or units), n observations, and K = 2 parameters, or the
    block count + 1 with block fixed effects.  NaN where c <= 1 or n <= K."""
    n_blocks, n = int(block.max()) + 1, float(sizes.sum())
    def factor(key):
        c = n_blocks if key.startswith("pair") else sizes.size
        k = 2 if key.endswith("nofe") else n_blocks + 1
        return (c / (c - 1.0)) * ((n - 1.0) / (n - k)) if c > 1 and n > k else float("nan")
    return {key: factor(key) for key in TESTS}
