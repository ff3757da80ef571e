"""Cluster-robust variance estimators for paired and stratified experiments.

Every statistic the package reports or tallies comes from one kernel,
``unit_sum_stats``: both fits (the difference in means and the
block fixed-effects regression) and all four clustered variances (by
unit and by block, each with and without fixed effects) from per-unit
outcome sums, unit sizes and the assignment, for any number of units per
block and unequal unit sizes.  ``dataset_stats`` feeds it a dataset,
``VarianceSet``/``variance_set`` carry the variances with their
degrees-of-freedom factors, and ``report.analyze`` and the Monte Carlo
engine call it.  All estimators are the raw cluster-robust forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Assignment, ExperimentData
from .errors import DegeneratePair, NoVariationInTreatment, ReplicationError, ZeroVariance

__all__ = ["UnitStats", "unit_sum_stats", "dataset_stats", "VarianceSet", "variance_set"]


class UnitStats(NamedTuple):
    """Both effect estimates and the four raw variances; a block is a pair or stratum."""

    tau_nofe: float
    tau_fe: float
    unit_nofe: float
    block_nofe: float
    unit_fe: float
    block_fe: float


def unit_sum_stats(sums, sizes, treated, block, n_blocks, n_obs) -> UnitStats:
    """Both fits and all four raw clustered variances from unit sums.

    ``sums`` and ``sizes`` are each unit's outcome sum and observation
    count, ``treated`` its treatment, ``block`` its block index in
    ``range(n_blocks)``, and ``n_obs`` the total observation count.  The
    fits and the cluster scores depend on the data only through these, so
    any number of units per block and any unit sizes are handled.

    A (rows, units) ``treated`` holds one replication per row, with (rows,
    units) ``sums`` or shared (units,) ones, and gives (rows,) fields; its
    first failing row, here also by a variance <= 0, raises ReplicationError.
    """
    tf = np.atleast_2d(treated).astype(float)
    flat = (block + n_blocks * np.arange(len(tf))[:, None]).ravel()  # one bin per (row, block)

    def block_sums(values):  # per row of (rows, units) values; shared for (units,) ones
        if values.ndim == 1:
            return np.bincount(block, values, n_blocks)
        return np.bincount(flat, values.ravel(), len(tf) * n_blocks).reshape(-1, n_blocks)

    def row_dot(a, b):  # per row, the same BLAS dot as a 1-D ``a @ b``
        return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]

    def variances(base, slope, x, weight, denom):  # of scores weight * residual, in place
        scores = slope[:, None] * x  # the residual is sums - sizes * (base + slope * x)
        scores += base
        scores *= sizes
        np.subtract(sums, scores, out=scores)
        scores *= weight
        block_scores = block_sums(scores)
        return row_dot(scores, scores) / denom**2, row_dot(block_scores, block_scores) / denom**2

    T = row_dot(tf, sizes)
    C = n_obs - T
    treated_b = block_sums(sizes * tf)
    size_b = block_sums(sizes)
    degenerate = (treated_b == 0) | (treated_b == size_b)
    with np.errstate(divide="ignore", invalid="ignore"):  # only in rows that fail below
        sum_t = row_dot(tf, sums)
        alpha = (sums.sum(axis=-1) - sum_t) / C
        tau = sum_t / T - alpha
        x = tf - (T / n_obs)[:, None]
        unit_nofe, block_nofe = variances(alpha[:, None], tau, tf, x, T * C / n_obs)

        x_fe = tf - np.take(treated_b / size_b, block, axis=-1)
        denom_fe = row_dot(x_fe * x_fe, sizes)
        tau_fe = row_dot(x_fe, sums) / denom_fe
        mean_b = np.take(block_sums(sums) / size_b, block, axis=-1)
        unit_fe, block_fe = variances(mean_b, tau_fe, x_fe, x_fe, denom_fe)

    stats = UnitStats(tau, tau_fe, unit_nofe, block_nofe, unit_fe, block_fe)
    failed = degenerate.any(axis=1)  # so is every row without treatment variation
    if batch := np.ndim(treated) == 2:
        failed |= np.min(stats[2:], axis=0) <= 0.0
    if failed.any():
        row = int(np.argmax(failed))
        if T[row] == 0 or C[row] == 0:
            cause = NoVariationInTreatment("all units share one treatment status")
        elif degenerate[row].any():
            first = np.argmax(degenerate[row])
            cause = DegeneratePair(f"block {first} lacks a treated/control contrast")
        else:
            cause = ZeroVariance("a clustered variance estimate is zero")
        raise ReplicationError(row, cause) if batch else cause
    return stats if batch else UnitStats(*(float(v[0]) for v in stats))


def dataset_stats(data: ExperimentData, assignment: Assignment) -> UnitStats:
    """``unit_sum_stats`` of a dataset under an assignment, blocks being pairs."""
    treated = assignment.unit_vector(data)
    sizes = data.unit_sizes.astype(float)
    return unit_sum_stats(
        data.centred_unit_sums, sizes, treated, data.unit_pair, data.P, data.n_total
    )


@dataclass(frozen=True)
class VarianceSet:
    """All four clustered variance estimators for one dataset/assignment.

    Values are raw (no degrees-of-freedom factor); ``dof_factors`` carries
    the n/(n-K) factor of each estimator's model and
    ``pair_small_sample_factor`` the P/(P-1) pair-level correction, so
    callers can apply either convention.
    """

    pair_nofe: float
    unit_nofe: float
    pair_fe: float
    unit_fe: float
    dof_factors: dict
    pair_small_sample_factor: float

    def value(self, cluster: str, model: str) -> float:
        return getattr(self, f"{cluster}_{model}")

    @classmethod
    def from_stats(cls, data: ExperimentData, stats: UnitStats) -> "VarianceSet":
        """The four variances of ``dataset_stats(data, ...)`` with their factors."""
        n, P = data.n_total, data.P
        dof_nofe, dof_fe = (n / (n - k) if n > k else float("nan") for k in (2, P + 1))
        return cls(
            pair_nofe=stats.block_nofe,
            unit_nofe=stats.unit_nofe,
            pair_fe=stats.block_fe,
            unit_fe=stats.unit_fe,
            dof_factors={
                "pair_nofe": dof_nofe,
                "unit_nofe": dof_nofe,
                "pair_fe": dof_fe,
                "unit_fe": dof_fe,
            },
            pair_small_sample_factor=P / (P - 1) if P > 1 else float("nan"),
        )


def variance_set(data: ExperimentData, assignment: Assignment) -> VarianceSet:
    """The four clustered variance estimators, for any block size."""
    return VarianceSet.from_stats(data, dataset_stats(data, assignment))
