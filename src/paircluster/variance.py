"""Cluster-robust variance estimators for paired and stratified experiments.

Every statistic the package reports or tallies comes from one kernel,
``unit_sum_stats``: both fits and all four clustered variances from
per-unit outcome sums, unit sizes and the assignment, for any number of
units per block and unequal unit sizes.  ``variance_set``, ``analyze``
and the Monte Carlo engine all call it.

The rest of this module is independent reference implementations that
the tests check the kernel against.  The generic sandwich
``cluster_robust_covariance`` works for any design matrix and clustering
level (including singleton clusters, i.e. the heteroskedasticity-robust
case).  For paired designs with exactly two units per pair (read through
``ExperimentData.pair_columns``), closed forms replace the matrix
algebra.  Each pair p contributes two unit scores a_p and b_p; clustering
by pair sums (a_p + b_p)^2 and clustering by unit sums a_p^2 + b_p^2.
The scores are

no fixed effects      a_p = SET_p/T,           b_p = -SEU_p/C
fixed effects         a_p = w_p S_p / n1p,     b_p = w_p S_p / n2p

where SET_p/SEU_p are the treated/control residual sums in pair p, S_p
the treated residual sum of the FE fit, n1p/n2p the two unit sizes and
w_p the harmonic pair weights of ``estimators.pair_weights``.  All
estimators are the raw cluster-robust forms; use ``dof_adjust`` for the
n/(n-K) software convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Assignment, ExperimentData
from .errors import (
    DegenerateDOF,
    DegeneratePair,
    NoVariationInTreatment,
    RankDeficient,
    ReplicationError,
    ShapeMismatch,
    ZeroResiduals,
    ZeroVariance,
)
from .estimators import FitResult, PairEffects, pair_weights

__all__ = [
    "UnitStats",
    "unit_sum_stats",
    "dataset_stats",
    "VarianceSet",
    "RatioDecomposition",
    "cluster_robust_covariance",
    "pair_clustered_variance",
    "unit_clustered_variance",
    "dof_adjust",
    "pair_sample_variance",
    "fe_variance_ratio",
    "variance_set",
]


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


def cluster_robust_covariance(design, residuals, cluster_ids) -> np.ndarray:
    """Sandwich covariance (X'X)^-1 (sum_c s_c s_c') (X'X)^-1.

    ``s_c`` is the cluster score: the residual-weighted sum of regressor
    rows within cluster c.  Pass per-observation labels in ``cluster_ids``;
    distinct labels mean distinct clusters, so ``range(n)`` gives the
    heteroskedasticity-robust (singleton-cluster) estimator.
    """
    X = np.asarray(design, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ShapeMismatch(f"design must be 1-D or 2-D, got shape {X.shape}")
    e = np.asarray(residuals, dtype=float).reshape(-1)
    n, k = X.shape
    if e.size != n:
        raise ShapeMismatch(f"{n} design rows but {e.size} residuals")
    labels = np.asarray(cluster_ids)
    if labels.size != n:
        raise ShapeMismatch(f"{n} design rows but {labels.size} cluster labels")
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficient(f"design matrix has rank < {k}")
    codes = np.unique(labels, return_inverse=True)[1]
    n_clusters = int(codes.max()) + 1
    scores = np.empty((n_clusters, k))
    for j in range(k):
        scores[:, j] = np.bincount(codes, weights=e * X[:, j], minlength=n_clusters)
    gram = X.T @ X
    meat = scores.T @ scores
    cov = np.linalg.solve(gram, np.linalg.solve(gram, meat).T).T
    return (cov + cov.T) / 2.0


def _check_fit(data: ExperimentData, fit: FitResult, model_kind: str):
    if fit.model_kind != model_kind:
        raise ValueError(f"expected a {model_kind!r} fit, got {fit.model_kind!r}")
    if fit.residuals.size != data.n_total:
        raise ShapeMismatch("fit residuals do not match the dataset size")


def _residual_sums(data, assignment, residuals) -> tuple[np.ndarray, np.ndarray]:
    """Treated and control residual sums per pair."""
    w_obs = assignment.observation_vector(data)
    set_p = np.bincount(data.obs_pair, weights=residuals * w_obs, minlength=data.P)
    seu_p = np.bincount(data.obs_pair, weights=residuals * ~w_obs, minlength=data.P)
    return set_p, seu_p


def _pair_scores(data, assignment, fit: FitResult) -> np.ndarray:
    """The (P, 2) unit scores a_p, b_p of a closed form, for either model."""
    sizes = data.pair_columns(data.unit_sizes).astype(float)
    _check_fit(data, fit, fit.model_kind)
    set_p, seu_p = _residual_sums(data, assignment, fit.residuals)
    if fit.model_kind == "nofe":
        T, C = assignment.totals(data)
        return np.column_stack([set_p / T, -seu_p / C])
    return (pair_weights(data) * set_p)[:, None] / sizes


def pair_clustered_variance(
    data: ExperimentData, assignment: Assignment, fit: FitResult
) -> float:
    """Closed-form variance with one cluster per pair (PCVE)."""
    return float(np.sum(_pair_scores(data, assignment, fit).sum(axis=1) ** 2))


def unit_clustered_variance(
    data: ExperimentData, assignment: Assignment, fit: FitResult
) -> float:
    """Closed-form variance with one cluster per randomization unit (UCVE)."""
    return float(np.sum(_pair_scores(data, assignment, fit) ** 2))


def dof_adjust(variance: float, n_obs: int, n_params: int) -> float:
    """Multiply by n/(n-K), the degrees-of-freedom convention of most software."""
    if n_obs <= n_params:
        raise DegenerateDOF(f"n={n_obs} must exceed K={n_params}")
    return variance * n_obs / (n_obs - n_params)


def pair_sample_variance(effects: PairEffects) -> float:
    """Sample variance of the per-pair effects: (1/P^2) sum_p (tau_p - mean)^2.

    Equals the pair-clustered variance of the difference in means when all
    units have the same number of observations.
    """
    tau_p = effects.tau_p
    center = float(tau_p.mean())
    return float(np.sum((tau_p - center) ** 2)) / effects.P**2


@dataclass(frozen=True, eq=False)
class RatioDecomposition:
    """Unit/pair variance ratio for the FE fit as a weighted mean.

    ``ratio = sum_p m_p * zeta_p`` where ``m_p`` is the sum of squared
    within-pair unit shares (between 1/2 and 1) and ``zeta_p`` weights
    pairs by their squared residual sums.  Balanced pairs give exactly
    1/2; a 2:1 size split gives 5/9.
    """

    m_p: np.ndarray
    zeta_p: np.ndarray
    ratio: float

    def __post_init__(self):
        m = np.asarray(self.m_p, dtype=float)
        z = np.asarray(self.zeta_p, dtype=float)
        m.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "m_p", m)
        object.__setattr__(self, "zeta_p", z)


def fe_variance_ratio(data: ExperimentData, fit: FitResult) -> RatioDecomposition:
    """Decompose unit/pair clustered variance ratio of an FE fit.

    Uses only the fit residuals: within-pair residual sums cancel, so the
    squared treated-side sum equals the squared first-unit sum and the
    assignment is not needed.
    """
    sizes = data.pair_columns(data.unit_sizes).astype(float)
    _check_fit(data, fit, "fe")
    m_p = np.sum((sizes / sizes.sum(axis=1, keepdims=True)) ** 2, axis=1)
    unit_sums = np.bincount(data.obs_unit, weights=fit.residuals, minlength=data.n_units)
    s_sq = data.pair_columns(unit_sums)[:, 0] ** 2
    total = float(s_sq.sum())
    if total == 0.0:
        raise ZeroResiduals("all within-pair residual sums are zero; ratio undefined")
    zeta_p = s_sq / total
    return RatioDecomposition(m_p=m_p, zeta_p=zeta_p, ratio=float(m_p @ zeta_p))


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
