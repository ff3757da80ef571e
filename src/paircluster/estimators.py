"""Point estimators for the average treatment effect.

Two regressions are supported: outcome on a constant and the treatment
indicator (difference in means), and outcome on the treatment indicator
plus one dummy per pair/stratum.  The fixed-effects fit is computed by
within-block demeaning, which is O(n) and leaves the same residuals as
the explicit dummy regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData
from .errors import DegeneratePair, NoVariationInTreatment

__all__ = ["FitResult", "PairEffects", "diff_in_means", "fe_estimate", "pair_effects",
           "pair_weights"]


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fitted treatment-effect regression.

    ``intercepts`` is the scalar constant for the no-FE model and the
    per-pair intercept vector (canonical pair order) for the FE model.
    ``residuals`` aligns with the dataset's canonical observation order.
    ``K`` is the regressor count: 2 without fixed effects, P + 1 with.
    """

    tau_hat: float
    intercepts: float | np.ndarray
    residuals: np.ndarray
    model_kind: str  # "nofe" | "fe"
    K: int

    def __post_init__(self):
        resid = np.asarray(self.residuals, dtype=float)
        resid.setflags(write=False)
        object.__setattr__(self, "residuals", resid)


@dataclass(frozen=True, eq=False)
class PairEffects:
    """Per-pair effect estimates and the weights aggregating them."""

    tau_p: np.ndarray
    omega_p: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau_p, dtype=float)
        omega = np.asarray(self.omega_p, dtype=float)
        if tau.shape != omega.shape:
            raise ValueError("tau_p and omega_p must align")
        tau.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "tau_p", tau)
        object.__setattr__(self, "omega_p", omega)

    @property
    def P(self) -> int:
        return int(self.tau_p.size)

    def weighted_mean(self) -> float:
        return float(self.omega_p @ self.tau_p)


def diff_in_means(data: ExperimentData, assignment: Assignment) -> FitResult:
    """OLS of the outcome on a constant and the treatment indicator.

    The slope is the difference in means; the intercept is the control
    mean (the exact least-squares solution for a binary regressor).
    """
    w_unit = assignment.unit_vector(data)
    T = int(data.unit_sizes[w_unit].sum())
    C = data.n_total - T
    if T == 0 or C == 0:
        raise NoVariationInTreatment("need at least one treated and one control observation")
    sum_treated = float(data.unit_sums[w_unit].sum())
    sum_control = float(data.unit_sums.sum() - sum_treated)
    alpha = sum_control / C
    tau = sum_treated / T - alpha
    w_obs = w_unit[data.obs_unit]
    residuals = data.outcomes - alpha - tau * w_obs
    return FitResult(tau_hat=tau, intercepts=alpha, residuals=residuals, model_kind="nofe", K=2)


def fe_estimate(data: ExperimentData, assignment: Assignment) -> FitResult:
    """OLS of the outcome on the treatment indicator and pair dummies.

    Estimated via the within transformation: demean outcome and treatment
    within each pair, regress one on the other.  Residual sums are zero
    within every pair by construction.
    """
    w_unit = assignment.unit_vector(data)
    t_p, c_p = assignment.per_pair_counts(data)
    if np.any(t_p == 0) or np.any(c_p == 0):
        bad = data.pair_ids[int(np.argmax((t_p == 0) | (c_p == 0)))]
        raise DegeneratePair(f"pair {bad!r} lacks a treated/control contrast")
    wbar_p = t_p / data.pair_sizes
    w_obs = w_unit[data.obs_unit].astype(float)
    x = w_obs - wbar_p[data.obs_pair]
    ybar_p = (
        np.bincount(data.obs_pair, weights=data.outcomes, minlength=data.P)
        / data.pair_sizes
    )
    y_demeaned = data.outcomes - ybar_p[data.obs_pair]
    denom = float(x @ x)
    tau = float(x @ y_demeaned) / denom
    residuals = y_demeaned - tau * x
    gamma_p = ybar_p - tau * wbar_p
    return FitResult(
        tau_hat=tau,
        intercepts=gamma_p,
        residuals=residuals,
        model_kind="fe",
        K=data.P + 1,
    )


def pair_weights(data: ExperimentData) -> np.ndarray:
    """Harmonic mean of each pair's two unit sizes, normalized to sum to one.

    Under equal within-pair sizes the weights are proportional to pair size.
    """
    sizes = data.pair_columns(data.unit_sizes).astype(float)
    harmonic = 1.0 / (1.0 / sizes[:, 0] + 1.0 / sizes[:, 1])
    return harmonic / harmonic.sum()


def pair_effects(data: ExperimentData, assignment: Assignment) -> PairEffects:
    """Within-pair treated-minus-control mean differences, weighted by ``pair_weights``."""
    omega_p = pair_weights(data)
    w_mat = data.pair_columns(assignment.unit_vector(data))
    if np.any(w_mat.sum(axis=1) != 1):
        bad = data.pair_ids[int(np.argmax(w_mat.sum(axis=1) != 1))]
        raise DegeneratePair(f"pair {bad!r} does not have exactly one treated unit")
    means = data.pair_columns(data.unit_means)
    first_treated = w_mat[:, 0]
    tau_p = np.where(first_treated, means[:, 0] - means[:, 1], means[:, 1] - means[:, 0])
    return PairEffects(tau_p=tau_p, omega_p=omega_p)
