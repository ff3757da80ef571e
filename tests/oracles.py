"""Reference implementations the package's statistics are checked against.

The package computes every estimate and variance it reports or tallies
with one kernel, ``paircluster.variance.unit_sum_stats``.  The code here
computes the same numbers another way and exists only to check it:

- explicit fits: ``diff_in_means``, ``fe_estimate`` (within-pair
  demeaning, which leaves the same residuals as the dummy regression) and
  the per-pair effects ``pair_effects``;
- the generic sandwich ``cluster_robust_covariance``, which works for any
  design matrix and clustering level (including singleton clusters, i.e.
  the heteroskedasticity-robust case);
- closed forms for paired designs, the FE ratio decomposition and the
  degrees-of-freedom and pair-sample-variance identities;
- normal-reference t-tests with any null and reference variance;
- the observation-level generator ``simulate_strata``, the check on the
  Monte Carlo engine's unit-sum shortcut, and null resampling;
- the dict-based id ranking ``sorted_codes``.

Closed forms.  For paired designs with exactly two units per pair (read
through ``pair_columns``), closed forms replace the matrix
algebra.  Each pair p contributes two unit scores a_p and b_p; clustering
by pair sums (a_p + b_p)^2 and clustering by unit sums a_p^2 + b_p^2.
The scores are

no fixed effects      a_p = SET_p/T,           b_p = -SEU_p/C
fixed effects         a_p = w_p S_p / n1p,     b_p = w_p S_p / n2p

where SET_p/SEU_p are the treated/control residual sums in pair p, S_p
the treated residual sum of the FE fit, n1p/n2p the two unit sizes and
w_p the harmonic pair weights of ``pair_weights``.  All estimators are
the raw cluster-robust forms; use ``dof_adjust`` for the n/(n-K)
software convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from paircluster import (
    Assignment,
    DGPConfig,
    ExperimentData,
    Seed,
    draw_stratified_assignment,
)
from paircluster.data import _frozen
from paircluster.errors import (
    DegeneratePair,
    EstimationError,
    ZeroVariance,
)
from paircluster.randomize import uniform_to_normal


# -- errors only the oracles raise ---------------------------------------------


class NoVariationInTreatment(EstimationError):
    """All observations share one treatment status."""


class RankDeficient(EstimationError):
    """Design matrix does not have full column rank."""


class ShapeMismatch(EstimationError):
    """Array arguments have incompatible shapes."""


class DegenerateDOF(EstimationError):
    """Degrees-of-freedom correction undefined (n <= K)."""


class ZeroResiduals(EstimationError):
    """All cluster residual sums vanish; a variance ratio is undefined."""


# -- id ranking ------------------------------------------------------------------


def sorted_codes(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct stripped ids of a column in sorted order, and each row's index into them."""
    texts = set(column)
    ids = sorted({text.strip() for text in texts})
    index = dict(zip(ids, range(len(ids))))
    index.update({text: index[text.strip()] for text in texts - index.keys()})  # padded ids
    codes = np.fromiter(map(index.__getitem__, column), np.intp, len(column))
    return np.array(ids, dtype=object), codes


# -- per-pair counts ---------------------------------------------------------------


def pair_sizes(data: ExperimentData) -> np.ndarray:
    """Observations per pair."""
    sizes = np.bincount(data.unit_pair, weights=data.unit_sizes, minlength=data.P)
    return _frozen(sizes, np.int64)


def raw_unit_sums(data: ExperimentData) -> np.ndarray:
    """Outcome sum of each unit, not centred."""
    return np.bincount(data.obs_unit, weights=data.outcomes, minlength=data.n_units)


def per_pair_counts(data: ExperimentData, assignment: Assignment) -> tuple[np.ndarray, np.ndarray]:
    """(treated, control) observation counts per pair, canonical order."""
    w = assignment.unit_vector(data)
    t_p = np.bincount(
        data.unit_pair, weights=data.unit_sizes * w, minlength=data.P
    ).astype(np.int64)
    return t_p, pair_sizes(data) - t_p


def totals(data: ExperimentData, assignment: Assignment) -> tuple[int, int]:
    """(treated, control) observation counts over the whole dataset."""
    t_p, c_p = per_pair_counts(data, assignment)
    return int(t_p.sum()), int(c_p.sum())


def subset_pairs(
    data: ExperimentData, assignment: Assignment, pair_ids: Iterable[str]
) -> tuple[ExperimentData, Assignment]:
    """Restrict a dataset and its assignment to the given pair ids."""
    keep = set(pair_ids)
    missing = keep - set(data.pair_ids)
    if missing:
        raise ValueError(f"unknown pair ids: {sorted(missing)}")
    pair_mask = np.fromiter((p in keep for p in data.pair_ids), bool, data.P)
    unit_mask = pair_mask[data.unit_pair]
    sub = ExperimentData(
        data.outcomes[unit_mask[data.obs_unit]],
        (np.cumsum(pair_mask) - 1)[data.unit_pair[unit_mask]],
        data.unit_sizes[unit_mask],
        data.pair_ids[pair_mask],
        data.unit_ids[unit_mask],
    )
    return sub, Assignment(assignment.unit_vector(data)[unit_mask])


# -- explicit fits -------------------------------------------------------------------


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
    sums = raw_unit_sums(data)
    sum_treated = float(sums[w_unit].sum())
    sum_control = float(sums.sum() - sum_treated)
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
    t_p, c_p = per_pair_counts(data, assignment)
    if np.any(t_p == 0) or np.any(c_p == 0):
        bad = data.pair_ids[int(np.argmax((t_p == 0) | (c_p == 0)))]
        raise DegeneratePair(f"pair {bad!r} lacks a treated/control contrast")
    sizes_p = pair_sizes(data)
    wbar_p = t_p / sizes_p
    w_obs = w_unit[data.obs_unit].astype(float)
    x = w_obs - wbar_p[data.obs_pair]
    ybar_p = np.bincount(data.obs_pair, weights=data.outcomes, minlength=data.P) / sizes_p
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


def pair_columns(data: ExperimentData, values) -> np.ndarray:
    """Per-unit ``values`` as a (P, 2) array, one row per pair; ``NotPaired`` unless paired."""
    data.require_pairs()
    return np.asarray(values).reshape(-1, 2)


def pair_weights(data: ExperimentData) -> np.ndarray:
    """Harmonic mean of each pair's two unit sizes, normalized to sum to one.

    Under equal within-pair sizes the weights are proportional to pair size.
    """
    sizes = pair_columns(data, data.unit_sizes).astype(float)
    harmonic = 1.0 / (1.0 / sizes[:, 0] + 1.0 / sizes[:, 1])
    return harmonic / harmonic.sum()


def pair_effects(data: ExperimentData, assignment: Assignment) -> PairEffects:
    """Within-pair treated-minus-control mean differences, weighted by ``pair_weights``."""
    omega_p = pair_weights(data)
    w_mat = pair_columns(data, assignment.unit_vector(data))
    if np.any(w_mat.sum(axis=1) != 1):
        bad = data.pair_ids[int(np.argmax(w_mat.sum(axis=1) != 1))]
        raise DegeneratePair(f"pair {bad!r} does not have exactly one treated unit")
    means = pair_columns(data, raw_unit_sums(data) / data.unit_sizes)
    first_treated = w_mat[:, 0]
    tau_p = np.where(first_treated, means[:, 0] - means[:, 1], means[:, 1] - means[:, 0])
    return PairEffects(tau_p=tau_p, omega_p=omega_p)


# -- the generic sandwich and the closed forms ---------------------------------------


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
    sizes = pair_columns(data, data.unit_sizes).astype(float)
    _check_fit(data, fit, fit.model_kind)
    set_p, seu_p = _residual_sums(data, assignment, fit.residuals)
    if fit.model_kind == "nofe":
        T, C = totals(data, assignment)
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
    sizes = pair_columns(data, data.unit_sizes).astype(float)
    _check_fit(data, fit, "fe")
    m_p = np.sum((sizes / sizes.sum(axis=1, keepdims=True)) ** 2, axis=1)
    unit_sums = np.bincount(data.obs_unit, weights=fit.residuals, minlength=data.n_units)
    s_sq = pair_columns(data, unit_sums)[:, 0] ** 2
    total = float(s_sq.sum())
    if total == 0.0:
        raise ZeroResiduals("all within-pair residual sums are zero; ratio undefined")
    zeta_p = s_sq / total
    return RatioDecomposition(m_p=m_p, zeta_p=zeta_p, ratio=float(m_p @ zeta_p))


# -- normal-reference t-tests ----------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class NormalReference:
    """Mean-zero normal null distribution for a t-statistic."""

    variance: float

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("reference variance must be positive")

    def two_sided_p(self, t: float) -> float:
        z = abs(t) / math.sqrt(self.variance)
        return math.erfc(z / _SQRT2)

    def __str__(self):
        return f"normal(0,{self.variance:g})"


STANDARD_NORMAL = NormalReference(1.0)
NORMAL_VARIANCE_TWO = NormalReference(2.0)


def standard_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class TestResult:
    t_stat: float
    p_value: float
    reject: bool
    reference: NormalReference
    level: float


def t_test(
    tau_hat: float,
    v_hat: float,
    tau_null: float = 0.0,
    level: float = 0.05,
    reference: NormalReference = STANDARD_NORMAL,
) -> TestResult:
    """Two-sided test of tau = tau_null given a variance estimate.

    The statistic is (tau_hat - tau_null)/sqrt(v_hat); the p-value comes
    from the chosen reference law, so for variance 2 it is
    2*(1 - Phi(|t|/sqrt(2))).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not v_hat > 0.0:
        raise ZeroVariance(f"variance estimate must be positive, got {v_hat!r}")
    t = (tau_hat - tau_null) / math.sqrt(v_hat)
    p = reference.two_sided_p(t)
    return TestResult(t_stat=t, p_value=p, reject=p < level, reference=reference, level=level)


# -- the observation-level generator and null resampling -------------------------------


@dataclass(frozen=True, eq=False)
class PotentialData:
    """Per-observation potential outcomes aligned with a dataset's outcomes.

    ``y0``/``y1`` are what each observation would record under control and
    treatment; their difference is the observation-level treatment effect.
    """

    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self):
        y0, y1 = _frozen(self.y0, float), _frozen(self.y1, float)
        if y0.shape != y1.shape:
            raise ValueError("y0 and y1 must have identical shapes")
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)

    def effects(self) -> np.ndarray:
        return self.y1 - self.y0

    def observed(self, data: ExperimentData, assignment: Assignment) -> np.ndarray:
        if self.y0.size != data.n_total:
            raise ValueError("potential outcomes do not match the dataset size")
        w_obs = assignment.observation_vector(data)
        return np.where(w_obs, self.y1, self.y0)


def normal_draws(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals via the inverse CDF of the uniform stream."""
    return uniform_to_normal(rng.random(size))


def _child(seed: Seed, *spawn_key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed.master, spawn_key=spawn_key))


def simulate_strata(
    config: DGPConfig, seed: Seed
) -> tuple[ExperimentData, Assignment, PotentialData]:
    """Draw one synthetic stratified experiment.

    Potential outcomes are iid standard normal plus the stratum shock;
    the treated-state outcome additionally carries the stratum's effect.
    The observed outcome of each observation is its potential outcome
    under the drawn assignment.
    """
    rng = _child(seed, 0)  # child 0 draws outcomes; stratum j assigns from child (1, j)
    n = config.n_obs
    obs_stratum = np.repeat(np.arange(config.P), config.G * config.n_gp)

    y0 = normal_draws(rng, n)
    y1 = normal_draws(rng, n)
    if config.sigma2_gamma > 0:
        gamma = normal_draws(rng, config.P) * np.sqrt(config.sigma2_gamma)
        y0 = y0 + gamma[obs_stratum]
        y1 = y1 + gamma[obs_stratum]
    taus = np.broadcast_to(config.effect, config.P)
    y1 = y1 + taus[obs_stratum]

    treated = np.zeros(config.n_units, dtype=bool)
    for j in range(config.P):
        treated[j * config.G + _child(seed, 1, j).permutation(config.G)[: config.G // 2]] = True
    w_obs = np.repeat(treated, config.n_gp)
    observed = np.where(w_obs, y1, y0)

    # Zero-padded ids sort in generation order, so the arrays are canonical as built.
    p_width, g_width = max(5, len(str(config.P))), max(3, len(str(config.G)))
    data = ExperimentData(
        outcomes=observed,
        unit_pair=np.repeat(np.arange(config.P), config.G),
        unit_sizes=np.full(config.n_units, config.n_gp),
        pair_ids=[f"s{p:0{p_width}d}" for p in range(1, config.P + 1)],
        unit_ids=[f"u{g:0{g_width}d}" for g in range(1, config.G + 1)] * config.P,
    )
    return data, Assignment(treated), PotentialData(y0=y0, y1=y1)


def null_resample(data: ExperimentData, design: str, seed: Seed) -> Assignment:
    """Redraw the assignment while holding observed outcomes fixed.

    Treating the observed outcomes as both potential outcomes imposes a
    true effect of exactly zero, so test rejections under the redraw
    measure size.  ``design`` is "paired" or "stratified".
    """
    if design == "paired":
        data.require_pairs()
        return draw_stratified_assignment(data, seed)
    if design == "stratified":
        return draw_stratified_assignment(data, seed)
    raise ValueError(f"design must be 'paired' or 'stratified', got {design!r}")
