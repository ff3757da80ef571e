"""Analysis reports: estimates, variances, tests, and diagnostics.

The report mirrors how paired-experiment results are audited: both point
estimators, all four clustered variances with their unit/pair ratio, and
the t-tests the caller selected.  Every reported standard error is the
square root of a reported variance; JSON output carries full precision
and the text rendering rounds for display only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData
from .errors import DegeneratePair, ZeroVariance
from .variance import VarianceSet, dataset_stats

__all__ = ["AnalysisReport", "analyze"]

_CLUSTERS = ("pair", "unit")
_MODELS = ("nofe", "fe")
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TestResult:
    """A two-sided test of a zero effect against the standard normal."""

    t_stat: float
    p_value: float
    reject: bool


def _normal_test(tau_hat: float, v_hat: float, level: float) -> TestResult:
    """Reject when p = erfc(|t| / sqrt(2)) is below ``level``, with t = tau_hat / sqrt(v_hat)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if not v_hat > 0.0:
        raise ZeroVariance(f"variance estimate must be positive, got {v_hat!r}")
    t = tau_hat / math.sqrt(v_hat)
    p = math.erfc(abs(t) / _SQRT2)
    return TestResult(t_stat=t, p_value=p, reject=p < level)


@dataclass
class AnalysisReport:
    tau_nofe: float
    tau_fe: float
    variances: VarianceSet
    ratio: float | None
    ratio_m_range: tuple[float, float] | None
    tests: dict
    level: float
    dataset: dict

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "estimates": {"nofe": self.tau_nofe, "fe": self.tau_fe},
            "variances": {
                key: {
                    "variance": self.variances.value(*key.split("_")),
                    "std_error": math.sqrt(self.variances.value(*key.split("_"))),
                    "dof_factor": self.variances.dof_factors[key],
                }
                for key in ("pair_nofe", "unit_nofe", "pair_fe", "unit_fe")
            },
            "pair_small_sample_factor": self.variances.pair_small_sample_factor,
            "unit_pair_ratio_fe": self.ratio,
            "unit_pair_ratio_m_range": list(self.ratio_m_range)
            if self.ratio_m_range is not None
            else None,
            "level": self.level,
            "tests": {
                f"{cluster}_{model}": {
                    "t_stat": res.t_stat,
                    "p_value": res.p_value,
                    "reject": res.reject,
                }
                for (cluster, model), res in self.tests.items()
            },
        }

    def to_text(self) -> str:
        d = self.dataset
        lines = [
            "paired experiment analysis",
            f"  pairs: {d['P']}   units: {d['units']}   observations: {d['n_total']}",
            f"  observations per unit: min {d['unit_size_min']}, max {d['unit_size_max']}",
            f"  max within-pair size ratio: {d['max_within_pair_size_ratio']:.3f}",
            "",
            f"  effect (diff in means) : {self.tau_nofe:.6g}",
            f"  effect (pair FE)       : {self.tau_fe:.6g}",
            "",
            "  variance estimates (raw cluster-robust):",
        ]
        for key in ("pair_nofe", "unit_nofe", "pair_fe", "unit_fe"):
            cluster, model = key.split("_")
            v = self.variances.value(cluster, model)
            lines.append(
                f"    cluster={cluster:<5} model={model:<4} "
                f"var={v:.6g}  se={math.sqrt(v):.6g}  n/(n-K)={self.variances.dof_factors[key]:.6g}"
            )
        if self.ratio is not None:
            lo, hi = self.ratio_m_range
            lines.append("")
            lines.append(
                f"  unit/pair variance ratio (FE): {self.ratio:.6g} "
                f"(per-pair share bounds: {lo:.6g} to {hi:.6g})"
            )
        if self.tests:
            lines.append("")
            lines.append(f"  two-sided t-tests of zero effect, level {self.level:g}:")
            for (cluster, model), res in self.tests.items():
                verdict = "reject" if res.reject else "keep"
                lines.append(
                    f"    cluster={cluster:<5} model={model:<4} "
                    f"t={res.t_stat:+.4f}  p={res.p_value:.4g}  {verdict}"
                )
        return "\n".join(lines) + "\n"


def analyze(
    data: ExperimentData,
    assignment: Assignment,
    cluster: str = "both",
    fe: str = "both",
    level: float = 0.05,
) -> AnalysisReport:
    """Full audit of a paired experiment.

    ``cluster`` picks the clustering level(s) for the reported t-tests
    ("pair", "unit", or "both"); ``fe`` picks the model(s) ("on", "off",
    "both").  Variances and the unit/pair ratio are always reported.
    """
    if cluster not in ("pair", "unit", "both"):
        raise ValueError("cluster must be 'pair', 'unit', or 'both'")
    if fe not in ("on", "off", "both"):
        raise ValueError("fe must be 'on', 'off', or 'both'")

    # Two units per pair are checked first: the diagnostics below are paired-only.
    sizes = data.pair_columns(data.unit_sizes).astype(float)
    treated = data.pair_columns(assignment.unit_vector(data))
    no_contrast = treated.sum(axis=1) != 1
    if np.any(no_contrast):
        bad = data.pair_ids[int(np.argmax(no_contrast))]
        raise DegeneratePair(f"pair {bad!r} does not have exactly one treated unit")
    stats = dataset_stats(data, assignment)
    variances = VarianceSet.from_stats(data, stats)
    if stats.block_fe > 0.0:
        ratio = stats.unit_fe / stats.block_fe
        m_p = np.sum((sizes / sizes.sum(axis=1, keepdims=True)) ** 2, axis=1)
        m_range = (float(m_p.min()), float(m_p.max()))
    else:
        ratio = None
        m_range = None

    clusters = _CLUSTERS if cluster == "both" else (cluster,)
    models = _MODELS if fe == "both" else (("fe",) if fe == "on" else ("nofe",))
    tests: dict[tuple[str, str], TestResult] = {}
    for c in clusters:
        for m in models:
            tau = stats.tau_fe if m == "fe" else stats.tau_nofe
            tests[(c, m)] = _normal_test(tau, variances.value(c, m), level)

    means = data.pair_columns(data.unit_means)
    first_minus_second = means[:, 0] - means[:, 1]  # negated exactly where the second is treated
    pair_effect = np.where(treated[:, 0], first_minus_second, -first_minus_second)
    within_ratio = np.maximum(sizes[:, 0] / sizes[:, 1], sizes[:, 1] / sizes[:, 0])
    dataset = {
        "P": data.P,
        "units": data.n_units,
        "n_total": data.n_total,
        "unit_size_min": int(data.unit_sizes.min()),
        "unit_size_max": int(data.unit_sizes.max()),
        "max_within_pair_size_ratio": float(within_ratio.max()),
        "balanced_within_pairs": bool(np.all(sizes[:, 0] == sizes[:, 1])),
        "pair_effect_spread": float(np.ptp(pair_effect)),
    }
    return AnalysisReport(
        tau_nofe=stats.tau_nofe,
        tau_fe=stats.tau_fe,
        variances=variances,
        ratio=ratio,
        ratio_m_range=m_range,
        tests=tests,
        level=level,
        dataset=dataset,
    )
