"""Analysis reports: estimates, variances, tests, and diagnostics.

Both entry points from a dataset to the kernel, ``variance_set`` and ``analyze``,
live here: each checks the assignment with ``data.check_contrast``, feeds
``variance.unit_sum_stats`` the dataset's arrays and refuses an overflow.
The report mirrors how paired-experiment results are audited: both point
estimators, all four clustered variances with their unit/pair ratio, and
all four t-tests, for pairs and strata alike.  Each test is named by the
``variance.UnitStats`` field of its variance (``pair_nofe``, ``unit_fe``, ...;
a "pair" is a block), in the JSON and in ``AnalysisReport.tests``, and every
list of them is in ``variance.TESTS`` order.  Every reported standard error is
the square root of a reported variance; JSON output carries full precision and
the text rendering rounds for display.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData, check_contrast
from .variance import (TESTS, UnitStats, critical_value, overflow_error, software_factors,
                       unit_sum_stats)

__all__ = ["AnalysisReport", "analyze", "variance_set"]

_SQRT2 = math.sqrt(2.0)


def variance_set(data: ExperimentData, assignment: Assignment) -> UnitStats:
    """``unit_sum_stats`` of a dataset under an assignment, as floats; blocks are pairs.
    The variances are raw: ``software_factors`` and P/(P-1) are the factors to apply.
    ``DegeneratePair`` names the first pair without a treated and a control unit, and
    ``EstimationError`` the first statistic that overflows."""
    return _variance_set(data, assignment, data.centred_unit_sums)[0]


def _variance_set(data: ExperimentData, assignment: Assignment, sums: np.ndarray) -> tuple:
    """``variance_set`` on ``sums``, ``data.centred_unit_sums`` computed by the caller, and
    each pair's treated units and units, as ``check_contrast`` counts them."""
    treated = assignment.unit_vector(data)
    counts = check_contrast(data.unit_pair, treated, data.pair_ids)
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned of
        stats = unit_sum_stats(sums, data.unit_sizes.astype(float), treated[None], data.unit_pair)
    stats = UnitStats(*(float(v[0]) for v in stats))
    if error := overflow_error(stats):
        raise error
    return stats, counts


@dataclass(frozen=True)
class TestResult:
    """A two-sided test of a zero effect against the standard normal.

    All three fields are None where the variance is 0, so t is undefined.
    """

    t_stat: float | None
    p_value: float | None
    reject: bool | None


def _normal_test(tau_hat: float, v_hat: float, z: float) -> TestResult:
    """t = tau_hat / sqrt(v_hat), rejected when |t| > z, with p = erfc(|t| / sqrt(2));
    ``v_hat`` is finite and not negative, as ``variance_set`` gives it."""
    if v_hat == 0.0:  # e.g. FE scores under an exactly constant effect
        return TestResult(None, None, None)
    t = tau_hat / math.sqrt(v_hat)
    return TestResult(t_stat=t, p_value=math.erfc(abs(t) / _SQRT2), reject=abs(t) > z)


@dataclass
class AnalysisReport:
    """``stats`` holds both estimates and the four raw variances; ``dof_factors`` each
    variance's ``software_factors`` factor, the one ``simulate`` applies for
    ``rejection_rate_dof``, and ``pair_small_sample_factor`` the P/(P-1) pair-level one."""

    stats: UnitStats
    dof_factors: dict
    pair_small_sample_factor: float
    ratio: float | None
    ratio_m_range: tuple[float, float] | None
    tests: dict
    level: float
    dataset: dict

    def to_json_dict(self) -> dict:
        def factor(value):  # JSON has no NaN: a factor the dataset is too small for is null
            return None if math.isnan(value) else value
        variances = {key: getattr(self.stats, key) for key in TESTS}
        return {
            "dataset": self.dataset,
            "estimates": {"nofe": self.stats.tau_nofe, "fe": self.stats.tau_fe},
            "variances": {
                key: {"variance": v, "std_error": math.sqrt(v),
                      "dof_factor": factor(self.dof_factors[key])}
                for key, v in variances.items()
            },
            "pair_small_sample_factor": factor(self.pair_small_sample_factor),
            "unit_pair_ratio_fe": self.ratio,
            "unit_pair_ratio_m_range": self.ratio_m_range and list(self.ratio_m_range),
            "level": self.level,
            "tests": {
                key: {"t_stat": res.t_stat, "p_value": res.p_value, "reject": res.reject}
                for key, res in self.tests.items()
            },
        }

    def to_text(self) -> str:
        d = self.dataset
        design, block, blocks = (  # a block of 3+ units makes strata
            ("stratified", "stratum", "strata") if d["units"] > 2 * d["P"]
            else ("paired", "pair", "pairs")
        )

        def row(key):  # a table row's first columns; the "pair" cluster is the block
            cluster, model = key.split("_")
            label = block if cluster == "pair" else cluster
            return f"    cluster={label:<{len(block) + 1}} model={model:<4} "

        lines = [
            f"{design} experiment analysis",
            f"  {blocks}: {d['P']}   units: {d['units']}   observations: {d['n_total']}",
            f"  observations per unit: min {d['unit_size_min']}, max {d['unit_size_max']}",
            f"  max within-{block} size ratio: {d['max_within_pair_size_ratio']:.3f}",
            "",
            f"  {'effect (diff in means)':<23}: {self.stats.tau_nofe:.6g}",
            f"  {f'effect ({block} FE)':<23}: {self.stats.tau_fe:.6g}",
            "",
            "  variance estimates (raw cluster-robust):",
        ]
        for key in TESTS:
            v = getattr(self.stats, key)
            lines.append(
                row(key) + f"var={v:.6g}  se={math.sqrt(v):.6g}  dof={self.dof_factors[key]:.6g}"
            )
        if self.ratio is not None:
            bounds = ""
            if self.ratio_m_range is not None:
                bounds = " (per-pair share bounds: {:.6g} to {:.6g})".format(*self.ratio_m_range)
            lines.append("")
            lines.append(f"  unit/{block} variance ratio (FE): {self.ratio:.6g}{bounds}")
        lines.append("")
        lines.append(f"  two-sided t-tests of zero effect, level {self.level:g}:")
        for key, res in self.tests.items():
            if res.t_stat is None:
                outcome = "undefined (variance 0)"
            else:
                verdict = "reject" if res.reject else "keep"
                outcome = f"t={res.t_stat:+.4f}  p={res.p_value:.4g}  {verdict}"
            lines.append(row(key) + outcome)
        return "\n".join(lines) + "\n"


def analyze(data: ExperimentData, assignment: Assignment, level: float = 0.05) -> AnalysisReport:
    """Full audit of a paired or stratified experiment.

    Both estimates, all four variances, the unit/pair ratio and all four
    t-tests at ``level``, the tests in ``variance.TESTS`` order: pair_nofe,
    unit_nofe, pair_fe, unit_fe.  A "pair" is a block of any size, and each
    diagnostic reduces per block: size ratio, balance, and the block effect
    (mean of treated minus mean of control unit means), read from
    ``data.centred_unit_sums``: each block's contrast weights sum to zero,
    so no output depends on a constant added to every outcome.
    ``ratio_m_range``, the range of each pair's sum of squared size shares,
    bounds the FE ratio on pairs only: None on strata.
    """
    z, level = critical_value(level), float(level)

    sums = data.centred_unit_sums
    stats, (n_treated, block_units) = _variance_set(data, assignment, sums)  # checks contrasts
    treated, block, P = assignment.treated, data.unit_pair, data.P
    tests = {key: _normal_test(getattr(stats, tau), getattr(stats, key), z)
             for key, tau in TESTS.items()}

    sizes = data.unit_sizes.astype(float)
    ratio = m_range = None
    if stats.pair_fe > 0.0:
        ratio = stats.unit_fe / stats.pair_fe
        if data.n_units == 2 * P:
            m_b = np.bincount(block, (sizes / np.bincount(block, sizes, P)[block]) ** 2, P)
            m_range = (float(m_b.min()), float(m_b.max()))
    starts = np.flatnonzero(np.diff(block, prepend=-1))  # each block's first unit
    largest, smallest = np.maximum.reduceat(sizes, starts), np.minimum.reduceat(sizes, starts)
    n_control = block_units - n_treated
    contrast = np.where(treated, 1.0 / n_treated[block], -1.0 / n_control[block])
    block_effect = np.bincount(block, contrast * sums / sizes, P)
    dataset = {
        "P": P,
        "units": data.n_units,
        "n_total": data.n_total,
        "unit_size_min": int(data.unit_sizes.min()),
        "unit_size_max": int(data.unit_sizes.max()),
        "max_within_pair_size_ratio": float((largest / smallest).max()),
        "balanced_within_pairs": bool(np.all(largest == smallest)),
        "pair_effect_spread": float(np.ptp(block_effect)),
    }
    return AnalysisReport(
        stats=stats,
        dof_factors=software_factors(sizes, block),
        pair_small_sample_factor=P / (P - 1) if P > 1 else float("nan"),
        ratio=ratio,
        ratio_m_range=m_range,
        tests=tests,
        level=level,
        dataset=dataset,
    )
