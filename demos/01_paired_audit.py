"""Auditing a paired experiment: estimators, clustered variances, t-tests.

Walks the full analysis pipeline on a small synthetic paired experiment:
validate raw rows, compute both estimates and the pair- and
unit-clustered variances from one kernel call, and see why the
clustering level changes the inference.  ``analyze`` (and the
``paircluster analyze`` command on a CSV file) gives all of it at once.
"""

import math

import numpy as np

import paircluster as pc

rng = np.random.default_rng(12345)

# ---------------------------------------------------------------------------
# A paired experiment: 12 village pairs, one village treated per pair,
# a handful of household observations per village.  The treatment truly
# does nothing here; outcomes are village quality plus household noise.
# ---------------------------------------------------------------------------
rows = []
for p in range(12):
    village_effect = rng.normal(0.0, 0.7, size=2)
    treated_first = rng.random() < 0.5
    for g in range(2):
        n_households = int(rng.integers(3, 8))
        treated = int(treated_first if g == 0 else not treated_first)
        for _ in range(n_households):
            y = village_effect[g] + rng.normal()
            rows.append((f"pair{p:02d}", f"village{g}", treated, y))

data, assignment = pc.validate_dataset(rows)
print(f"dataset: {data.P} pairs, {data.n_units} units, {data.n_total} observations")

# ---------------------------------------------------------------------------
# Point estimates.  The two regressions agree whenever the two units of
# each pair have the same number of observations; here sizes differ, so
# the fixed-effects estimate reweights pairs by harmonic unit size.
# Both come from one call of the statistics kernel, with the variances.
# ---------------------------------------------------------------------------
stats = pc.variance_set(data, assignment)
report = pc.analyze(data, assignment)
print(f"\ndifference in means : {stats.tau_nofe:+.4f}")
print(f"pair fixed effects  : {stats.tau_fe:+.4f}")
print(f"spread of the per-pair estimates: {report.dataset['pair_effect_spread']:.3f}")

# ---------------------------------------------------------------------------
# The four clustered variance estimators.  Within a pair the two
# treatment indicators are perfectly negatively correlated; clustering
# by unit ignores that and, with fixed effects, roughly halves the
# variance estimate.  ``stats`` holds them, each named by its test.
# ---------------------------------------------------------------------------
print("\nvariance estimates (raw cluster-robust):")
for key in pc.variance.UnitStats._fields[2:]:
    cluster, model = key.split("_")
    print(f"  cluster={cluster:<5} model={model:<4}  {getattr(stats, key):.6f}")

lo, hi = report.ratio_m_range
print(f"\nunit/pair variance ratio (FE model): {report.ratio:.4f}")
print(f"  bounded by the per-pair squared unit shares: [{lo:.4f}, {hi:.4f}]")
print("  balanced pairs give exactly 0.5; a 2:1 size split gives 5/9 = 0.5556")

# ---------------------------------------------------------------------------
# t-tests of a zero effect against the standard normal.  The
# unit-clustered FE test understates the variance by about half, so its
# t-statistic is about sqrt(2) too big.
# ---------------------------------------------------------------------------
print(f"\ntwo-sided t-tests at level {report.level} (truth: no effect):")
for key, res in report.tests.items():
    cluster, model = key.split("_")
    print(f"  cluster={cluster:<5} model={model:<4}  t={res.t_stat:+.3f}  "
          f"p={res.p_value:.3f}  reject={res.reject}")

# A t-statistic near 1.96 that is compared to the standard normal when
# its true reference is normal(0, 2) rejects far too often:
# P(|t| > 1.96) = erfc(1.96 / sqrt(2) / sqrt(2)).
print(f"\nP(|t| > 1.96) under a normal(0,2) reference: {math.erfc(1.96 / 2):.3f} "
      f"(vs 0.05 nominal)")

# ---------------------------------------------------------------------------
# The report renders as text (and as JSON with full precision), as the
# `paircluster analyze` command prints it for a CSV file.
# ---------------------------------------------------------------------------
print("\nreport extract:")
print("\n".join(report.to_text().splitlines()[:12]))
