"""Reproducible assignment draws and the synthetic stratified generator.

Shows the seeded randomization guarantees (exact per-stratum counts,
uniform unit inclusion, bit-identical redraws) and the moment structure
of the synthetic experiment generator.
"""

import numpy as np

import paircluster as pc

# ---------------------------------------------------------------------------
# Stratified assignment: floor(G/2) treated in every stratum, uniformly
# over subsets, independent across strata, reproducible from one seed.
# ---------------------------------------------------------------------------
cfg = pc.DGPConfig(G=5, P=8, n_gp=3)
data, assignment, potentials = pc.simulate_strata(cfg, pc.Seed(2024))

w = assignment.unit_vector(data).reshape(cfg.P, cfg.G)
print(f"treated per stratum (G=5 -> floor(5/2)=2): {w.sum(axis=1)}")

again = pc.draw_stratified_assignment(data, pc.Seed(99))
redraw = pc.draw_stratified_assignment(data, pc.Seed(99))
print(f"same seed, same draw: {again == redraw}")

counts = np.zeros(cfg.G * cfg.P)
draws = 2000
for master in range(draws):
    counts += pc.draw_stratified_assignment(data, pc.Seed(master)).unit_vector(data)
print(f"unit inclusion frequency over {draws} draws: "
      f"min {counts.min() / draws:.3f}, max {counts.max() / draws:.3f} (target 0.4)")

# ---------------------------------------------------------------------------
# The generator's moment structure: iid standard-normal potential
# outcomes plus an additive stratum shock with variance sigma2_gamma.
# The shock is shared within a stratum, so it shows up as the
# covariance of unit means, not in the within-pair contrast.
# ---------------------------------------------------------------------------
big = pc.DGPConfig(G=2, P=2000, n_gp=50, sigma2_gamma=0.05)
data2, assignment2, potentials2 = pc.simulate_strata(big, pc.Seed(7))
unit_means = (data2.unit_sums / data2.unit_sizes).reshape(big.P, 2)
cov = np.cov(unit_means[:, 0], unit_means[:, 1])[0, 1]
print(f"\ncovariance of within-stratum unit means: {cov:.4f} (sigma2_gamma = 0.05)")
print(f"variance of a unit mean: {unit_means.var(ddof=1):.4f} "
      f"(target 1/n_gp + sigma2_gamma = {1 / big.n_gp + 0.05:.4f})")

effects = potentials2.effects()
print(f"observation-level effect mean: {effects.mean():+.4f} (zero-effect profile)")

# ---------------------------------------------------------------------------
# Null-imposed resampling: hold the observed outcomes fixed as both
# potential outcomes and redraw only the assignment.  The redrawn
# experiments have a true effect of exactly zero, whatever the data.
# ---------------------------------------------------------------------------
paired = pc.DGPConfig(G=2, P=40, n_gp=10, effect_profile=pc.ConstantEffect(1.0))
data3, assignment3, _ = pc.simulate_strata(paired, pc.Seed(11))
observed_effect = pc.diff_in_means(data3, assignment3).tau_hat
print(f"\noriginal draw sees the built-in effect: {observed_effect:+.3f}")

taus = []
for master in range(400):
    redraw = pc.null_resample(data3, "paired", pc.Seed(master))
    taus.append(pc.diff_in_means(data3, redraw).tau_hat)
taus = np.asarray(taus)
print(f"resampled estimates center on zero: mean {taus.mean():+.4f}, sd {taus.std():.4f}")
