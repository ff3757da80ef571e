"""Reproducible assignment draws and null-imposed resampling.

Shows the seeded randomization guarantees (exact per-stratum counts,
uniform unit inclusion, bit-identical redraws) and how redrawing only the
assignment of a fixed dataset imposes a true effect of exactly zero.
"""

import numpy as np

import paircluster as pc

rng = np.random.default_rng(2024)


def experiment_rows(P, G, n, effect):
    """Rows of P strata of G units with n observations each; unit 0 of a stratum is treated."""
    return [
        (f"s{p:02d}", f"u{g}", int(g == 0), float(rng.normal() + effect * (g == 0)))
        for p in range(P) for g in range(G) for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Stratified assignment: floor(G/2) treated in every stratum, uniformly
# over subsets, independent across strata, reproducible from one seed.
# ---------------------------------------------------------------------------
data, _ = pc.validate_dataset(experiment_rows(P=8, G=5, n=3, effect=0.0))

assignment = pc.draw_stratified_assignment(data, pc.Seed(2024))
w = assignment.unit_vector(data).reshape(data.P, 5)
print(f"treated per stratum (G=5 -> floor(5/2)=2): {w.sum(axis=1)}")

again = pc.draw_stratified_assignment(data, pc.Seed(99))
redraw = pc.draw_stratified_assignment(data, pc.Seed(99))
print(f"same seed, same draw: {again == redraw}")

counts = np.zeros(data.n_units)
draws = 2000
for master in range(draws):
    counts += pc.draw_stratified_assignment(data, pc.Seed(master)).unit_vector(data)
print(f"unit inclusion frequency over {draws} draws: "
      f"min {counts.min() / draws:.3f}, max {counts.max() / draws:.3f} (target 0.4)")

# ---------------------------------------------------------------------------
# Null-imposed resampling: hold the observed outcomes fixed as both
# potential outcomes and redraw only the assignment.  The redrawn
# experiments have a true effect of exactly zero, whatever the data.
# ---------------------------------------------------------------------------
paired, original = pc.validate_dataset(experiment_rows(P=40, G=2, n=10, effect=1.0))
tau_hat = pc.variance_set(paired, original).tau_nofe
print(f"\noriginal draw sees the built-in effect: {tau_hat:+.3f}")

taus = np.array([
    pc.variance_set(paired, pc.draw_stratified_assignment(paired, pc.Seed(master))).tau_nofe
    for master in range(400)
])
print(f"resampled estimates center on zero: mean {taus.mean():+.4f}, sd {taus.std():.4f}")
