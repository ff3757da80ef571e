"""The paper's finite-sample claim, checked exactly over every assignment.

For each design every assignment the randomization can draw (floor(G/2)
treated units in each of P strata, all equally likely) goes through one
batched ``unit_sum_stats`` call.  The randomization variance V of the FE
estimate is then the variance of its values over the assignments, and the
expectation of a variance estimator is its mean.  With equal unit sizes
and a constant effect, the block-clustered FE variance times P/(P-1) has
expectation exactly V, and on pairs the unit-clustered one exactly V/2;
under heterogeneous effects the pair-clustered one is conservative.
"""

import itertools
import math

import numpy as np
import pytest

from paircluster.variance import unit_sum_stats

TOL = 1e-10
N_OBS = 3  # observations per unit, in every unit


def _assignments(G, P):
    """Every stratified assignment, one per row: (comb(G, G // 2)**P, P * G) booleans."""
    masks = np.zeros((math.comb(G, G // 2), G), dtype=bool)
    for k, picked in enumerate(itertools.combinations(range(G), G // 2)):
        masks[k, list(picked)] = True
    choice = np.indices((len(masks),) * P).reshape(P, -1).T  # each stratum's mask, per row
    return masks[choice].reshape(len(choice), P * G)


def _moments(G, P, seed, heterogeneous=False):
    """V, and the means of the block- and unit-clustered FE variances times P/(P-1)."""
    rng = np.random.default_rng(seed)
    control = rng.normal(size=P * G)  # each unit's mean outcome under control
    effect = rng.normal(size=P * G) if heterogeneous else 0.7
    treated = _assignments(G, P)
    sums = N_OBS * (control + effect * treated)
    sizes = np.full(P * G, float(N_OBS))
    stats = unit_sum_stats(sums, sizes, treated, np.repeat(np.arange(P), G), P, N_OBS * P * G)
    factor = P / (P - 1)
    return np.var(stats.tau_fe), factor * stats.block_fe.mean(), factor * stats.unit_fe.mean()


@pytest.mark.parametrize("P", [6, 10, 12])
def test_pair_clustered_fe_variance_is_unbiased_on_pairs(P):
    V, pcve, ucve = _moments(2, P, seed=P)
    assert pcve == pytest.approx(V, rel=TOL)
    assert ucve == pytest.approx(V / 2, rel=TOL)


@pytest.mark.parametrize("G, P", [(3, 6), (4, 4), (5, 4), (6, 3)])
def test_stratum_clustered_fe_variance_is_unbiased(G, P):
    V, scve, _ = _moments(G, P, seed=G)
    assert scve == pytest.approx(V, rel=TOL)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("P", [6, 10])
def test_pair_clustered_fe_variance_is_conservative_under_heterogeneous_effects(P, seed):
    V, pcve, _ = _moments(2, P, seed, heterogeneous=True)
    assert pcve >= V * (1 - TOL)
