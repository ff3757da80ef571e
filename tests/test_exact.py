"""The paper's finite-sample claim, checked exactly over every assignment.

For each design every assignment the randomization can draw (floor(G/2)
treated units in each of P strata, all equally likely) goes through one
batched ``unit_sum_stats`` call.  The randomization variance V of the FE
estimate is then the variance of its values over the assignments, and the
expectation of a variance estimator is its mean.  With equal unit sizes
and a constant effect, the block-clustered FE variance times P/(P-1) has
expectation exactly V, and on pairs the unit-clustered one exactly V/2;
under heterogeneous effects the pair-clustered one is conservative.  The
ratio of the expected unit- and block-clustered FE variances is then
(G-1)/G + c_G/(P-1), whatever the outcomes, with c_3 = 1/6 and c_4 = 1/2.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paircluster.variance import unit_sum_stats

TOL = 1e-10
N_OBS = 3  # observations per unit, in every unit


@functools.cache
def _assignments(G, P):
    """Every stratified assignment, one per row: (comb(G, G // 2)**P, P * G) booleans."""
    masks = np.zeros((math.comb(G, G // 2), G), dtype=bool)
    for k, picked in enumerate(itertools.combinations(range(G), G // 2)):
        masks[k, list(picked)] = True
    choice = np.indices((len(masks),) * P).reshape(P, -1).T  # each stratum's mask, per row
    return masks[choice].reshape(len(choice), P * G)


def _stats(G, P, control, effect):
    """The statistics of every assignment, for each unit's mean outcome under control."""
    treated = _assignments(G, P)
    sums = N_OBS * (control + effect * treated)
    sizes = np.full(P * G, float(N_OBS))
    return unit_sum_stats(sums, sizes, treated, np.repeat(np.arange(P), G), P, N_OBS * P * G)


def _moments(G, P, seed, heterogeneous=False):
    """V, and the means of the block- and unit-clustered FE variances times P/(P-1)."""
    rng = np.random.default_rng(seed)
    control = rng.normal(size=P * G)
    effect = rng.normal(size=P * G) if heterogeneous else 0.7
    stats = _stats(G, P, control, effect)
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


OUTCOMES = st.one_of(st.floats(-100, 100), st.integers(-3, 3).map(float))  # ties too


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), effect=st.floats(-5, 5))
@pytest.mark.parametrize("G, P, c_G", [(3, 4, 1 / 6), (3, 6, 1 / 6), (3, 8, 1 / 6),
                                       (4, 3, 1 / 2), (4, 5, 1 / 2)])
def test_unit_to_stratum_ratio_of_expected_fe_variances(G, P, c_G, data, effect):
    control = np.array(data.draw(st.lists(OUTCOMES, min_size=P * G, max_size=P * G)))
    strata = control.reshape(P, G)
    assume(np.ptp(strata, axis=1).max() > 1e-3)  # else both expectations are 0
    stats = _stats(G, P, control, effect)
    ratio = stats.unit_fe.mean() / stats.block_fe.mean()
    assert ratio == pytest.approx((G - 1) / G + c_G / (P - 1), rel=TOL)
