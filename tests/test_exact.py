"""The paper's finite-sample claim, checked exactly over every assignment.

For each design every assignment the randomization can draw (floor(G/2)
treated units in each of P strata, or one unit of each pair, all equally
likely) goes through one batched ``unit_sum_stats`` call.  The
randomization variance V of the FE estimate is then the variance of its
values over the assignments, and the expectation of a variance estimator
is its mean.  Under a constant effect:

- with equal unit sizes, the block-clustered FE variance times P/(P-1) has
  expectation exactly V, and on pairs the unit-clustered one exactly V/2;
  under heterogeneous effects the pair-clustered one is conservative;
- on pairs of any unit sizes, with pair weights w_p = h_p / sum(h), where
  h_p = n_p1 n_p2 / (n_p1 + n_p2), and control-mean differences
  d_p = ybar_p1(0) - ybar_p2(0), V = sum(w_p^2 d_p^2) and
  E[PCVE_FE] = V (1 + sum(w^2)) - 2 sum(w_p^3 d_p^2), so E[PCVE_FE] / V
  lies in [1 + sum(w^2) - 2 max(w), 1 + sum(w^2) - 2 min(w)]; only equal
  weights give (P-1)/P.  With an effect tau_p per pair, the FE estimate has
  mean tau_w = sum(w_p tau_p) and still variance V, and E[PCVE_FE] gains
  sum(w_p^2 (tau_p - tau_w)^2); the range above then no longer holds;
- with equal unit sizes, the ratio of the expected unit- and
  block-clustered FE variances is (G-1)/G + c_G/(P-1), whatever the
  outcomes, where c_G = (G-2)/G for even G and (G-2)/G - 4/(G(G^2-1))
  for odd G.
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
N_OBS = 3  # observations per unit, in every stratified unit
OFFSET = 1e3  # of the paired designs' outcomes


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
    return np.var(stats.tau_fe), factor * stats.pair_fe.mean(), factor * stats.unit_fe.mean()


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


def _paired_stats(sizes, control, effect):
    """The statistics of all 2**P assignments of pairs; unit k of pair p is column (p, k)."""
    P = len(sizes)
    first = (np.arange(2**P)[:, None] >> np.arange(P)) & 1 == 1  # row r treats unit 0 of pair p
    treated = np.stack([first, ~first], axis=2).reshape(2**P, 2 * P)
    n = sizes.ravel().astype(float)
    sums = n * (control.ravel() + effect * treated)
    return unit_sum_stats(sums, n, treated, np.repeat(np.arange(P), 2), P, int(sizes.sum()))


def _pair_weight_law(sizes, control, taus=0.0):
    """The pair weights w, V and E[PCVE_FE] of the pair-weight law, under pair effects ``taus``."""
    h = sizes[:, 0] * sizes[:, 1] / sizes.sum(axis=1)
    w = h / h.sum()
    d2 = (control[:, 0] - control[:, 1]) ** 2
    V = np.sum(w**2 * d2)
    spread = np.sum(w**2 * (taus - np.sum(w * taus)) ** 2)  # 0 under a constant effect
    return w, V, V * (1 + np.sum(w**2)) - 2 * np.sum(w**3 * d2) + spread


def _paired_design(data, P):
    """Unit sizes 1 to 20 and control means offset by ``OFFSET``, each (P, 2)."""
    sizes = np.array(data.draw(st.lists(st.integers(1, 20), min_size=2 * P, max_size=2 * P)))
    control = OFFSET + np.array(
        data.draw(st.lists(st.floats(-10, 10), min_size=2 * P, max_size=2 * P))
    )
    return sizes.reshape(P, 2), control.reshape(P, 2)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), P=st.integers(3, 10), effect=st.floats(-5, 5))
def test_pair_clustered_fe_variance_follows_the_pair_weight_law(data, P, effect):
    sizes, control = _paired_design(data, P)
    w, V, E = _pair_weight_law(sizes, control)
    assume(np.any(sizes[:, 0] != sizes[:, 1]) and np.ptp(w) > 0)  # unequal within and across
    assume(min(V, E) > 1e-2)  # else the offset's rounding, about 1e-12, shows at TOL
    stats = _paired_stats(sizes, control, effect)
    assert np.var(stats.tau_fe) == pytest.approx(V, rel=TOL)
    pcve = stats.pair_fe.mean()
    assert pcve == pytest.approx(E, rel=TOL)
    # the range that the pair weights alone, known from the data, give
    base = 1 + np.sum(w**2)
    assert (base - 2 * w.max()) * (1 - TOL) <= pcve / V <= (base - 2 * w.min()) * (1 + TOL)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data(), P=st.integers(3, 10))
def test_pair_weight_law_under_heterogeneous_pair_effects(data, P):
    sizes, control = _paired_design(data, P)
    taus = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=P, max_size=P)))
    w, V, E = _pair_weight_law(sizes, control, taus)
    assume(min(V, E) > 1e-2)  # else the offset's rounding, about 1e-12, shows at TOL
    stats = _paired_stats(sizes, control, np.repeat(taus, 2))  # both units of pair p get tau_p
    assert stats.tau_fe.mean() == pytest.approx(np.sum(w * taus), rel=TOL, abs=TOL)
    assert np.var(stats.tau_fe) == pytest.approx(V, rel=TOL)
    assert stats.pair_fe.mean() == pytest.approx(E, rel=TOL)


def test_pair_clustered_fe_variance_is_biased_under_unequal_pair_weights():
    # pairs balanced within, of 1, 2, 4 and 8 observations per unit, each d_p = 1
    sizes = np.repeat([[1], [2], [4], [8]], 2, axis=1)
    control = OFFSET + np.array([[1.0, 0.0]] * 4)
    stats = _paired_stats(sizes, control, 0.7)
    V, P = np.var(stats.tau_fe), len(sizes)
    assert stats.pair_fe.mean() == pytest.approx(_pair_weight_law(sizes, control)[2], rel=TOL)
    assert stats.pair_fe.mean() * P / (P - 1) < 0.9 * V  # about 0.61 V


def _c(G):
    """c_G of the unit/stratum ratio law."""
    return (G - 2) / G - (4 / (G * (G * G - 1)) if G % 2 else 0.0)


OUTCOMES = st.one_of(st.floats(-100, 100), st.integers(-3, 3).map(float))  # ties too


@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), effect=st.floats(-5, 5))
@pytest.mark.parametrize("G, P, c_G", [(G, P, _c(G)) for G, P in [
    (3, 4), (3, 6), (3, 8), (4, 3), (4, 5),  # c_3 = 1/6 and c_4 = 1/2
    (2, 3), (3, 3), (5, 3), (6, 2), (7, 2), (8, 2),  # every G from 2 to 8
]])
def test_unit_to_stratum_ratio_of_expected_fe_variances(G, P, c_G, data, effect):
    control = np.array(data.draw(st.lists(OUTCOMES, min_size=P * G, max_size=P * G)))
    strata = control.reshape(P, G)
    assume(np.ptp(strata, axis=1).max() > 1e-3)  # else both expectations are 0
    stats = _stats(G, P, control, effect)
    ratio = stats.unit_fe.mean() / stats.pair_fe.mean()
    assert ratio == pytest.approx((G - 1) / G + c_G / (P - 1), rel=TOL)
