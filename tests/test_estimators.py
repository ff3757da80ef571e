import numpy as np
import pytest

from paircluster import Assignment, validate_dataset
from paircluster.errors import DegeneratePair, NotPaired, NoVariationInTreatment
from oracles import diff_in_means, fe_estimate, pair_effects, pair_sizes
from helpers import dense_designs, lstsq_fit, random_paired

MINIMAL_ROWS = [
    ("p1", "a", 1, 2.0),
    ("p1", "b", 0, 0.0),
    ("p2", "c", 0, 1.0),
    ("p2", "d", 1, 1.0),
]


def _single_pair(y_treated, y_control):
    rows = [("p1", "t", 1, y) for y in y_treated] + [("p1", "c", 0, y) for y in y_control]
    return validate_dataset(rows)


def test_diff_in_means_single_pair():
    data, assignment = _single_pair([3.0], [1.0])
    fit = diff_in_means(data, assignment)
    assert fit.tau_hat == pytest.approx(2.0, abs=1e-15)
    assert fit.model_kind == "nofe"
    assert fit.K == 2


def test_constant_outcomes_zero_effect():
    rows = [(p, u, w, 4.5) for (p, u, w, _) in MINIMAL_ROWS]
    data, assignment = validate_dataset(rows)
    fit = diff_in_means(data, assignment)
    assert fit.tau_hat == 0.0
    assert np.all(fit.residuals == 0.0)
    fe = fe_estimate(data, assignment)
    assert fe.tau_hat == 0.0
    assert np.all(fe.residuals == 0.0)


def test_two_pair_example():
    data, assignment = validate_dataset(MINIMAL_ROWS)
    fit = diff_in_means(data, assignment)
    assert fit.tau_hat == pytest.approx(1.0, abs=1e-15)
    assert fit.intercepts == pytest.approx(0.5, abs=1e-15)
    # canonical order is (p1,a treated) (p1,b) (p2,c) (p2,d treated)
    assert fit.residuals == pytest.approx([0.5, -0.5, 0.5, -0.5], abs=1e-15)
    fe = fe_estimate(data, assignment)
    assert fe.tau_hat == pytest.approx(1.0, abs=1e-15)
    assert fe.residuals == pytest.approx([0.5, -0.5, 0.5, -0.5], abs=1e-15)


def test_fe_single_unbalanced_pair():
    # within-pair mean difference: mean(4,2) - 1 = 2, with full weight on
    # the only pair; cross-checked against the dense least-squares oracle
    data, assignment = _single_pair([4.0, 2.0], [1.0])
    fe = fe_estimate(data, assignment)
    assert fe.tau_hat == pytest.approx(2.0, rel=1e-12)
    x_nofe, x_fe, _, _ = dense_designs(data, assignment)
    beta_fe, _ = lstsq_fit(x_fe, data.outcomes)
    assert fe.tau_hat == pytest.approx(beta_fe[0], rel=1e-12)
    effects = pair_effects(data, assignment)
    assert effects.omega_p == pytest.approx([1.0])
    # harmonic size factor before normalization: (1/2 + 1)^-1 = 2/3
    sizes = data.unit_sizes.reshape(-1, 2)
    harmonic = 1.0 / (1.0 / sizes[:, 0] + 1.0 / sizes[:, 1])
    assert harmonic == pytest.approx([2.0 / 3.0])


def test_pair_effects_example():
    data, assignment = validate_dataset(MINIMAL_ROWS)
    effects = pair_effects(data, assignment)
    assert effects.tau_p == pytest.approx([2.0, 0.0], abs=1e-15)
    assert effects.omega_p == pytest.approx([0.5, 0.5], abs=1e-15)
    assert effects.omega_p.sum() == pytest.approx(1.0)


def test_omega_proportional_to_pair_size_when_balanced():
    rng = np.random.default_rng(21)
    data, assignment = random_paired(rng, P=7, balanced=True, max_size=6)
    effects = pair_effects(data, assignment)
    expected = pair_sizes(data) / pair_sizes(data).sum()
    assert effects.omega_p == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_least_squares_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    P = int(rng.integers(2, 9))
    data, assignment = random_paired(rng, P=P, max_size=5)
    x_nofe, x_fe, _, _ = dense_designs(data, assignment)
    y = data.outcomes

    fit = diff_in_means(data, assignment)
    beta, resid = lstsq_fit(x_nofe, y)
    assert abs(fit.tau_hat - beta[1]) <= 1e-10 * (1 + abs(beta[1]))
    assert np.max(np.abs(fit.residuals - resid)) <= 1e-10 * (1 + np.max(np.abs(y)))

    fe = fe_estimate(data, assignment)
    beta_fe, resid_fe = lstsq_fit(x_fe, y)
    assert abs(fe.tau_hat - beta_fe[0]) <= 1e-10 * (1 + abs(beta_fe[0]))
    assert np.max(np.abs(fe.residuals - resid_fe)) <= 1e-10 * (1 + np.max(np.abs(y)))
    assert fe.K == data.P + 1
    gamma = np.asarray(fe.intercepts)
    assert gamma == pytest.approx(beta_fe[1:], abs=1e-9)


def test_balanced_equality():
    rng = np.random.default_rng(42)
    for _ in range(20):
        data, assignment = random_paired(rng, P=int(rng.integers(2, 12)), balanced=True)
        fit = diff_in_means(data, assignment)
        fe = fe_estimate(data, assignment)
        assert abs(fit.tau_hat - fe.tau_hat) <= 1e-12 * (1 + abs(fit.tau_hat))


def test_aggregation_identity_uniform_sizes():
    rng = np.random.default_rng(43)
    for _ in range(10):
        data, assignment = random_paired(rng, P=8, uniform_size=int(rng.integers(1, 6)))
        fit = diff_in_means(data, assignment)
        effects = pair_effects(data, assignment)
        assert fit.tau_hat == pytest.approx(effects.tau_p.mean(), rel=1e-12, abs=1e-12)


def test_residual_orthogonality():
    rng = np.random.default_rng(44)
    for _ in range(10):
        data, assignment = random_paired(rng, P=int(rng.integers(2, 10)))
        scale = np.sqrt(np.mean(data.outcomes**2)) + 1.0
        fit = diff_in_means(data, assignment)
        w_obs = assignment.observation_vector(data)
        assert abs(fit.residuals.sum()) <= 1e-10 * scale * data.n_total
        assert abs(fit.residuals @ w_obs) <= 1e-10 * scale * data.n_total
        fe = fe_estimate(data, assignment)
        pair_sums = np.bincount(data.obs_pair, weights=fe.residuals, minlength=data.P)
        assert np.max(np.abs(pair_sums)) <= 1e-10 * scale * data.n_total


def test_no_variation_error():
    data, _ = validate_dataset([("p1", "a", 1, 1.0), ("p1", "b", 0, 2.0)])
    both_treated = Assignment([True, True])
    with pytest.raises(NoVariationInTreatment):
        diff_in_means(data, both_treated)


def test_fe_degenerate_pair():
    rows = MINIMAL_ROWS + [("p3", "e", 1, 1.0), ("p3", "f", 0, 2.0)]
    data, valid = validate_dataset(rows)
    assignment = Assignment(valid.treated | (data.pair_ids[data.unit_pair] == "p3"))
    with pytest.raises(DegeneratePair):
        fe_estimate(data, assignment)


def test_pair_effects_requires_two_units():
    rows = [
        ("s1", "a", 1, 1.0),
        ("s1", "b", 0, 2.0),
        ("s1", "c", 0, 3.0),
        ("s2", "d", 1, 4.0),
        ("s2", "e", 0, 5.0),
    ]
    data, assignment = validate_dataset(rows)
    with pytest.raises(NotPaired):
        pair_effects(data, assignment)


def test_fe_handles_larger_strata():
    rows = [
        ("s1", "a", 1, 1.0),
        ("s1", "b", 0, 2.0),
        ("s1", "c", 0, 3.0),
        ("s2", "d", 1, 4.0),
        ("s2", "e", 0, 5.0),
        ("s2", "f", 1, 6.0),
    ]
    data, assignment = validate_dataset(rows)
    fe = fe_estimate(data, assignment)
    x_nofe, x_fe, _, _ = dense_designs(data, assignment)
    beta_fe, _ = lstsq_fit(x_fe, data.outcomes)
    assert fe.tau_hat == pytest.approx(beta_fe[0], rel=1e-12)
