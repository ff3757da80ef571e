import numpy as np
import pytest

from paircluster import DGPConfig, Seed
from paircluster.errors import StratumTooSmall
from oracles import diff_in_means, null_resample, pair_effects, raw_unit_sums, simulate_strata
from helpers import random_paired


def test_determinism():
    cfg = DGPConfig(G=3, P=5, n_gp=4, sigma2_gamma=0.5)
    out1 = simulate_strata(cfg, Seed(99))
    out2 = simulate_strata(cfg, Seed(99))
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]
    assert np.array_equal(out1[2].y0, out2[2].y0)
    assert np.array_equal(out1[2].y1, out2[2].y1)
    out3 = simulate_strata(cfg, Seed(100))
    assert not np.array_equal(out1[2].y0, out3[2].y0)


def test_config_validation():
    with pytest.raises(StratumTooSmall):
        DGPConfig(G=1, P=5, n_gp=1)
    with pytest.raises(ValueError):
        DGPConfig(G=2, P=1, n_gp=1)
    with pytest.raises(ValueError):
        DGPConfig(G=2, P=5, n_gp=0)
    with pytest.raises(ValueError):
        DGPConfig(G=2, P=5, n_gp=1, sigma2_gamma=-0.1)
    with pytest.raises(ValueError):
        DGPConfig(G=2, P=5, n_gp=1, effect=np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        DGPConfig(G=2, P=2, n_gp=1, effect=[np.nan, 0.0])
    # a bool or a non-number is refused, not stored or left to a later TypeError
    for value in ("1", None, True, np.bool_(True), [1.0, "a"], 1j):
        for field in ("sigma2_gamma", "effect"):
            with pytest.raises(ValueError, match=f"{field} must be a number"):
                DGPConfig(2, 3, 1, **{field: value})
    with pytest.raises(ValueError, match="sigma2_gamma must be a number, got"):
        DGPConfig(2, 3, 1, sigma2_gamma=[1.0, 1.0, 1.0])  # one shock variance, not one per stratum
    with pytest.raises(ValueError, match="effect must be a number or 3 numbers"):
        DGPConfig(2, 3, 1, effect=[[0.1, 0.2, 0.3]])
    cfg = DGPConfig(2, 3, 1, sigma2_gamma=np.float32(1.5), effect=np.int64(2))
    assert type(cfg.sigma2_gamma) is float and cfg.sigma2_gamma == 1.5
    assert type(cfg.effect) is float and cfg.effect == 2.0


@pytest.mark.parametrize("effect", [[1, True, 0], [1.0, np.True_, 0.0], np.array([1, 0, 1], bool)],
                         ids=repr)
def test_a_bool_inside_a_sequence_is_refused(effect):
    with pytest.raises(ValueError, match="effect must be a number or 3 numbers"):
        DGPConfig(2, 3, 1, effect=effect)


def test_an_int_beyond_uint64_is_the_float_it_equals():
    assert DGPConfig(2, 3, 1, effect=2**70).effect == 2.0**70
    assert DGPConfig(2, 3, 1, effect=[2**70, 0, -(2**70)]).effect == (2.0**70, 0.0, -(2.0**70))
    assert DGPConfig(2, 3, 1, sigma2_gamma=2**70).sigma2_gamma == 2.0**70


@pytest.mark.parametrize("field, value", [("effect", 10**400), ("effect", [0, 10**400, 0]),
                                          ("sigma2_gamma", 10**400)])
def test_an_int_too_large_for_a_float_is_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite, got "):
        DGPConfig(2, 3, 1, **{field: value})


def test_per_stratum_effects_are_a_tuple_compared_by_value():
    cfg = DGPConfig(2, 3, 1, effect=np.array([0.5, -1, 0.0]))
    assert cfg.effect == (0.5, -1.0, 0.0) and all(type(tau) is float for tau in cfg.effect)
    same = DGPConfig(2, 3, 1, effect=[0.5, -1.0, 0])
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != DGPConfig(2, 3, 1, effect=[0.5, -1.0, 0.1])


@pytest.mark.parametrize("field", ["G", "P", "n_gp"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
def test_counts_must_be_integers(field, value):
    counts = {"G": 3, "P": 3, "n_gp": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DGPConfig(**counts)
    DGPConfig(**{**counts, field: np.int64(3)})  # a numpy integer is a count


def test_observed_equals_selected_potential():
    cfg = DGPConfig(G=2, P=6, n_gp=3, sigma2_gamma=0.3)
    data, assignment, potentials = simulate_strata(cfg, Seed(4))
    observed = potentials.observed(data, assignment)
    assert np.array_equal(observed, data.outcomes)
    assert np.all(assignment.unit_vector(data).reshape(6, 2).sum(axis=1) == 1)


def test_variance_structure_without_shock():
    # normal-theory oracle over 1000 strata: within-stratum sample variance
    # has mean 1 (sd sqrt(2/(m-1)/P)); stratum means have variance 1/(G*n_gp)
    cfg = DGPConfig(G=2, P=1000, n_gp=5)
    data, assignment, _ = simulate_strata(cfg, Seed(123))
    m = cfg.G * cfg.n_gp
    per_stratum = data.outcomes.reshape(cfg.P, m)
    sample_vars = per_stratum.var(axis=1, ddof=1)
    band_var = 3 * np.sqrt(2.0 / (m - 1) / cfg.P)
    assert abs(sample_vars.mean() - 1.0) <= band_var
    stratum_means = per_stratum.mean(axis=1)
    target = 1.0 / m
    band_mean = 3 * target * np.sqrt(2.0 / (cfg.P - 1))
    assert abs(stratum_means.var(ddof=1) - target) <= band_mean


def test_stratum_shock_is_a_variance():
    # the within-stratum covariance of unit means identifies sigma2_gamma;
    # 0.01 must come back as 0.01, not as 0.01^2
    cfg = DGPConfig(G=2, P=1000, n_gp=100, sigma2_gamma=0.01)
    data, _, _ = simulate_strata(cfg, Seed(321))
    unit_means = (raw_unit_sums(data) / data.unit_sizes).reshape(cfg.P, 2)
    cov = np.cov(unit_means[:, 0], unit_means[:, 1])[0, 1]
    spread = np.sqrt((0.01 + 1.0 / cfg.n_gp) ** 2 + 0.01**2)
    band = 3 * spread / np.sqrt(cfg.P)
    assert abs(cov - 0.01) <= band
    assert cov > 0.005


def test_constant_effect_shifts_treated():
    cfg = DGPConfig(G=2, P=400, n_gp=10, effect=1.5)
    data, assignment, potentials = simulate_strata(cfg, Seed(8))
    fit = diff_in_means(data, assignment)
    # tau_hat ~ N(1.5, 2/(P*n_gp)); 4-sigma band
    band = 4 * np.sqrt(2.0 / (cfg.P * cfg.n_gp))
    assert abs(fit.tau_hat - 1.5) <= band
    assert np.all(np.abs(potentials.effects().reshape(cfg.P, -1).mean(axis=1) - 1.5) < 4.0)


def test_heterogeneous_effects_fixed_per_stratum():
    taus = np.linspace(-1.0, 1.0, 10)
    cfg = DGPConfig(G=2, P=10, n_gp=200, effect=taus)
    data, assignment, potentials = simulate_strata(cfg, Seed(9))
    per_stratum_effect = np.array(
        [potentials.effects()[data.obs_pair == p].mean() for p in range(10)]
    )
    band = 4 * np.sqrt(2.0 / (cfg.G * cfg.n_gp))
    assert np.all(np.abs(per_stratum_effect - taus) <= band)


def test_null_resample_outcomes_fixed():
    rng = np.random.default_rng(31)
    data, assignment = random_paired(rng, P=10, balanced=True)
    redraw = null_resample(data, "paired", Seed(5))
    assert redraw.treated.shape == assignment.treated.shape
    w = redraw.unit_vector(data).reshape(-1, 2)
    assert np.all(w.sum(axis=1) == 1)
    with pytest.raises(ValueError):
        null_resample(data, "matched", Seed(5))


def test_null_resample_binomial_balance():
    rng = np.random.default_rng(32)
    data, _ = random_paired(rng, P=4, uniform_size=2)
    draws = 1000
    hits = sum(
        null_resample(data, "paired", Seed(master)).treated[0] for master in range(draws)
    )
    assert abs(hits - 500) <= 3 * np.sqrt(250)


def test_null_resample_mean_effect_zero():
    rng = np.random.default_rng(33)
    data, _ = random_paired(rng, P=30, uniform_size=3)
    taus = np.array(
        [
            diff_in_means(data, null_resample(data, "paired", Seed(m))).tau_hat
            for m in range(800)
        ]
    )
    mc_se = taus.std(ddof=1) / np.sqrt(taus.size)
    assert abs(taus.mean()) <= 3 * mc_se


def test_variance_aggregation_cross_check():
    # across replications, var(tau_hat) must match the pair-level variance
    # sum divided by P^2 (independence across pairs)
    cfg = DGPConfig(G=2, P=20, n_gp=3)
    reps = 3000
    tau_hats = np.empty(reps)
    tau_p = np.empty((reps, cfg.P))
    for r in range(reps):
        data, assignment, _ = simulate_strata(cfg, Seed(10_000 + r))
        effects = pair_effects(data, assignment)
        tau_p[r] = effects.tau_p
        tau_hats[r] = effects.tau_p.mean()
    lhs = tau_hats.var(ddof=1)
    rhs = tau_p.var(axis=0, ddof=1).sum() / cfg.P**2
    assert abs(lhs - rhs) / rhs <= 0.10


def test_zero_effect_unbiased():
    cfg = DGPConfig(G=2, P=12, n_gp=2)
    reps = 5000
    taus = np.empty(reps)
    for r in range(reps):
        data, assignment, _ = simulate_strata(cfg, Seed(60_000 + r))
        taus[r] = diff_in_means(data, assignment).tau_hat
    mc_se = taus.std(ddof=1) / np.sqrt(reps)
    assert abs(taus.mean()) <= 4 * mc_se
