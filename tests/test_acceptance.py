"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them all).  Monte Carlo criteria pin their seeds; identity and oracle
criteria sweep freshly generated random datasets every run.
"""

import math
import time

import numpy as np

from paircluster import (
    DGPConfig,
    HeterogeneousEffect,
    Seed,
    SizeExperimentSpec,
    cluster_robust_covariance,
    diff_in_means,
    dof_adjust,
    fe_estimate,
    fe_variance_ratio,
    pair_clustered_variance,
    pair_effects,
    pair_sample_variance,
    run_size_experiment,
    unit_clustered_variance,
)
from helpers import dense_designs, random_paired, rel_err

THREADS = 2

PANEL_A = {2: (0.173, 0.054), 5: (0.074, 0.051), 10: (0.065, 0.055)}


def _report(name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_1_identity_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        P = int(rng.integers(2, 21))
        size = int(rng.integers(1, 11))
        data, assignment = random_paired(rng, P=P, uniform_size=size)
        fit = diff_in_means(data, assignment)
        fe = fe_estimate(data, assignment)
        p_nofe = pair_clustered_variance(data, assignment, fit)
        p_fe = pair_clustered_variance(data, assignment, fe)
        u_fe = unit_clustered_variance(data, assignment, fe)
        sample = pair_sample_variance(pair_effects(data, assignment))
        worst = max(
            worst,
            rel_err(p_nofe, p_fe),
            rel_err(p_nofe, 2.0 * u_fe),
            rel_err(p_nofe, sample),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("1 identity suite", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_oracle_suite():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    ratios_free = []
    ratios_capped = []
    for i in range(200):
        capped = i >= 100
        P = int(rng.integers(2, 9))
        data, assignment = random_paired(
            rng, P=P, max_size=5, max_ratio=2 if capped else None
        )
        x_nofe, x_fe, obs_pair, obs_unit = dense_designs(data, assignment)
        fit = diff_in_means(data, assignment)
        fe = fe_estimate(data, assignment)
        checks = [
            (pair_clustered_variance(data, assignment, fit),
             cluster_robust_covariance(x_nofe, fit.residuals, obs_pair)[1, 1]),
            (unit_clustered_variance(data, assignment, fit),
             cluster_robust_covariance(x_nofe, fit.residuals, obs_unit)[1, 1]),
            (pair_clustered_variance(data, assignment, fe),
             cluster_robust_covariance(x_fe, fe.residuals, obs_pair)[0, 0]),
            (unit_clustered_variance(data, assignment, fe),
             cluster_robust_covariance(x_fe, fe.residuals, obs_unit)[0, 0]),
        ]
        worst = max(worst, *(rel_err(a, b) for a, b in checks))
        ratio = fe_variance_ratio(data, fe).ratio
        (ratios_capped if capped else ratios_free).append(ratio)
    elapsed = time.perf_counter() - start
    free = np.asarray(ratios_free)
    capped_arr = np.asarray(ratios_capped)
    in_unit_band = bool(np.all(free >= 0.5 - 1e-12) and np.all(free <= 1.0 + 1e-12))
    in_capped_band = bool(
        np.all(capped_arr >= 0.5 - 1e-12) and np.all(capped_arr <= 5.0 / 9.0 + 1e-12)
    )
    ok = worst <= 1e-10 and in_unit_band and in_capped_band and elapsed < 10.0
    _report(
        "2 oracle suite",
        ok,
        f"max rel err {worst:.2e}, ratio ranges ok={in_unit_band and in_capped_band}, "
        f"{elapsed:.2f}s",
    )


def _panel_a_table(G, reps, seed):
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=G, P=100, n_gp=100, sigma2_gamma=0.0),
        reps=reps,
        master_seed=Seed(seed),
    )
    return run_size_experiment(spec, threads=THREADS)


def test_criterion_3_table_reproduction_full():
    start = time.perf_counter()
    details = []
    ok = True
    fe_rates = {}
    for G, (paper_ucve_fe, paper_scve) in PANEL_A.items():
        table = _panel_a_table(G, reps=10_000, seed=30_000 + G)
        r_fe = table.cell("unit", "fe").rejection_rate
        r_scve = table.cell("stratum", "fe").rejection_rate
        ratio = table.cell("unit", "fe").mean_se_ratio
        target_ratio = math.sqrt((G - 1) / G)
        ok &= abs(r_fe - paper_ucve_fe) <= 0.015
        ok &= abs(r_scve - paper_scve) <= 0.015
        ok &= abs(ratio - target_ratio) <= 0.01
        fe_rates[G] = r_fe
        details.append(
            f"G={G}: ucve_fe={r_fe:.4f} (ref {paper_ucve_fe}), "
            f"scve={r_scve:.4f} (ref {paper_scve}), ratio={ratio:.4f} (ref {target_ratio:.4f})"
        )
    ok &= fe_rates[2] > fe_rates[5] > fe_rates[10]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    _report("3 stratified size table (10000 reps)", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_table_reproduction_smoke():
    start = time.perf_counter()
    ok = True
    details = []
    for G, (paper_ucve_fe, paper_scve) in PANEL_A.items():
        table = _panel_a_table(G, reps=2_000, seed=31_000 + G)
        r_fe = table.cell("unit", "fe").rejection_rate
        r_scve = table.cell("stratum", "fe").rejection_rate
        ratio = table.cell("unit", "fe").mean_se_ratio
        ok &= abs(r_fe - paper_ucve_fe) <= 0.03
        ok &= abs(r_scve - paper_scve) <= 0.03
        ok &= abs(ratio - math.sqrt((G - 1) / G)) <= 0.03
        details.append(f"G={G}: ucve_fe={r_fe:.4f}, scve={r_scve:.4f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _report("3 stratified size table (2000-rep smoke)", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_4_asymptotic_size_targets():
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=2, P=1000, n_gp=100, sigma2_gamma=0.0),
        reps=10_000,
        master_seed=Seed(404),
    )
    table = run_size_experiment(spec, threads=THREADS)
    pcve_rate = table.cell("stratum", "nofe").rejection_rate
    ucve_fe_rate = table.cell("unit", "fe").rejection_rate
    ok = abs(pcve_rate - 0.05) <= 0.01 and abs(ucve_fe_rate - 0.165) <= 0.015
    _report(
        "4 asymptotic size targets",
        ok,
        f"pcve={pcve_rate:.4f} (ref 0.05), ucve_fe={ucve_fe_rate:.4f} (ref 0.165)",
    )


def test_criterion_5_stratum_shock_conservativeness():
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=2, P=100, n_gp=100, sigma2_gamma=0.01),
        reps=10_000,
        master_seed=Seed(505),
    )
    table = run_size_experiment(spec, threads=THREADS)
    ucve_nofe_rate = table.cell("unit", "nofe").rejection_rate
    scve_rate = table.cell("stratum", "fe").rejection_rate
    ok = ucve_nofe_rate <= 0.02 and abs(scve_rate - 0.05) <= 0.012
    _report(
        "5 stratum-shock panel",
        ok,
        f"ucve_nofe={ucve_nofe_rate:.4f} (<=0.02), scve={scve_rate:.4f} (0.05 +/- 0.012)",
    )


def test_criterion_6_one_obs_per_unit_special_case():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        P = int(rng.integers(2, 31))
        data, assignment = random_paired(rng, P=P, uniform_size=1)
        fe = fe_estimate(data, assignment)
        w = assignment.observation_vector(data).astype(float)
        t_p, _ = assignment.per_pair_counts(data)
        x = w - (t_p / data.pair_sizes)[data.obs_pair]
        singleton = cluster_robust_covariance(x, fe.residuals, np.arange(data.n_total))[0, 0]
        adjusted = dof_adjust(singleton, 2 * P, P + 1)
        target = (P / (P - 1)) * pair_clustered_variance(data, assignment, fe)
        worst = max(worst, rel_err(adjusted, target))
    ok = worst <= 1e-10
    _report("6 one-obs-per-unit special case", ok, f"max rel err {worst:.2e}")


def test_criterion_7_conservative_under_heterogeneity():
    rng = np.random.default_rng(707)
    taus = rng.normal(0.0, 0.1, size=100)
    taus -= taus.mean()  # the tested null is the true average effect
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=2, P=100, n_gp=100, effect_profile=HeterogeneousEffect(taus)),
        reps=10_000,
        master_seed=Seed(708),
    )
    table = run_size_experiment(spec, threads=THREADS)
    cell = table.cell("stratum", "nofe")
    bound = 0.05 + 3 * max(cell.mc_se, math.sqrt(0.05 * 0.95 / spec.reps))
    ok = cell.rejection_rate <= bound
    _report(
        "7 conservative under heterogeneity",
        ok,
        f"pcve rejection={cell.rejection_rate:.4f} <= {bound:.4f}",
    )
