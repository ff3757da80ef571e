import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paircluster import Assignment, ExperimentData, analyze, validate_dataset, variance_set
from paircluster.errors import DegeneratePair, NotPaired
from paircluster.variance import unit_sum_stats
from oracles import (
    DegenerateDOF,
    NoVariationInTreatment,
    RankDeficient,
    ShapeMismatch,
    ZeroResiduals,
    cluster_robust_covariance,
    diff_in_means,
    dof_adjust,
    fe_estimate,
    fe_variance_ratio,
    pair_clustered_variance,
    pair_effects,
    pair_sample_variance,
    pair_sizes,
    per_pair_counts,
    totals,
    unit_clustered_variance,
)
from helpers import dense_designs, paired_rows, random_paired, rel_err

MINIMAL_ROWS = [
    ("p1", "a", 1, 2.0),
    ("p1", "b", 0, 0.0),
    ("p2", "c", 0, 1.0),
    ("p2", "d", 1, 1.0),
]


@pytest.fixture(scope="module")
def minimal():
    return validate_dataset(MINIMAL_ROWS)


def test_closed_form_examples(minimal):
    data, assignment = minimal
    fit = diff_in_means(data, assignment)
    fe = fe_estimate(data, assignment)
    assert pair_clustered_variance(data, assignment, fit) == pytest.approx(0.5, abs=1e-15)
    assert unit_clustered_variance(data, assignment, fit) == pytest.approx(0.25, abs=1e-15)
    assert pair_clustered_variance(data, assignment, fe) == pytest.approx(0.5, abs=1e-15)
    assert unit_clustered_variance(data, assignment, fe) == pytest.approx(0.25, abs=1e-15)


def test_zero_residuals_give_zero_variance():
    rows = [(p, u, w, 7.0) for (p, u, w, _) in MINIMAL_ROWS]
    data, assignment = validate_dataset(rows)
    fit = diff_in_means(data, assignment)
    fe = fe_estimate(data, assignment)
    assert pair_clustered_variance(data, assignment, fit) == 0.0
    assert unit_clustered_variance(data, assignment, fit) == 0.0
    assert pair_clustered_variance(data, assignment, fe) == 0.0
    assert unit_clustered_variance(data, assignment, fe) == 0.0


def test_sandwich_zero_residuals():
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    V = cluster_robust_covariance(X, np.zeros(6), np.repeat([0, 1, 2], 2))
    assert np.all(V == 0.0)


def test_sandwich_singleton_reduction():
    rng = np.random.default_rng(2)
    x = rng.normal(size=12)
    e = rng.normal(size=12)
    V = cluster_robust_covariance(x, e, np.arange(12))
    expected = np.sum(e**2 * x**2) / np.sum(x**2) ** 2
    assert V[0, 0] == pytest.approx(expected, rel=1e-12)


def test_sandwich_demeaned_regressor_example(minimal):
    data, assignment = minimal
    fit = diff_in_means(data, assignment)
    w = assignment.observation_vector(data).astype(float)
    x = w - w.mean()
    V = cluster_robust_covariance(x, fit.residuals, data.obs_pair)
    assert V[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_sandwich_errors():
    X = np.ones((4, 2))
    with pytest.raises(RankDeficient):
        cluster_robust_covariance(X, np.zeros(4), np.arange(4))
    with pytest.raises(ShapeMismatch):
        cluster_robust_covariance(np.ones((4, 1)), np.zeros(3), np.arange(4))
    with pytest.raises(ShapeMismatch):
        cluster_robust_covariance(np.ones((4, 1)), np.zeros(4), np.arange(3))


@pytest.mark.parametrize("seed", range(12))
def test_closed_forms_match_sandwich(seed):
    rng = np.random.default_rng(3000 + seed)
    P = int(rng.integers(2, 9))
    data, assignment = random_paired(rng, P=P, max_size=5)
    x_nofe, x_fe, obs_pair, obs_unit = dense_designs(data, assignment)
    fit = diff_in_means(data, assignment)
    fe = fe_estimate(data, assignment)

    v = pair_clustered_variance(data, assignment, fit)
    oracle = cluster_robust_covariance(x_nofe, fit.residuals, obs_pair)[1, 1]
    assert rel_err(v, oracle) <= 1e-10

    v = unit_clustered_variance(data, assignment, fit)
    oracle = cluster_robust_covariance(x_nofe, fit.residuals, obs_unit)[1, 1]
    assert rel_err(v, oracle) <= 1e-10

    v = pair_clustered_variance(data, assignment, fe)
    oracle = cluster_robust_covariance(x_fe, fe.residuals, obs_pair)[0, 0]
    assert rel_err(v, oracle) <= 1e-10

    v = unit_clustered_variance(data, assignment, fe)
    oracle = cluster_robust_covariance(x_fe, fe.residuals, obs_unit)[0, 0]
    assert rel_err(v, oracle) <= 1e-10


def test_balanced_identities():
    rng = np.random.default_rng(9)
    for _ in range(15):
        data, assignment = random_paired(rng, P=int(rng.integers(2, 12)), balanced=True)
        fit = diff_in_means(data, assignment)
        fe = fe_estimate(data, assignment)
        p_nofe = pair_clustered_variance(data, assignment, fit)
        p_fe = pair_clustered_variance(data, assignment, fe)
        u_fe = unit_clustered_variance(data, assignment, fe)
        assert rel_err(p_nofe, p_fe) <= 1e-12
        assert rel_err(p_nofe, 2 * u_fe) <= 1e-12


def test_pair_sample_variance_identity_uniform_sizes():
    rng = np.random.default_rng(10)
    for _ in range(10):
        data, assignment = random_paired(rng, P=9, uniform_size=int(rng.integers(1, 6)))
        fit = diff_in_means(data, assignment)
        effects = pair_effects(data, assignment)
        assert rel_err(
            pair_clustered_variance(data, assignment, fit), pair_sample_variance(effects)
        ) <= 1e-10


def test_pair_sample_variance_examples():
    class FakeEffects:
        tau_p = np.array([2.0, 0.0])
        omega_p = np.array([0.5, 0.5])
        P = 2

    assert pair_sample_variance(FakeEffects()) == pytest.approx(0.5, abs=1e-15)
    FakeEffects.tau_p = np.array([1.5, 1.5, 1.5])
    FakeEffects.P = 3
    assert pair_sample_variance(FakeEffects()) == 0.0


def test_dof_adjust():
    assert dof_adjust(1.0, 100, 2) == pytest.approx(100 / 98, rel=1e-15)
    # one observation per unit with pair fixed effects: n=2P, K=P+1
    P = 13
    assert dof_adjust(1.0, 2 * P, P + 1) == pytest.approx(2 * P / (P - 1), rel=1e-15)
    # the pair-level small-sample factor, P/(P-1), doubles the variance at P=2
    assert dof_adjust(0.5, 2, 1) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DegenerateDOF):
        dof_adjust(1.0, 5, 5)


def test_ratio_balanced_is_half():
    rng = np.random.default_rng(12)
    data, assignment = random_paired(rng, P=6, balanced=True)
    fe = fe_estimate(data, assignment)
    dec = fe_variance_ratio(data, fe)
    assert dec.m_p == pytest.approx(np.full(6, 0.5), abs=1e-15)
    assert dec.ratio == pytest.approx(0.5, rel=1e-12)


def test_ratio_two_to_one_is_five_ninths():
    rng = np.random.default_rng(13)
    sizes = np.column_stack([np.full(8, 4), np.full(8, 2)])
    data, assignment = validate_dataset(paired_rows(rng, sizes))
    fe = fe_estimate(data, assignment)
    dec = fe_variance_ratio(data, fe)
    assert dec.m_p == pytest.approx(np.full(8, 5.0 / 9.0), rel=1e-14)
    assert dec.ratio == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert rel_err(
        dec.ratio,
        unit_clustered_variance(data, assignment, fe)
        / pair_clustered_variance(data, assignment, fe),
    ) <= 1e-10


def test_ratio_matches_variances_and_bounds():
    rng = np.random.default_rng(14)
    for _ in range(25):
        data, assignment = random_paired(rng, P=int(rng.integers(2, 10)))
        fe = fe_estimate(data, assignment)
        dec = fe_variance_ratio(data, fe)
        direct = unit_clustered_variance(data, assignment, fe) / pair_clustered_variance(
            data, assignment, fe
        )
        assert rel_err(dec.ratio, direct) <= 1e-10
        assert 0.5 - 1e-12 <= dec.ratio <= 1.0 + 1e-12
        assert dec.zeta_p.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(dec.zeta_p >= 0)


def test_ratio_bound_with_capped_imbalance():
    rng = np.random.default_rng(15)
    for _ in range(20):
        data, assignment = random_paired(rng, P=7, max_size=5, max_ratio=2)
        fe = fe_estimate(data, assignment)
        dec = fe_variance_ratio(data, fe)
        assert 0.5 - 1e-12 <= dec.ratio <= 5.0 / 9.0 + 1e-12


def test_ratio_zero_residuals():
    rows = [(p, u, w, 1.0) for (p, u, w, _) in MINIMAL_ROWS]
    data, assignment = validate_dataset(rows)
    fe = fe_estimate(data, assignment)
    with pytest.raises(ZeroResiduals):
        fe_variance_ratio(data, fe)


def test_one_obs_per_unit_dof_equivalence():
    # one observation per unit: the DOF-adjusted singleton-cluster variance
    # of the FE fit equals P/(P-1) times the pair-clustered variance
    rng = np.random.default_rng(16)
    for _ in range(20):
        P = int(rng.integers(2, 20))
        data, assignment = random_paired(rng, P=P, uniform_size=1)
        fe = fe_estimate(data, assignment)
        w = assignment.observation_vector(data).astype(float)
        t_p, _ = per_pair_counts(data, assignment)
        x = w - (t_p / pair_sizes(data))[data.obs_pair]
        v_singleton = cluster_robust_covariance(x, fe.residuals, np.arange(data.n_total))[0, 0]
        adjusted = dof_adjust(v_singleton, 2 * P, P + 1)
        target = (P / (P - 1)) * pair_clustered_variance(data, assignment, fe)
        assert rel_err(adjusted, target) <= 1e-10


def test_variances_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(10):
        data, assignment = random_paired(rng, P=int(rng.integers(2, 8)))
        vs = variance_set(data, assignment)
        assert vs.pair_nofe >= 0 and vs.unit_nofe >= 0
        assert vs.pair_fe >= 0 and vs.unit_fe >= 0


def test_variance_set_contents(minimal):
    data, assignment = minimal
    vs = variance_set(data, assignment)
    assert vs.pair_nofe == pytest.approx(0.5)
    assert vs.unit_fe == pytest.approx(0.25)
    report = analyze(data, assignment)
    assert report.stats == vs
    assert report.pair_small_sample_factor == pytest.approx(2.0)
    # c/(c-1) * (n-1)/(n-K) with n = 4 observations: 2/1 * 3/2 with c = P = 2 pairs and K = 2;
    # 4/3 * 3/2 with c = 4 units; with pair effects K = P + 1 = 3: 2/1 * 3/1 and 4/3 * 3/1
    assert report.dof_factors["pair_nofe"] == pytest.approx(3.0)
    assert report.dof_factors["unit_nofe"] == pytest.approx(2.0)
    assert report.dof_factors["pair_fe"] == pytest.approx(6.0)
    assert report.dof_factors["unit_fe"] == pytest.approx(4.0)


def test_model_mismatch_rejected(minimal):
    data, assignment = minimal
    fit = diff_in_means(data, assignment)
    with pytest.raises(ShapeMismatch):
        pair_clustered_variance(data, assignment, type(fit)(
            tau_hat=fit.tau_hat,
            intercepts=fit.intercepts,
            residuals=fit.residuals[:-1],
            model_kind="nofe",
            K=2,
        ))


def test_closed_forms_require_paired():
    rows = [
        ("s1", "a", 1, 1.0),
        ("s1", "b", 0, 2.0),
        ("s1", "c", 0, 3.0),
        ("s2", "d", 1, 4.0),
        ("s2", "e", 0, 5.0),
    ]
    data, assignment = validate_dataset(rows)
    fit = diff_in_means(data, assignment)
    with pytest.raises(NotPaired):
        pair_clustered_variance(data, assignment, fit)


def test_stratified_sandwich_path():
    # with more than two units per stratum the sandwich is the variance path;
    # the stratum-clustered no-FE form still matches the closed-form algebra
    rng = np.random.default_rng(18)
    rows = []
    for s in range(5):
        for g in range(4):
            w = int(g < 2)
            for _ in range(int(rng.integers(1, 4))):
                rows.append((f"s{s}", f"u{g}", w, float(rng.normal())))
    data, assignment = validate_dataset(rows)
    fit = diff_in_means(data, assignment)
    x_nofe, x_fe, obs_pair, obs_unit = dense_designs(data, assignment)
    v_strat = cluster_robust_covariance(x_nofe, fit.residuals, obs_pair)[1, 1]
    T, C = totals(data, assignment)
    w_obs = assignment.observation_vector(data)
    set_p = np.bincount(data.obs_pair, weights=fit.residuals * w_obs)
    seu_p = np.bincount(data.obs_pair, weights=fit.residuals * ~w_obs)
    assert rel_err(v_strat, np.sum((set_p / T - seu_p / C) ** 2)) <= 1e-10


def _acceptance_inputs():
    """The paired datasets of acceptance criteria 1, 2 and 6, in their order."""
    rng = np.random.default_rng(101)
    for _ in range(200):
        P, size = int(rng.integers(2, 21)), int(rng.integers(1, 11))
        yield random_paired(rng, P=P, uniform_size=size)
    rng = np.random.default_rng(202)
    for i in range(200):
        P = int(rng.integers(2, 9))
        yield random_paired(rng, P=P, max_size=5, max_ratio=2 if i >= 100 else None)
    rng = np.random.default_rng(606)
    for _ in range(100):
        yield random_paired(rng, P=int(rng.integers(2, 31)), uniform_size=1)


def test_variance_set_matches_closed_forms():
    worst = 0.0
    for data, assignment in _acceptance_inputs():
        vs = variance_set(data, assignment)
        fit = diff_in_means(data, assignment)
        fe = fe_estimate(data, assignment)
        worst = max(
            worst,
            rel_err(vs.pair_nofe, pair_clustered_variance(data, assignment, fit)),
            rel_err(vs.unit_nofe, unit_clustered_variance(data, assignment, fit)),
            rel_err(vs.pair_fe, pair_clustered_variance(data, assignment, fe)),
            rel_err(vs.unit_fe, unit_clustered_variance(data, assignment, fe)),
        )
    assert worst <= 1e-10


def test_kernel_over_many_units_matches_closed_forms():
    # 24,000 units: each row's dots add up three BLAS calls
    data, assignment = random_paired(np.random.default_rng(8), P=12_000)
    vs = variance_set(data, assignment)
    fit, fe = diff_in_means(data, assignment), fe_estimate(data, assignment)
    assert rel_err(vs.pair_nofe, pair_clustered_variance(data, assignment, fit)) <= 1e-10
    assert rel_err(vs.unit_nofe, unit_clustered_variance(data, assignment, fit)) <= 1e-10
    assert rel_err(vs.pair_fe, pair_clustered_variance(data, assignment, fe)) <= 1e-10
    assert rel_err(vs.unit_fe, unit_clustered_variance(data, assignment, fe)) <= 1e-10


# Prints variance_set of a seeded dataset of 30,000 units with a large offset.
STATS = """
import numpy as np
from paircluster import Assignment, ExperimentData, variance_set
rng = np.random.default_rng(2019)
P = 15_000
sizes = rng.integers(1, 20, 2 * P)
data = ExperimentData(
    rng.normal(1e3, 1.0, sizes.sum()), np.repeat(np.arange(P), 2), sizes,
    [f"p{j:05d}" for j in range(P)], ["a", "b"] * P,
)
first = rng.integers(0, 2, P)
print(repr(variance_set(data, Assignment(np.column_stack([first, 1 - first]).ravel()))))
"""


def test_variance_set_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 elements across its threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {
        threads: subprocess.run(
            [sys.executable, "-c", STATS], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    }
    assert outputs["1"] == outputs["2"]
    assert outputs["1"].startswith("UnitStats(")


def _ragged_batch(rng, rows):
    """Blocks of 2-5 units with unequal sizes, and ``rows`` valid assignments."""
    counts = rng.integers(2, 6, 12)
    block = np.repeat(np.arange(counts.size), counts)
    sizes = rng.integers(1, 8, block.size).astype(float)
    treated = np.zeros((rows, block.size), dtype=bool)
    for r in range(rows):
        for b, start in enumerate(np.cumsum(counts) - counts):
            k = rng.integers(1, counts[b])  # 1 .. count - 1 treated units
            treated[r, start + rng.permutation(counts[b])[:k]] = True
    sums = rng.normal(size=(rows, block.size)) * sizes + 3.0
    return sums, sizes, treated, block, counts.size, int(sizes.sum())


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("shared", [False, True])
def test_batched_kernel_matches_rows(rows, shared):
    sums, sizes, treated, block, n_blocks, n_obs = _ragged_batch(np.random.default_rng(rows), rows)
    if shared:
        sums = sums[0]
    batch = unit_sum_stats(sums, sizes, treated, block, n_blocks, n_obs)
    for r in range(rows):
        one = unit_sum_stats(
            sums if shared else sums[r:r + 1], sizes, treated[r:r + 1], block, n_blocks, n_obs
        )
        for field, value in zip(one._fields, one):
            assert value.shape == (1,)
            assert rel_err(getattr(batch, field)[r], value[0]) <= 1e-12, field
    # variance_set is the one-row call on a dataset's centred sums, as floats
    data = ExperimentData(
        np.random.default_rng(rows).normal(size=n_obs), block, sizes.astype(int),
        [f"b{b:02d}" for b in range(n_blocks)], [f"u{u:03d}" for u in range(block.size)],
    )
    stats = variance_set(data, Assignment(treated[-1]))
    one = unit_sum_stats(data.centred_unit_sums, sizes, treated[-1:], block, n_blocks, n_obs)
    assert all(isinstance(v, float) for v in stats)
    assert stats == tuple(float(v[0]) for v in one)


@pytest.mark.parametrize(
    "spoil, cause",  # cause: what the kernel raised for such a row when it still checked
    [
        (lambda treated, block: treated.fill(False), NoVariationInTreatment),
        (lambda treated, block: treated.__setitem__(block == 0, True), DegeneratePair),
    ],
)
def test_batched_kernel_reports_first_failing_row(spoil, cause):
    # The kernel checks no contrast; variance_set checks it before the kernel runs and
    # reports either row as check_contrast's DegeneratePair, naming the first pair.
    _, sizes, treated, block, n_blocks, n_obs = _ragged_batch(np.random.default_rng(3), 6)
    data = ExperimentData(
        np.random.default_rng(3).normal(size=n_obs), block, sizes.astype(int),
        [f"b{b:02d}" for b in range(n_blocks)], [f"u{u:03d}" for u in range(block.size)],
    )
    for k in (4, 2):  # row 2 fails first, row 4 later
        spoil(treated[k], block)
    failed = []
    for r in range(len(treated)):
        try:
            stats = variance_set(data, Assignment(treated[r]))
        except DegeneratePair as exc:
            failed.append((r, str(exc)))
        else:
            one = unit_sum_stats(
                data.centred_unit_sums, sizes, treated[r:r + 1], block, n_blocks, n_obs
            )
            assert stats == tuple(float(v[0]) for v in one)
    assert [r for r, _ in failed] == [2, 4]
    treatments = int(cause is DegeneratePair)  # an all-control row, or pair b00 all treated
    message = f"pair 'b00' has no treated/control contrast (treatments: [{treatments}]"
    assert failed[0][1].startswith(message)


def test_variance_set_may_hold_a_zero_variance():
    # constant outcomes: every residual is 0; the Monte Carlo engine alone fails on this
    rows = [(p, u, int(u in "ac"), 1.0) for p, units in (("p1", "ab"), ("p2", "cde")) for u in units]
    stats = variance_set(*validate_dataset(rows))
    assert all(isinstance(v, float) for v in stats)
    assert stats[2:] == (0.0, 0.0, 0.0, 0.0)
