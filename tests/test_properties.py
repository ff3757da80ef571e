"""Property tests of ``variance_set`` (and, under a shift, of ``analyze``)
on generated designs, and of the Monte Carlo engine's independence from
the worker count.

Outcomes are multiples of 1/8 in [-8, 8], so shifted and scaled copies
are exact in float64 and every difference below is rounding in the
estimator, not in the data.  A variance whose true value is zero comes
out as rounding noise, so comparisons are relative to the larger value
or, if both are tiny, to the scale of a mean's variance, var(y)/n.
"""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paircluster import (
    DGPConfig,
    Seed,
    SizeExperimentSpec,
    analyze,
    resampling_size_experiment,
    run_size_experiment,
    validate_dataset,
    variance_set,
)
from oracles import cluster_robust_covariance, diff_in_means, fe_estimate
from helpers import dense_designs, random_paired

TOL = 1e-10
KEYS = ("pair_nofe", "unit_nofe", "pair_fe", "unit_fe")

# Fixed examples: the suite must give the same verdict on every run.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Each example of a worker-count test starts a process pool, so only a few.
POOLED = settings(max_examples=4, deadline=None, derandomize=True, database=None)
# More than one chunk of replications, so two workers really split the work.
REPS = st.integers(257, 700)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def designs(draw, max_units=2, balanced=False, min_units=2):
    """Rows of a blocked design: min_units..max_units units per block, sizes 1-4.

    Each block has at least one treated and one control unit.  With
    ``balanced`` every unit of a block has the same size.
    """
    rows = []
    for p in range(draw(st.integers(2, 6))):
        G = draw(st.integers(min_units, max_units))
        n_treated = draw(st.integers(1, G - 1))
        block_size = draw(st.integers(1, 4))
        for g in range(G):
            n = block_size if balanced else draw(st.integers(1, 4))
            ys = draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n))
            rows += [(f"p{p}", f"u{g}", int(g < n_treated), y / 8.0) for y in ys]
    return rows


def _floor(rows):
    y = np.array([r[3] for r in rows])
    return float(np.var(y)) / y.size


def _close(a, b, floor):
    return abs(a - b) <= TOL * max(abs(a), abs(b), floor)


def _variances(rows):
    vs = variance_set(*validate_dataset(rows))
    return {key: getattr(vs, key) for key in KEYS}


# 3-row units: a mean of three outcomes near 1e9 rounds by up to 6e-8, far above TOL * 8
_EIGHTHS = [
    ("p0", "u0", 1, 0.125), ("p0", "u0", 1, -1.0), ("p0", "u0", 1, 2.5),
    ("p0", "u1", 0, 0.375), ("p0", "u1", 0, -0.75),
    ("p1", "u0", 0, 1.625), ("p1", "u0", 0, -2.25),
    ("p1", "u1", 1, 0.875), ("p1", "u1", 1, 3.125), ("p1", "u1", 1, -0.75),
]


def _analysis(rows):
    report = analyze(*validate_dataset(rows))
    return report.stats.tau_nofe, report.stats.tau_fe, report.dataset["pair_effect_spread"]


@PROPERTY
@given(designs(), st.integers(-(10**9), 10**9))
@example(_EIGHTHS, 10**9)
def test_shift_invariance(rows, shift):
    shifted_rows = [(p, u, w, y + shift) for p, u, w, y in rows]
    base, shifted = _variances(rows), _variances(shifted_rows)
    floor = _floor(rows)
    assert all(_close(shifted[k], base[k], floor) for k in KEYS), (base, shifted)
    # the estimates and the block effects' spread of analyze, on the outcomes' scale
    base, shifted = _analysis(rows), _analysis(shifted_rows)
    scale = max(abs(r[3]) for r in rows)
    assert all(_close(a, b, scale) for a, b in zip(shifted, base)), (base, shifted)


@PROPERTY
@given(designs(), st.integers(-40, 40))
def test_scale_equivariance(rows, log2_c):
    c = 1.5 * 2.0**log2_c
    base = _variances(rows)
    scaled = _variances([(p, u, w, c * y) for p, u, w, y in rows])
    floor = c**2 * _floor(rows)
    assert all(_close(scaled[k], c**2 * base[k], floor) for k in KEYS), (base, scaled)


@PROPERTY
@given(designs().flatmap(lambda rows: st.tuples(st.just(rows), st.permutations(rows))))
def test_row_order_invariance(pair):
    rows, permuted = pair
    base, other = _variances(rows), _variances(permuted)
    floor = _floor(rows)
    assert all(_close(other[k], base[k], floor) for k in KEYS), (base, other)


@PROPERTY
@given(designs(balanced=True))
def test_balanced_pair_identities(rows):
    v = _variances(rows)
    floor = _floor(rows)
    assert _close(v["pair_nofe"], v["pair_fe"], floor)
    assert _close(v["pair_nofe"], 2.0 * v["unit_fe"], floor)


@PROPERTY
@given(designs())
def test_fe_ratio_bounds(rows):
    v = _variances(rows)
    assume(v["pair_fe"] > _floor(rows) * 1e-6)
    ratio = v["unit_fe"] / v["pair_fe"]
    assert 0.5 - TOL <= ratio <= 1.0 + TOL


def _sandwich(data, assignment):
    """Both explicit fits, and the four variances by the generic sandwich."""
    x_nofe, x_fe, obs_pair, obs_unit = dense_designs(data, assignment)
    fit = diff_in_means(data, assignment)
    fe = fe_estimate(data, assignment)
    return fit, fe, {
        "pair_nofe": cluster_robust_covariance(x_nofe, fit.residuals, obs_pair)[1, 1],
        "unit_nofe": cluster_robust_covariance(x_nofe, fit.residuals, obs_unit)[1, 1],
        "pair_fe": cluster_robust_covariance(x_fe, fe.residuals, obs_pair)[0, 0],
        "unit_fe": cluster_robust_covariance(x_fe, fe.residuals, obs_unit)[0, 0],
    }


@PROPERTY
@given(designs(max_units=6))
def test_matches_sandwich_for_any_block_size(rows):
    _, _, oracle = _sandwich(*validate_dataset(rows))
    got = _variances(rows)
    floor = _floor(rows)
    assert all(_close(got[k], oracle[k], floor) for k in KEYS), (got, oracle)


@PROPERTY
@given(designs(min_units=3, max_units=6))
def test_analyze_matches_sandwich_on_strata(rows):
    data, assignment = validate_dataset(rows)
    report = analyze(data, assignment)
    fit, fe, oracle = _sandwich(data, assignment)
    scale = float(np.abs(data.outcomes).max())
    assert abs(report.stats.tau_nofe - fit.tau_hat) <= TOL * max(abs(fit.tau_hat), scale)
    assert abs(report.stats.tau_fe - fe.tau_hat) <= TOL * max(abs(fe.tau_hat), scale)
    got = {key: getattr(report.stats, key) for key in KEYS}
    floor = _floor(rows)
    assert all(_close(got[k], oracle[k], floor) for k in KEYS), (got, oracle)
    assert report.ratio_m_range is None  # the m range bounds the FE ratio on pairs only
    assert report.to_text().startswith("stratified experiment analysis\n")


def _serialized(table):
    return table.to_csv_text(), json.dumps(table.to_json_dict())


@POOLED
@given(st.integers(2, 5), st.integers(2, 8), st.integers(1, 4), REPS, SEEDS)
def test_stratified_size_table_independent_of_workers(G, P, n_gp, reps, seed):
    spec = SizeExperimentSpec(DGPConfig(G=G, P=P, n_gp=n_gp), reps, Seed(seed))
    one, two = (_serialized(run_size_experiment(spec, threads=t)) for t in (1, 2))
    assert one == two


@POOLED
@given(st.integers(3, 20), REPS, SEEDS)
def test_resampling_size_table_independent_of_workers(P, reps, seed):
    data, _ = random_paired(np.random.default_rng(seed), P=P)
    one, two = (
        _serialized(resampling_size_experiment(data, reps, 0.05, Seed(seed), threads=t))
        for t in (1, 2)
    )
    assert one == two
