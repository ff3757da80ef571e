import json
import math

import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from paircluster import analyze
from paircluster.errors import ZeroVariance
from paircluster.variance import critical_value
from oracles import (
    NORMAL_VARIANCE_TWO,
    NormalReference,
    STANDARD_NORMAL,
    standard_normal_cdf,
    t_test,
)
from helpers import random_paired


def test_boundary_five_percent():
    res = t_test(1.96, 1.0, tau_null=0.0, level=0.05)
    assert res.t_stat == pytest.approx(1.96)
    assert res.p_value == pytest.approx(0.05, abs=5e-5)


def test_variance_two_reference():
    res = t_test(1.96, 1.0, reference=NORMAL_VARIANCE_TWO)
    assert res.p_value == pytest.approx(0.165, abs=1e-3)
    assert not res.reject


def test_null_point():
    res = t_test(3.0, 4.0, tau_null=3.0)
    assert res.t_stat == 0.0
    assert res.p_value == 1.0
    assert not res.reject


def test_reject_iff_p_below_level():
    for t in (0.5, 1.5, 1.95, 1.97, 3.0):
        res = t_test(t, 1.0, level=0.05)
        assert res.reject == (res.p_value < 0.05)


def test_p_monotone_in_t():
    ps = [t_test(t, 1.0).p_value for t in np.linspace(0.0, 5.0, 41)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_scale_equivariance():
    rng = np.random.default_rng(0)
    base = t_test(0.7, 0.09, tau_null=0.2, level=0.1)
    for c in (1e-6, 0.5, 3.0, 1e6, -2.0, -1e-4):
        scaled = t_test(c * 0.7, c * c * 0.09, tau_null=c * 0.2, level=0.1)
        assert abs(scaled.t_stat) == pytest.approx(abs(base.t_stat), rel=1e-12)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-12)
        assert scaled.reject == base.reject
    del rng


def test_zero_variance():
    with pytest.raises(ZeroVariance):
        t_test(1.0, 0.0)
    with pytest.raises(ZeroVariance):
        t_test(1.0, -1e-9)


def test_level_domain():
    with pytest.raises(ValueError):
        t_test(1.0, 1.0, level=0.0)
    with pytest.raises(ValueError):
        t_test(1.0, 1.0, level=1.0)
    with pytest.raises(ValueError):
        NormalReference(0.0)


def test_normal_cdf_against_high_precision_series():
    mpmath.mp.dps = 40
    for x in np.linspace(-8.0, 8.0, 161):
        exact = float(0.5 * mpmath.erfc(-mpmath.mpf(float(x)) / mpmath.sqrt(2)))
        assert abs(standard_normal_cdf(float(x)) - exact) <= 1e-12


def test_variance_two_is_rescaled_standard_normal():
    for t in (0.3, 1.0, 2.5, 4.0):
        direct = t_test(t, 1.0, reference=NORMAL_VARIANCE_TWO).p_value
        rescaled = 2.0 * (1.0 - standard_normal_cdf(t / math.sqrt(2.0)))
        assert direct == pytest.approx(rescaled, rel=1e-10)
    assert STANDARD_NORMAL.variance == 1.0


def test_report_tests_equal_the_standard_normal_oracle():
    data, assignment = random_paired(np.random.default_rng(3), 30)
    report = analyze(data, assignment, level=0.1)
    assert len(report.tests) == 4
    for (cluster, model), res in report.tests.items():
        tau = report.tau_fe if model == "fe" else report.tau_nofe
        expected = t_test(tau, report.variances.value(cluster, model), level=0.1)
        assert (res.t_stat, res.p_value, res.reject) == (
            expected.t_stat, expected.p_value, expected.reject
        )


@pytest.mark.parametrize("level", [0.01, 0.05, 0.1, 0.2])
def test_critical_value_is_the_normal_quantile(level):
    z = critical_value(level)
    expected = float(ndtri(1.0 - level / 2.0))  # scipy's inverse normal CDF
    assert type(z) is float
    assert abs(z - expected) <= 4 * math.ulp(expected)
    # |t| > z and p = erfc(|t| / sqrt(2)) < level agree down to 1e-12 of z, on either side
    for k in range(1, 1001):
        for t in (z * (1.0 + k * 1e-12), -z * (1.0 - k * 1e-12)):
            assert (abs(t) > z) == (math.erfc(abs(t) / math.sqrt(2.0)) < level)


def test_the_smallest_level_has_a_finite_critical_value():
    # the next float above 2**-53, where 1 - level/2 no longer rounds to 1
    assert critical_value(math.nextafter(2.0**-53, 1.0)) == pytest.approx(8.2095, abs=1e-4)


@pytest.mark.parametrize("option, message", [
    # at or below 2**-53 (1e-300 and 2**-53 here), 1 - level/2 rounds to 1, an infinite z
    *(({"level": level}, "level must be in")
      for level in (1e-300, 2.0**-53, 0.0, 1.0, -0.5, float("nan"))),
    *(({"level": level}, "level must be a number") for level in ("0.05", None, True)),
])
def test_analyze_refuses_bad_options_before_the_data(option, message):
    with pytest.raises(ValueError, match=message):  # None would fail as a dataset
        analyze(None, None, **option)


def test_a_numpy_float_level_gives_a_json_report():
    data, assignment = random_paired(np.random.default_rng(3), 30)
    report = analyze(data, assignment, level=np.float32(0.05))
    assert type(report.level) is float
    assert json.loads(json.dumps(report.to_json_dict()))["level"] == float(np.float32(0.05))
