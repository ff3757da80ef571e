"""Shared dataset builders and least-squares oracles for the test suite."""

import numpy as np

from paircluster import validate_dataset

TINY = 1e-300


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), TINY)


def paired_rows(rng, unit_sizes, outcomes=None):
    """Rows for a paired design given an (P, 2) array of unit sizes.

    One unit per pair is treated, chosen by coin flip.  Outcomes are
    standard normal unless an explicit flat array is supplied.
    """
    unit_sizes = np.asarray(unit_sizes, dtype=int)
    rows = []
    pos = 0
    for p, (n1, n2) in enumerate(unit_sizes):
        first_treated = bool(rng.random() < 0.5)
        for u, n_u in enumerate((n1, n2)):
            w = int(first_treated if u == 0 else not first_treated)
            for _ in range(int(n_u)):
                y = float(rng.normal()) if outcomes is None else float(outcomes[pos])
                rows.append((f"p{p:04d}", f"u{u}", w, y))
                pos += 1
    return rows


def random_paired(rng, P, max_size=5, balanced=False, uniform_size=None, max_ratio=None):
    """A random paired dataset plus its assignment.

    ``balanced`` forces equal sizes within each pair (sizes may still vary
    across pairs); ``uniform_size`` forces one size everywhere;
    ``max_ratio`` caps the within-pair size ratio.
    """
    if uniform_size is not None:
        sizes = np.full((P, 2), int(uniform_size))
    elif balanced:
        k = rng.integers(1, max_size + 1, size=P)
        sizes = np.column_stack([k, k])
    elif max_ratio is not None:
        n1 = rng.integers(1, max_size + 1, size=P)
        lo = np.ceil(n1 / max_ratio).astype(int)
        hi = np.minimum(max_size, (n1 * max_ratio).astype(int))
        n2 = np.array([rng.integers(l, h + 1) for l, h in zip(lo, hi)])
        sizes = np.column_stack([n1, n2])
    else:
        sizes = rng.integers(1, max_size + 1, size=(P, 2))
    return validate_dataset(paired_rows(rng, sizes))


def dense_designs(data, assignment):
    """Explicit design matrices for the two regressions.

    Returns (X_nofe, X_fe, obs_pair, obs_unit): intercept-plus-treatment
    and treatment-plus-pair-dummies, with the treatment column first in
    the FE design.
    """
    w = assignment.observation_vector(data).astype(float)
    x_nofe = np.column_stack([np.ones(data.n_total), w])
    dummies = np.zeros((data.n_total, data.P))
    dummies[np.arange(data.n_total), data.obs_pair] = 1.0
    x_fe = np.column_stack([w, dummies])
    return x_nofe, x_fe, data.obs_pair, data.obs_unit


def lstsq_fit(X, y):
    """Least-squares oracle: coefficients and residuals via numpy.lstsq."""
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta, y - X @ beta
