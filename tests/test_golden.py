"""Golden tallies: exact rejection counts for pinned seeds.

Each entry is ``[raw, dof-adjusted]`` rejections out of ``REPS``, the
same at one and at two workers.  The counts are pinned: a change to the
engine that moves one of them changed results.
"""

import pytest

from paircluster import (
    DGPConfig,
    Seed,
    SizeExperimentSpec,
    resampling_size_experiment,
    run_size_experiment,
    validate_dataset,
)

REPS = 300  # more than one chunk, so the multi-worker path splits the work

SIMULATE_GOLDEN = {
    2: {
        "unit_nofe": [4, 4],
        "unit_fe": [52, 45],
        "stratum_nofe": [23, 21],
        "stratum_fe": [23, 16],
    },
    3: {
        "unit_nofe": [2, 1],
        "unit_fe": [23, 21],
        "stratum_nofe": [9, 8],
        "stratum_fe": [9, 7],
    },
    5: {
        "unit_nofe": [6, 6],
        "unit_fe": [28, 27],
        "stratum_nofe": [23, 21],
        "stratum_fe": [23, 19],
    },
    10: {
        "unit_nofe": [5, 5],
        "unit_fe": [20, 19],
        "stratum_nofe": [21, 20],
        "stratum_fe": [21, 17],
    },
}

RESAMPLE_GOLDEN = {
    "unit_nofe": [1, 1],
    "unit_fe": [41, 32],
    "pair_nofe": [19, 17],
    "pair_fe": [17, 7],
}


def _tallies(table):
    return {
        f"{c.test}_{c.model}": [c.rejections, round(c.rejection_rate_dof * c.reps)]
        for c in table.cells
    }


def _unbalanced_pairs():
    """40 pairs, unit sizes 1-5 with unequal sizes within most pairs.

    Outcomes are multiples of 1/64, built without a random stream, so the
    dataset is exactly the same on every platform.
    """
    rows = []
    for p in range(40):
        for u, n in enumerate((p % 4 + 1, (3 * p) % 5 + 1)):
            for k in range(n):
                y = ((p * 131 + u * 17 + k * 7919) % 1009) / 64.0 - 8.0
                rows.append((f"p{p:02d}", f"u{u}", int(u == p % 2), y))
    return validate_dataset(rows)[0]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("G", sorted(SIMULATE_GOLDEN))
def test_simulate_golden_tallies(G, threads):
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=G, P=30, n_gp=4, sigma2_gamma=0.2),
        reps=REPS,
        master_seed=Seed(2019),
    )
    assert _tallies(run_size_experiment(spec, threads=threads)) == SIMULATE_GOLDEN[G]


@pytest.mark.parametrize("threads", [1, 2])
def test_resample_golden_tallies(threads):
    table = resampling_size_experiment(
        _unbalanced_pairs(), REPS, 0.05, Seed(2020), threads=threads
    )
    assert _tallies(table) == RESAMPLE_GOLDEN
