import numpy as np
import pytest

from paircluster import (
    DGPConfig,
    ExperimentData,
    Seed,
    draw_stratified_assignment,
    validate_dataset,
)
from paircluster.errors import NotPaired, StratumTooSmall
from oracles import null_resample, simulate_strata


def _strata_skeleton(P, G):
    """P strata of G single-observation units."""
    return ExperimentData(
        outcomes=np.zeros(P * G),
        unit_pair=np.repeat(np.arange(P), G),
        unit_sizes=np.ones(P * G, dtype=int),
        pair_ids=[f"p{p:05d}" for p in range(P)],
        unit_ids=[f"u{g:02d}" for g in range(G)] * P,
    )


def _paired_skeleton(P):
    return _strata_skeleton(P, G=2)


def test_single_pair_forced():
    data = _paired_skeleton(1)
    for master in (0, 1, 2, 3, 99):
        assignment = draw_stratified_assignment(data, Seed(master))
        assert assignment.treated.sum() == 1


@pytest.mark.parametrize("value", [1.9, np.float64(3.7), True, "5", None, -1, 2**64])
def test_seed_must_be_a_64_bit_integer(value):
    with pytest.raises(ValueError, match="seed must be"):
        Seed(value)
    master = Seed(np.uint64(2**64 - 1)).master  # a numpy integer is a seed, stored as an int
    assert type(master) is int and master == 2**64 - 1


def test_determinism():
    data = _paired_skeleton(50)
    a1 = draw_stratified_assignment(data, Seed(7))
    a2 = draw_stratified_assignment(data, Seed(7))
    assert a1 == a2
    a3 = draw_stratified_assignment(data, Seed(8))
    assert a1 != a3


def test_paired_first_unit_frequency():
    # binomial oracle: over P pairs the first-unit-treated fraction has
    # sd 0.5/sqrt(P), so a [0.48, 0.52] band is a 4-sigma check at P=10000
    P = 10000
    data = _paired_skeleton(P)
    assignment = draw_stratified_assignment(data, Seed(314))
    first_treated = assignment.treated[0::2].sum()
    assert 0.48 <= first_treated / P <= 0.52


def test_not_paired():
    data = _strata_skeleton(3, G=3)
    with pytest.raises(NotPaired):
        data.require_pairs()


def test_stratum_too_small_config():
    with pytest.raises(StratumTooSmall):
        DGPConfig(G=1, P=10, n_gp=1)


def test_stratified_counts_exact():
    for G in (2, 3, 4, 5, 7, 10):
        data = _strata_skeleton(6, G=G)
        for master in range(20):
            assignment = draw_stratified_assignment(data, Seed(master))
            w = assignment.unit_vector(data).reshape(6, G)
            assert np.all(w.sum(axis=1) == G // 2)


def test_g5_split():
    data = _strata_skeleton(4, G=5)
    assignment = draw_stratified_assignment(data, Seed(12))
    w = assignment.unit_vector(data).reshape(4, 5)
    assert np.all(w.sum(axis=1) == 2)
    assert np.all((~w).sum(axis=1) == 3)


def test_exchangeability_g3():
    # each unit treated with probability floor(3/2)/3 = 1/3
    draws = 10000
    P, G = 4, 3
    data = _strata_skeleton(P, G=G)
    counts = np.zeros((P, G))
    for master in range(draws):
        assignment = draw_stratified_assignment(data, Seed(master))
        counts += assignment.unit_vector(data).reshape(P, G)
    p_hat = counts / draws
    band = 3 * np.sqrt((1 / 3) * (2 / 3) / draws)
    assert np.all(np.abs(p_hat - 1 / 3) <= band)


def test_assignment_covers_validated_units():
    rows = [
        ("p1", "a", 1, 2.0),
        ("p1", "b", 0, 0.0),
        ("p2", "c", 0, 1.0),
        ("p2", "d", 1, 1.0),
    ]
    data, _ = validate_dataset(rows)
    assignment = draw_stratified_assignment(data, Seed(0))
    assert assignment.unit_vector(data).reshape(2, 2).sum(axis=1).tolist() == [1, 1]


# Treated bits of 12 pairs, pinned before the paired draw became the
# stratified one; any change here is a change of the random stream.
PAIRED_STREAMS = {
    0: ("011001100110010110011010", "010110100110100110010110"),
    1: ("010110100110011001100101", "100110101010010110101001"),
    7: ("010110010110011001010110", "010110100110101001101010"),
    2**40 + 3: ("101001101010101010100101", "010110100110010101011001"),
}


@pytest.mark.parametrize("master", sorted(PAIRED_STREAMS))
def test_paired_streams_pinned(master):
    drawn, simulated = PAIRED_STREAMS[master]
    data = _paired_skeleton(12)

    def bits(assignment):
        return "".join("1" if t else "0" for t in assignment.treated)

    assert bits(draw_stratified_assignment(data, Seed(master))) == drawn
    assert bits(null_resample(data, "paired", Seed(master))) == drawn
    _, assignment, _ = simulate_strata(DGPConfig(G=2, P=12, n_gp=2), Seed(master))
    assert bits(assignment) == simulated
