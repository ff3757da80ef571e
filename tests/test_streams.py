"""Bulk child streams are bit-identical to numpy's own children (seed stream v1).

The oracle is the per-child construction the package used before streams
were derived in bulk: ``default_rng(SeedSequence(master, spawn_key=(i,)))``.
A numpy release that changes its ``SeedSequence`` hash or PCG64 seeding
fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircluster import (
    DGPConfig,
    ExperimentData,
    Seed,
    SizeExperimentSpec,
    draw_stratified_assignment,
    run_size_experiment,
)
from paircluster import montecarlo
from paircluster.randomize import MAX_CHILDREN, ChildStreams
from oracles import simulate_strata

COUNT = 5


def _oracle(master, i):
    return np.random.default_rng(np.random.SeedSequence(master, spawn_key=(i,)))


def _assert_children_match(master, start, count):
    streams = ChildStreams(Seed(master), start, count)
    for k in range(count):
        oracle = _oracle(master, start + k)
        assert streams.rng(k).bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(streams.rng(k).random(9), oracle.random(9))
        streams.rng(k).integers(0, 7)  # leaves half of a 64-bit draw buffered
        fresh = _oracle(master, start + k)
        assert np.array_equal(streams.rng(k).permutation(7), fresh.permutation(7))


@pytest.mark.parametrize("start", [0, MAX_CHILDREN - COUNT])
# Streams have no spawn-key prefix; the one-value axis keeps the cases' ids.
@pytest.mark.parametrize("prefix", [()])
@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_child_streams_match_numpy(master, prefix, start):
    _assert_children_match(master, start, COUNT)


@settings(max_examples=60, deadline=None)
@given(
    master=st.integers(0, 2**64 - 1),
    start=st.integers(0, MAX_CHILDREN - 3),
    count=st.integers(1, 3),
)
def test_child_streams_match_numpy_sweep(master, start, count):
    _assert_children_match(master, start, count)


def test_child_indexes_beyond_one_spawn_word_rejected():
    with pytest.raises(ValueError, match="child indexes"):
        ChildStreams(Seed(1), MAX_CHILDREN - 2, 3)


def _uniforms_oracle(master, count, width):
    """The per-replication loop: replication i fills its row from its own generator."""
    return np.stack([_oracle(master, i).random(width) for i in range(count)])


def test_engine_uniforms_across_sub_batch_and_chunk_boundaries(monkeypatch):
    P, G, reps, master = 100, 2, 600, 2**40 + 3
    assert max(1, montecarlo._SUB_BATCH // (P * G)) < montecarlo._CHUNK < reps
    drawn = []
    real = ChildStreams.uniforms

    def recording(*args):
        drawn.append(real(*args))
        return drawn[-1]

    monkeypatch.setattr(ChildStreams, "uniforms", recording)
    spec = SizeExperimentSpec(DGPConfig(G=G, P=P, n_gp=3, sigma2_gamma=0.5), reps, Seed(master))
    run_size_experiment(spec, threads=1)
    assert len(drawn) > 2 * -(-reps // montecarlo._CHUNK)  # several sub-batches per chunk
    expected = _uniforms_oracle(master, reps, 2 * P * G + P)
    assert np.array_equal(np.concatenate(drawn), expected)


def test_stratified_assignment_matches_per_stratum_generators():
    sizes = [2, 3, 5, 4, 6, 2, 7]
    data = ExperimentData(
        outcomes=np.zeros(sum(sizes)),
        unit_pair=np.repeat(np.arange(len(sizes)), sizes),
        unit_sizes=np.ones(sum(sizes), dtype=int),
        pair_ids=[f"p{p}" for p in range(len(sizes))],
        unit_ids=[f"u{g}" for size in sizes for g in range(size)],
    )

    def oracle(parent, counts):
        masks = []
        for count, child in zip(counts, parent.spawn(len(counts))):
            mask = np.zeros(count, dtype=bool)
            mask[np.random.default_rng(child).permutation(count)[: count // 2]] = True
            masks.append(mask)
        return np.concatenate(masks)

    for master in (0, 1, 2**64 - 1):
        drawn = draw_stratified_assignment(data, Seed(master)).treated
        assert np.array_equal(drawn, oracle(np.random.SeedSequence(master), sizes))
        config = DGPConfig(G=5, P=6, n_gp=2)
        _, assignment, _ = simulate_strata(config, Seed(master))
        assign_parent = np.random.SeedSequence(master).spawn(2)[1]
        assert np.array_equal(assignment.treated, oracle(assign_parent, [5] * 6))
