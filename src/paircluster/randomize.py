"""Treatment assignment draws for paired and stratified designs, and seed streams.

Every random stream is a child of a master seed: child i of ``Seed(m)``
draws exactly what ``np.random.default_rng(SeedSequence(m, spawn_key=(i,)))``
draws (seed stream v1).  ``ChildStreams`` is the one place that derives
these streams; it does so in bulk, for a whole range of children at once.
Stratum j of an assignment draws from child j, so draws are reproducible
and independent of how the strata are iterated.  Subset sampling uses a
seeded shuffle: exact uniformity over subsets, no rejection loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData
from .dgp import _count

__all__ = ["Seed", "ChildStreams", "draw_paired_assignment", "draw_stratified_assignment"]

_MAX_SEED = 2**64
MAX_CHILDREN = 2**32  # a child index is hashed as one 32-bit spawn-key word

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 2**32 - 1
# A pool is built by 16 hashmix calls when the entropy has at most 4 words.
_SPAWN_CONST = _INIT_A * pow(_MULT_A, 16, 2**32) & _M32
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, 2**128 - 1


@dataclass(frozen=True)
class Seed:
    """Master seed; the same seed always reproduces the same draws."""

    master: int

    def __post_init__(self):
        object.__setattr__(self, "master", _count("seed", self.master))
        if not 0 <= self.master < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _fold(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> np.uint32(16))


class ChildStreams:
    """The PCG64 streams of children ``start .. start + count - 1`` of a seed.

    Child i is ``default_rng(SeedSequence(seed.master, spawn_key=(i,)))``,
    bit for bit, but no ``SeedSequence`` or ``Generator`` is built per child.
    numpy's ``SeedSequence`` hash runs for all the children in one
    vectorized pass: starting from the pool of ``SeedSequence(master)``, each
    spawn-key word is mixed into the pool, and ``generate_state(4, uint64)``
    hashes the pool into four words.  PCG64 seeds itself from those words
    with two steps of its LCG; the same steps give each child's
    ``(state, inc)``.  ``rng(k)`` then sets one shared generator to child
    ``start + k``.
    """

    def __init__(self, seed: Seed, start: int, count: int):
        if not 0 <= start <= start + count <= MAX_CHILDREN:
            raise ValueError(f"child indexes must lie in [0, {MAX_CHILDREN})")
        mixer = np.tile(np.random.SeedSequence(seed.master).pool, (count, 1))
        const = _SPAWN_CONST
        children = np.arange(start, start + count, dtype=np.uint32)
        for dst in range(4):  # mix(mixer[dst], hashmix(children)), hashmix advancing const
            value = children ^ np.uint32(const)
            const = const * _MULT_A & _M32
            value = _fold(value * np.uint32(const))
            mixer[:, dst] = _fold(np.uint32(_MIX_L) * mixer[:, dst] - np.uint32(_MIX_R) * value)
        words = np.empty((count, 8), np.uint32)  # generate_state(4, uint64) as 32-bit words
        const = _INIT_B
        for dst in range(8):
            value = mixer[:, dst % 4] ^ np.uint32(const)
            const = const * _MULT_B & _M32
            words[:, dst] = _fold(value * np.uint32(const))
        # Little-endian pairs of words; then object arrays for 128-bit arithmetic.
        seeds = words.astype(np.uint64)
        seeds = (seeds[:, 0::2] | (seeds[:, 1::2] << np.uint64(32))).astype(object)
        # pcg64_set_seed: inc = 2 * initseq + 1; state = (inc + initstate) * mult + inc.
        self._inc = ((seeds[:, 2] << 65) | (seeds[:, 3] << 1) | 1) & _M128
        state = (seeds[:, 0] << 64) | seeds[:, 1]
        self._state = ((self._inc + state) * _PCG_MULT + self._inc) & _M128
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def rng(self, k: int) -> np.random.Generator:
        """The shared generator, reset to the start of child ``start + k``'s stream."""
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state[k], "inc": self._inc[k]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator


def draw_stratified_assignment(data: ExperimentData, seed: Seed) -> Assignment:
    """Draw floor(G/2) treated units per stratum, independently across strata.

    Stratum j permutes its units with child j of ``seed``, uniform over
    subsets.  With an odd stratum size G this leaves ceil(G/2) = (G+1)/2
    controls.
    """
    counts = data.pair_unit_counts.tolist()
    streams = ChildStreams(seed, 0, len(counts))
    starts = np.cumsum([0, *counts[:-1]]).tolist()
    treated = np.zeros(data.n_units, dtype=bool)
    treated[np.concatenate([
        streams.rng(j).permutation(count)[: count // 2] + first
        for j, (count, first) in enumerate(zip(counts, starts))
    ])] = True
    return Assignment(treated)


def draw_paired_assignment(data: ExperimentData, seed: Seed) -> Assignment:
    """Draw one treated unit per pair, each unit with probability 1/2.

    The stratified draw at G = 2, after checking that every pair has two units.
    """
    data.require_pairs()
    return draw_stratified_assignment(data, seed)
