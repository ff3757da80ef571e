"""Seed stream v1: every random draw the package makes, and the streams they read.

Every random stream is a child of a master seed: child i of ``Seed(m)``
draws exactly what ``np.random.default_rng(SeedSequence(m, spawn_key=(i,)))``
draws.  ``ChildStreams`` is the one place that derives these streams, in bulk
for a range of children.  Monte Carlo replication i reads one row of uniforms
from child i (``ChildStreams.uniforms``): ``[P*G assignment | P*G unit sums |
P stratum shocks, when sigma2_gamma > 0]`` for the generator and ``[P coins]``
for resampling.  Normals are the inverse normal CDF of uniforms clipped to
[2**-53, 1 - 2**-53] (``uniform_to_normal``: scipy's ``ndtri``, its one use, so
``import paircluster``, ``analyze`` and resampling need numpy only).

The three assignment rules: ``draw_stratified_assignment`` permutes stratum
j's units with child j and treats the first floor(G/2) (pairs first call
``ExperimentData.require_pairs``); ``StratifiedDraw``, the generator, treats
each stratum's floor(G/2) smallest uniforms; ``PairedResample``, null
resampling, flips one coin per pair, a uniform below 0.5 treating its first unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData
from .dgp import DGPConfig, _count

__all__ = ["Seed", "ChildStreams", "draw_stratified_assignment", "uniform_to_normal",
           "StratifiedDraw", "PairedResample"]

_TINY = 2.0**-53
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

    def uniforms(self, first: int, count: int, width: int) -> np.ndarray:
        """(count, width) uniforms: row k opens the stream of child ``start + first + k``."""
        out = np.empty((count, width))
        for k in range(count):
            self.rng(first + k).random(out=out[k])
        return out


def uniform_to_normal(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of uniforms in [0, 1), as a new contiguous array."""
    from scipy.special import ndtri  # the package's one use of scipy, loaded on the first call
    z = np.clip(u, _TINY, 1.0 - _TINY)
    return ndtri(z, out=z)


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



class StratifiedDraw:
    """Unit sums and a stratified assignment from the synthetic generator."""

    def __init__(self, cfg: DGPConfig):
        self.taus = np.broadcast_to(cfg.effect, cfg.P) if np.any(cfg.effect) else None
        self.G, self.P, self.n_gp, self.sigma2 = cfg.G, cfg.P, cfg.n_gp, cfg.sigma2_gamma
        self.block = np.repeat(np.arange(cfg.P), cfg.G)
        self.sizes = np.full(cfg.n_units, float(cfg.n_gp))
        self.label, self.design = "stratum", f"stratified(G={cfg.G},P={cfg.P},n_gp={cfg.n_gp})"
        uniform_to_normal(np.empty(0))  # loads scipy here, so forked workers inherit it

    def batch(self, streams, first, count):
        """(sums, treated) of the ``count`` replications from ``first``, each (count, units)."""
        P, G, n_gp, units = self.P, self.G, self.n_gp, self.block.size
        u = streams.uniforms(first, count, 2 * units + (P if self.sigma2 > 0.0 else 0))
        u_order = u[:, :units].reshape(count, P, G)
        # Each stratum's G // 2 smallest uniforms are treated (ties have probability < G**2 / 2**54).
        if G == 2:  # the same mask as the partition, ties included, at a fraction of its cost
            kth = np.minimum(u_order[..., :1], u_order[..., 1:])
        else:
            kth = np.partition(u_order, G // 2 - 1, axis=-1)[..., G // 2 - 1 : G // 2]
        treated = (u_order <= kth).reshape(count, units)
        sums = uniform_to_normal(u[:, units : 2 * units])
        sums *= math.sqrt(n_gp)  # in law, the sum of n_gp iid standard normals
        if self.sigma2 > 0.0:
            shocks = uniform_to_normal(u[:, 2 * units :]) * math.sqrt(self.sigma2)
            sums += n_gp * shocks[:, self.block]
        if self.taus is not None:
            sums += n_gp * self.taus[self.block] * treated
        return sums, treated


class PairedResample:
    """Fixed unit sums of a paired dataset under fresh coin-flip assignments."""

    def __init__(self, data: ExperimentData):
        data.require_pairs()
        self.sums = data.centred_unit_sums
        self.sizes = data.unit_sizes.astype(float)
        self.block = data.unit_pair
        self.G, self.label, self.design = 2, "pair", f"resampled(P={data.P})"

    def batch(self, streams, first, count):
        """The shared (units,) sums and (count, units) assignments of ``count`` replications."""
        heads = streams.uniforms(first, count, self.block.size // 2) < 0.5
        return self.sums, np.stack([heads, ~heads], axis=2).reshape(count, -1)
