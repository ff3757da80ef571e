"""Treatment assignment draws for paired and stratified designs.

Each stratum gets its own sub-seed derived from (master seed, stratum
index), so draws are reproducible and independent of how the strata are
iterated.  Subset sampling uses a seeded shuffle: exact uniformity over
subsets, no rejection loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Assignment, ExperimentData

__all__ = ["Seed", "draw_paired_assignment", "draw_stratified_assignment"]

_MAX_SEED = 2**64


@dataclass(frozen=True)
class Seed:
    """Master seed; the same seed always reproduces the same draws."""

    master: int

    def __post_init__(self):
        if not (0 <= int(self.master) < _MAX_SEED):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "master", int(self.master))

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master)

    def spawn(self, n: int) -> list[np.random.SeedSequence]:
        return self.sequence().spawn(n)


def _stratified_treated(
    unit_counts: list[int], master: np.random.SeedSequence
) -> list[np.ndarray]:
    """Per-stratum treated masks: floor(G/2) treated, uniform over subsets."""
    children = master.spawn(len(unit_counts))
    masks = []
    for count, child in zip(unit_counts, children):
        rng = np.random.default_rng(child)
        order = rng.permutation(count)
        mask = np.zeros(count, dtype=bool)
        mask[order[: count // 2]] = True
        masks.append(mask)
    return masks


def draw_stratified_assignment(data: ExperimentData, seed: Seed) -> Assignment:
    """Draw floor(G/2) treated units per stratum, independently across strata.

    With an odd stratum size G this leaves ceil(G/2) = (G+1)/2 controls.
    """
    masks = _stratified_treated(data.pair_unit_counts.tolist(), seed.sequence())
    return Assignment(np.concatenate(masks))


def draw_paired_assignment(data: ExperimentData, seed: Seed) -> Assignment:
    """Draw one treated unit per pair, each unit with probability 1/2.

    The stratified draw at G = 2, after checking that every pair has two units.
    """
    data.pair_columns(data.unit_sizes)
    return draw_stratified_assignment(data, seed)
