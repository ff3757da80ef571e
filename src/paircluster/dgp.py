"""Synthetic data generation and null-imposed resampling.

The stratified generator draws iid standard-normal potential outcomes,
adds a shared normal stratum shock, and assembles the observed outcome
from a fresh stratified assignment.  Normal variates come from the
inverse CDF applied to the seeded uniform stream so that draws are
bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtri

from .data import Assignment, ExperimentData, PotentialData
from .errors import StratumTooSmall
from .randomize import (
    ChildStreams,
    Seed,
    _stratified_treated,
    draw_paired_assignment,
    draw_stratified_assignment,
)

__all__ = [
    "ConstantEffect",
    "HeterogeneousEffect",
    "EffectProfile",
    "DGPConfig",
    "simulate_strata",
    "null_resample",
]

_TINY = 2.0**-53


def normal_draws(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals via the inverse CDF of the uniform stream."""
    return uniform_to_normal(rng.random(size))


def uniform_to_normal(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of uniforms in [0, 1), computed in place in ``u``."""
    return ndtri(np.clip(u, _TINY, 1.0 - _TINY, out=u), out=u)


@dataclass(frozen=True)
class ConstantEffect:
    """The same average effect in every stratum."""

    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"effect must be finite, got {self.tau!r}")

    def stratum_effects(self, n_strata: int) -> np.ndarray:
        return np.full(n_strata, float(self.tau))


@dataclass(frozen=True, eq=False)
class HeterogeneousEffect:
    """A fixed per-stratum effect vector, drawn once per experiment."""

    taus: np.ndarray

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float).reshape(-1)
        if not np.all(np.isfinite(taus)):
            raise ValueError("effects must be finite")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)

    def stratum_effects(self, n_strata: int) -> np.ndarray:
        if self.taus.size != n_strata:
            raise ValueError(f"expected {n_strata} effects, got {self.taus.size}")
        return self.taus


EffectProfile = Union[ConstantEffect, HeterogeneousEffect]


@dataclass(frozen=True)
class DGPConfig:
    """Parameters of the stratified generator.

    ``sigma2_gamma`` is the *variance* of the additive stratum shock.
    """

    G: int
    P: int
    n_gp: int
    sigma2_gamma: float = 0.0
    effect_profile: EffectProfile = ConstantEffect(0.0)

    def __post_init__(self):
        if self.G < 2:
            raise StratumTooSmall(f"need G >= 2 units per stratum, got {self.G}")
        if self.P < 2:
            raise ValueError(f"need P >= 2 strata, got {self.P}")
        if self.n_gp < 1:
            raise ValueError(f"need n_gp >= 1 observations per unit, got {self.n_gp}")
        if not 0 <= self.sigma2_gamma < math.inf:
            raise ValueError(f"sigma2_gamma must be finite and >= 0, got {self.sigma2_gamma!r}")
        if isinstance(self.effect_profile, HeterogeneousEffect):
            self.effect_profile.stratum_effects(self.P)

    @property
    def n_units(self) -> int:
        return self.G * self.P

    @property
    def n_obs(self) -> int:
        return self.G * self.P * self.n_gp


def simulate_strata(
    config: DGPConfig, seed: Seed
) -> tuple[ExperimentData, Assignment, PotentialData]:
    """Draw one synthetic stratified experiment.

    Potential outcomes are iid standard normal plus the stratum shock;
    the treated-state outcome additionally carries the stratum's effect.
    The observed outcome of each observation is its potential outcome
    under the drawn assignment.
    """
    rng = ChildStreams(seed, 0, 1).rng(0)  # child 0 draws outcomes, child 1's children assign
    n = config.n_obs
    obs_stratum = np.repeat(np.arange(config.P), config.G * config.n_gp)

    y0 = normal_draws(rng, n)
    y1 = normal_draws(rng, n)
    if config.sigma2_gamma > 0:
        gamma = normal_draws(rng, config.P) * np.sqrt(config.sigma2_gamma)
        y0 = y0 + gamma[obs_stratum]
        y1 = y1 + gamma[obs_stratum]
    taus = config.effect_profile.stratum_effects(config.P)
    y1 = y1 + taus[obs_stratum]

    treated = _stratified_treated([config.G] * config.P, seed, prefix=(1,))
    w_obs = np.repeat(treated, config.n_gp)
    observed = np.where(w_obs, y1, y0)

    # Zero-padded ids sort in generation order, so the arrays are canonical as built.
    p_width, g_width = max(5, len(str(config.P))), max(3, len(str(config.G)))
    data = ExperimentData(
        outcomes=observed,
        unit_pair=np.repeat(np.arange(config.P), config.G),
        unit_sizes=np.full(config.n_units, config.n_gp),
        pair_ids=[f"s{p:0{p_width}d}" for p in range(1, config.P + 1)],
        unit_ids=[f"u{g:0{g_width}d}" for g in range(1, config.G + 1)] * config.P,
    )
    return data, Assignment(treated), PotentialData(y0=y0, y1=y1)


def null_resample(data: ExperimentData, design: str, seed: Seed) -> Assignment:
    """Redraw the assignment while holding observed outcomes fixed.

    Treating the observed outcomes as both potential outcomes imposes a
    true effect of exactly zero, so test rejections under the redraw
    measure size.  ``design`` is "paired" or "stratified".
    """
    if design == "paired":
        return draw_paired_assignment(data, seed)
    if design == "stratified":
        return draw_stratified_assignment(data, seed)
    raise ValueError(f"design must be 'paired' or 'stratified', got {design!r}")
