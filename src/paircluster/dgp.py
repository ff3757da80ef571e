"""The synthetic stratified generator's parameters.

``DGPConfig`` describes one synthetic experiment: P strata of G units,
n_gp observations per unit with iid standard-normal potential outcomes, an
additive normal stratum shock with variance ``sigma2_gamma`` and a
per-stratum treatment effect.  The Monte Carlo engine draws each
replication's unit outcome sums from it directly.  Normal variates come
from the inverse CDF (``uniform_to_normal``, scipy's ``ndtri``) applied to
the seeded uniform stream, so draws are bit-reproducible across platforms.  They
are scipy's one use, so ``import paircluster``, ``analyze`` and resampling need numpy only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import StratumTooSmall

__all__ = ["ConstantEffect", "HeterogeneousEffect", "DGPConfig", "uniform_to_normal"]

_TINY = 2.0**-53


def uniform_to_normal(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of uniforms in [0, 1), computed in place in ``u``."""
    from scipy.special import ndtri  # the package's one use of scipy, loaded on the first call
    return ndtri(np.clip(u, _TINY, 1.0 - _TINY, out=u), out=u)


def _count(name: str, value) -> int:
    """``value`` as an int (``operator.index``); a ``ValueError`` for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


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


@dataclass(frozen=True)
class DGPConfig:
    """Parameters of the stratified generator.

    ``sigma2_gamma`` is the *variance* of the additive stratum shock.
    """

    G: int
    P: int
    n_gp: int
    sigma2_gamma: float = 0.0
    effect_profile: ConstantEffect | HeterogeneousEffect = ConstantEffect(0.0)

    def __post_init__(self):
        for name in ("G", "P", "n_gp"):  # as int: a numpy integer would reach the outputs
            object.__setattr__(self, name, _count(name, getattr(self, name)))
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
