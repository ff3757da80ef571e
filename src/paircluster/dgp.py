"""The synthetic stratified generator's parameters.

``DGPConfig`` describes one synthetic experiment: P strata of G units,
n_gp observations per unit with iid standard-normal potential outcomes, an
additive normal stratum shock with variance ``sigma2_gamma`` and a treatment
effect, one number or one per stratum.  The Monte Carlo engine draws each
replication's unit outcome sums from it directly.  Normal variates come
from the inverse CDF (``uniform_to_normal``, scipy's ``ndtri``) applied to
the seeded uniform stream, so draws are bit-reproducible across platforms.  They
are scipy's one use, so ``import paircluster``, ``analyze`` and resampling need numpy only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import StratumTooSmall

__all__ = ["DGPConfig", "uniform_to_normal"]

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


def _real(name: str, value, n: int | None = None):
    """One number as a float, or ``n`` numbers as a tuple of floats; a ``ValueError`` if not."""
    values = np.asarray(value)
    if values.dtype.kind not in "iuf" or values.shape not in [(), (n,)]:  # no bool, str or object
        expected = "a number" if n is None else f"a number or {n} numbers"
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    if values.ndim == 0:
        return float(values)
    return tuple(values.astype(float).tolist())


@dataclass(frozen=True)
class DGPConfig:
    """Parameters of the stratified generator.

    ``sigma2_gamma`` is the *variance* of the additive stratum shock.  ``effect`` is
    one number for every stratum or P numbers, one per stratum, kept as a float or a tuple.
    """

    G: int
    P: int
    n_gp: int
    sigma2_gamma: float = 0.0
    effect: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        for name in ("G", "P", "n_gp"):  # as int: a numpy integer would reach the outputs
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.G < 2:
            raise StratumTooSmall(f"need G >= 2 units per stratum, got {self.G}")
        if self.P < 2:
            raise ValueError(f"need P >= 2 strata, got {self.P}")
        if self.n_gp < 1:
            raise ValueError(f"need n_gp >= 1 observations per unit, got {self.n_gp}")
        object.__setattr__(self, "sigma2_gamma", _real("sigma2_gamma", self.sigma2_gamma))
        if not 0 <= self.sigma2_gamma < np.inf:
            raise ValueError(f"sigma2_gamma must be finite and >= 0, got {self.sigma2_gamma!r}")
        object.__setattr__(self, "effect", _real("effect", self.effect, self.P))
        if not np.isfinite(self.effect).all():
            raise ValueError(f"effect must be finite, got {self.effect!r}")

    @property
    def n_units(self) -> int:
        return self.G * self.P

    @property
    def n_obs(self) -> int:
        return self.G * self.P * self.n_gp
