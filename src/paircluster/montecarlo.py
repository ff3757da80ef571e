"""Replicated size experiments.

Each replication draws a fresh experiment, fits both models, forms the
four cluster-robust t-tests, and tallies rejections of the true null.
Replication i draws from the i-th child of the master seed, which the
worker rebuilds itself; chunks are reduced in fixed order, so results
are bit-identical for any worker count.

One chunk worker serves both experiments.  It takes a draw object that
returns each replication's unit sums and assignment, and passes them to
``variance.unit_sum_stats``, the kernel that ``variance_set`` and
``analyze`` use too.  The statistics depend on the data only through
per-unit outcome sums, unit sizes, and the assignment, so the synthetic
generator draws unit sums directly (the sum of n iid standard normals is
sqrt(n) times one); the sampling distribution of every tallied
statistic is exactly that of the observation-level generator.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import ExperimentData
from .dgp import DGPConfig, ZeroEffect, normal_draws
from .errors import NotPaired, ReplicationError, ZeroVariance
from .randomize import Seed
from .variance import UnitStats, unit_sum_stats

__all__ = [
    "SizeExperimentSpec",
    "SizeCell",
    "SizeTable",
    "run_size_experiment",
    "resampling_size_experiment",
]

# (clustering, model) in output order; "block" is the pair/stratum level.
_INTERNAL_TESTS = (("unit", "nofe"), ("unit", "fe"), ("block", "nofe"), ("block", "fe"))
# Columns of ``UnitStats`` holding each test's estimate and variance.
_TAU_COLS = [UnitStats._fields.index(f"tau_{model}") for _, model in _INTERNAL_TESTS]
_VAR_COLS = [UnitStats._fields.index(f"{c}_{model}") for c, model in _INTERNAL_TESTS]

_CHUNK = 256
_CSV_HEADER = "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"


def _critical_value(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    return float(ndtri(1.0 - level / 2.0))


def _software_factor(n_clusters: int, n_obs: int, n_params: int) -> float:
    """c/(c-1) * (n-1)/(n-K), the adjustment most regression software applies."""
    return (n_clusters / (n_clusters - 1.0)) * ((n_obs - 1.0) / (n_obs - n_params))


class _StratifiedDraw:
    """Unit sums and a stratified assignment from the synthetic generator."""

    def __init__(self, cfg: DGPConfig):
        profile = cfg.effect_profile
        self.taus = (
            None if isinstance(profile, ZeroEffect)
            else np.asarray(profile.stratum_effects(cfg.P), dtype=float)
        )
        self.G, self.P, self.n_gp, self.sigma2 = cfg.G, cfg.P, cfg.n_gp, cfg.sigma2_gamma
        self.block = np.repeat(np.arange(cfg.P), cfg.G)
        self.rows = np.arange(cfg.P)[:, None]
        self.n_blocks = cfg.P
        self.sizes = np.full(cfg.n_units, float(cfg.n_gp))
        self.n_obs = cfg.n_obs

    def __call__(self, rng):
        P, G, n_gp = self.P, self.G, self.n_gp
        order = np.argsort(rng.random((P, G)), axis=1)
        treated2d = np.zeros((P, G), dtype=bool)
        treated2d[self.rows, order[:, : G // 2]] = True
        treated = treated2d.ravel()
        sums = math.sqrt(n_gp) * normal_draws(rng, P * G)
        if self.sigma2 > 0.0:
            gamma = normal_draws(rng, P) * math.sqrt(self.sigma2)
            sums += n_gp * gamma[self.block]
        if self.taus is not None:
            sums += n_gp * self.taus[self.block] * treated
        return sums, treated


class _PairedResample:
    """Fixed unit sums of a paired dataset under a fresh coin-flip assignment."""

    def __init__(self, data: ExperimentData):
        self.sums = data.centred_unit_sums
        self.sizes = data.unit_sizes.astype(float)
        self.block = data.unit_pair
        self.n_blocks = data.P
        self.n_obs = data.n_total

    def __call__(self, rng):
        first = rng.random(self.n_blocks) < 0.5
        treated = np.empty(self.sums.size, dtype=bool)
        treated[0::2] = first
        treated[1::2] = ~first
        return self.sums, treated


def _run_chunk(args):
    """Tally replications ``start .. start + count - 1`` of one experiment."""
    draw, master, start, count, z_crit, factors, collect = args
    stats = np.empty((count, len(UnitStats._fields)))
    for i in range(count):
        try:
            # The (start + i)-th child of Seed(master).spawn(), without its siblings.
            child = np.random.SeedSequence(master, spawn_key=(start + i,))
            sums, treated = draw(np.random.default_rng(child))
            rep = unit_sum_stats(sums, draw.sizes, treated, draw.block, draw.n_blocks, draw.n_obs)
            if min(rep[2:]) <= 0.0:  # the four variances
                raise ZeroVariance("a clustered variance estimate is zero")
            stats[i] = rep
        except Exception as exc:  # noqa: BLE001 - annotate with replication index
            raise ReplicationError(start + i, exc) from exc
    variances = stats[:, _VAR_COLS]
    t = stats[:, _TAU_COLS] / np.sqrt(variances)
    ratios = np.sqrt(variances[:, 1] / variances[:, 3])  # unit over block, FE
    return {
        "rej": np.count_nonzero(np.abs(t) > z_crit, axis=0),
        "rej_adj": np.count_nonzero(np.abs(t) / np.sqrt(factors) > z_crit, axis=0),
        "ratio_sum": float(ratios.sum()),
        "tstats": t if collect else None,
        "ratios": ratios if collect else None,
    }


@dataclass(frozen=True)
class SizeExperimentSpec:
    """One size experiment: a generator, a replication count, and a test level."""

    dgp: DGPConfig
    reps: int
    master_seed: Seed
    level: float = 0.05

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")


@dataclass
class SizeCell:
    """Rejection tally for one (test, G) cell.

    ``rejection_rate`` uses the raw cluster-robust variances (the limit
    theory's convention); ``rejection_rate_dof`` applies the software
    small-sample factor.  ``mean_se_ratio`` is the unit/block FE
    standard-error ratio as software reports it; the raw-variance ratio
    is kept alongside.  Ratios are populated on FE rows only.
    """

    test: str
    model: str
    G: int
    reps: int
    rejections: int
    rejection_rate: float
    mc_se: float
    mean_se_ratio: Optional[float]
    rejection_rate_dof: float
    mean_se_ratio_raw: Optional[float]


@dataclass
class SizeTable:
    """Monte Carlo rejection rates and standard-error ratios."""

    cells: list
    level: float
    seed: int
    design: str
    t_stats: Optional[dict] = None
    se_ratios: Optional[np.ndarray] = None

    def to_csv_text(self) -> str:
        lines = [_CSV_HEADER]
        for c in self.cells:
            ratio = "" if c.mean_se_ratio is None else repr(c.mean_se_ratio)
            lines.append(
                f"{c.test},{c.model},{c.G},{c.reps},{c.rejection_rate!r},{c.mc_se!r},{ratio}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "design": self.design,
            "level": self.level,
            "seed": self.seed,
            "cells": [asdict(c) for c in self.cells],
        }

    def cell(self, test: str, model: str) -> SizeCell:
        for c in self.cells:
            if c.test == test and c.model == model:
                return c
        raise KeyError((test, model))


def _run_chunks(worker, arg_list, threads):
    if threads is None:
        threads = os.cpu_count() or 1
    if threads <= 1 or len(arg_list) <= 1:
        return [worker(a) for a in arg_list]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, arg_list))


def _size_table(draw, reps, level, seed, threads, collect, G, block_label, design):
    """Run ``reps`` replications of ``draw`` in chunks and tabulate them."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    z_crit = _critical_value(level)
    n_units, n_blocks, n_obs = draw.sizes.size, draw.n_blocks, draw.n_obs
    factors = np.array(  # in the order of _INTERNAL_TESTS
        [_software_factor(c, n_obs, k) for c in (n_units, n_blocks) for k in (2, n_blocks + 1)]
    )
    args = [
        (draw, seed.master, start, min(_CHUNK, reps - start), z_crit, factors, collect)
        for start in range(0, reps, _CHUNK)
    ]
    results = _run_chunks(_run_chunk, args, threads)
    rej = sum(res["rej"] for res in results)
    rej_adj = sum(res["rej_adj"] for res in results)
    ratio_raw = sum(res["ratio_sum"] for res in results) / reps
    ratio_adj = ratio_raw * math.sqrt(factors[1] / factors[3])
    cells = []
    for j, (cluster, model) in enumerate(_INTERNAL_TESTS):
        rate = int(rej[j]) / reps
        is_fe = model == "fe"
        cells.append(
            SizeCell(
                test=block_label if cluster == "block" else cluster,
                model=model,
                G=G,
                reps=reps,
                rejections=int(rej[j]),
                rejection_rate=rate,
                mc_se=math.sqrt(rate * (1.0 - rate) / reps),
                mean_se_ratio=ratio_adj if is_fe else None,
                rejection_rate_dof=int(rej_adj[j]) / reps,
                mean_se_ratio_raw=ratio_raw if is_fe else None,
            )
        )
    table = SizeTable(cells=cells, level=level, seed=seed.master, design=design)
    if collect:
        tstats = np.concatenate([res["tstats"] for res in results])
        table.t_stats = {key: tstats[:, j] for j, key in enumerate(_INTERNAL_TESTS)}
        table.se_ratios = np.concatenate([res["ratios"] for res in results])
    return table


def run_size_experiment(
    spec: SizeExperimentSpec,
    threads: int | None = 1,
    collect_tstats: bool = False,
) -> SizeTable:
    """Run the stratified-generator size experiment.

    Every replication draws data and an assignment, fits both models,
    forms all four clustered t-tests of a zero effect against the
    standard normal, and records the FE unit/stratum standard-error
    ratio.  Deterministic given the master seed, for any thread count;
    ``threads`` caps the worker processes (None: all cores) and must be >= 1.
    """
    cfg = spec.dgp
    return _size_table(
        _StratifiedDraw(cfg), spec.reps, spec.level, spec.master_seed, threads,
        collect_tstats, cfg.G, "stratum",
        f"stratified(G={cfg.G},P={cfg.P},n_gp={cfg.n_gp})",
    )


def resampling_size_experiment(
    data: ExperimentData,
    reps: int,
    level: float,
    seed: Seed,
    threads: int | None = 1,
    collect_tstats: bool = False,
) -> SizeTable:
    """Null-imposed resampling on a fixed paired dataset.

    Observed outcomes stand in for both potential outcomes; only the
    assignment is redrawn each replication, so the truth is a zero
    effect and rejection rates estimate test size.  ``threads`` is as for
    ``run_size_experiment``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if np.any(data.pair_unit_counts != 2):
        raise NotPaired("resampling experiments need exactly 2 units per pair")
    return _size_table(
        _PairedResample(data), reps, level, seed, threads, collect_tstats, 2, "pair",
        f"resampled(P={data.P})",
    )
