"""Replicated size experiments.

Each replication draws a fresh experiment, fits both models, forms the
four cluster-robust t-tests, and tallies rejections of the true null.
Replication i draws from the i-th child of the master seed (seed stream
v1), in the order of a lone replication; chunks are reduced in fixed
order, so results are bit-identical for any batching and any worker
count.  Each chunk derives its replications' streams in bulk with
``randomize.ChildStreams`` and resets one generator per replication.

One chunk worker serves both experiments, a sub-batch at a time: a draw
object turns the uniforms into unit sums and assignments at once, and one
call of ``variance.unit_sum_stats`` (which ``analyze`` uses too) gives all
their statistics.  These depend on the data only through per-unit outcome
sums, unit sizes and the assignment, so the synthetic generator draws unit
sums directly (the sum of n iid standard normals is sqrt(n) times one),
with the sampling distribution of an observation-level generator; the
tests check it against one (``simulate_strata`` in ``tests/oracles.py``).
Every test rejects when |t| > ``variance.critical_value(level)``, as in ``analyze``.
scipy serves only the generator's normal draws, and ``_StratifiedDraw`` loads it in
the parent; resampling needs numpy only.

``threads`` counts the calling process: with w workers it forks w - 1
processes, and every worker claims the next chunk from one shared counter.
``multiprocessing`` loads on the first run with two or more workers; where
the platform cannot fork, runs are serial.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .data import ExperimentData
from .dgp import DGPConfig, _count, uniform_to_normal
from .errors import PairClusterError, ReplicationError, ZeroVariance
from .randomize import MAX_CHILDREN, ChildStreams, Seed
from .variance import UnitStats, critical_value, overflow_error, software_factors, unit_sum_stats

__all__ = [
    "SizeExperimentSpec",
    "SizeCell",
    "SizeTable",
    "run_size_experiment",
    "resampling_size_experiment",
]

# The tests, named by their ``UnitStats`` variance, in CSV order; a "pair" is the block.
_TESTS = ("unit_nofe", "unit_fe", "pair_nofe", "pair_fe")
# Columns of ``UnitStats`` holding each test's estimate and variance.
_TAU_COLS = [UnitStats._fields.index("tau_" + key.split("_")[1]) for key in _TESTS]
_VAR_COLS = [UnitStats._fields.index(key) for key in _TESTS]

_CHUNK = 256
_SUB_BATCH = 2**14  # at most this many (replication, unit) elements per kernel call
_CSV_HEADER = "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"


def _check_reps(reps) -> int:
    reps = _count("reps", reps)
    if not 1 <= reps < MAX_CHILDREN:  # replication i is child i of the master seed
        raise ValueError(f"reps must be >= 1 and below 2**32, got {reps}")
    return reps


def _uniforms(streams, first, count, *shapes):
    """Uniform buffers; row k is filled, in order, from ``streams.rng(first + k)``."""
    buffers = [np.empty((count, *shape)) for shape in shapes]
    for k in range(count):
        rng = streams.rng(first + k)
        for buffer in buffers:
            rng.random(out=buffer[k])
    return buffers


class _StratifiedDraw:
    """Unit sums and a stratified assignment from the synthetic generator."""

    def __init__(self, cfg: DGPConfig):
        self.taus = np.broadcast_to(cfg.effect, cfg.P) if np.any(cfg.effect) else None
        self.G, self.P, self.n_gp, self.sigma2 = cfg.G, cfg.P, cfg.n_gp, cfg.sigma2_gamma
        self.block = np.repeat(np.arange(cfg.P), cfg.G)
        self.n_blocks = cfg.P
        self.sizes = np.full(cfg.n_units, float(cfg.n_gp))
        self.n_obs = cfg.n_obs
        uniform_to_normal(np.empty(0))  # loads scipy here, so forked workers inherit it

    def batch(self, streams, first, count):
        """(sums, treated) of the ``count`` replications from ``first``, each (count, units)."""
        P, G, n_gp = self.P, self.G, self.n_gp
        shock = [(P,)] if self.sigma2 > 0.0 else []
        u_order, u_sums, *u_shock = _uniforms(streams, first, count, (P, G), (P * G,), *shock)
        # Each stratum's G // 2 smallest uniforms are treated (ties have probability < G**2 / 2**54).
        if G == 2:  # the same mask as the partition, ties included, at a fraction of its cost
            kth = np.minimum(u_order[..., :1], u_order[..., 1:])
        else:
            kth = np.partition(u_order, G // 2 - 1, axis=-1)[..., G // 2 - 1 : G // 2]
        treated = (u_order <= kth).reshape(count, P * G)
        sums = np.multiply(uniform_to_normal(u_sums), math.sqrt(n_gp), out=u_sums)
        for u in u_shock:
            sums += n_gp * (uniform_to_normal(u) * math.sqrt(self.sigma2))[:, self.block]
        if self.taus is not None:
            sums += n_gp * self.taus[self.block] * treated
        return sums, treated


class _PairedResample:
    """Fixed unit sums of a paired dataset under fresh coin-flip assignments."""

    def __init__(self, data: ExperimentData):
        data.require_pairs()
        self.sums = data.centred_unit_sums
        self.sizes = data.unit_sizes.astype(float)
        self.block = data.unit_pair
        self.n_blocks = data.P
        self.n_obs = data.n_total

    def batch(self, streams, first, count):
        """The shared (units,) sums and (count, units) assignments of ``count`` replications."""
        heads = _uniforms(streams, first, count, (self.n_blocks,))[0] < 0.5
        return self.sums, np.stack([heads, ~heads], axis=2).reshape(count, -1)


def _run_chunk(args):
    """Tally replications ``start .. start + count - 1`` of one experiment."""
    draw, seed, start, count, z_crit, factors, collect = args
    streams = ChildStreams(seed, start, count)
    step, stats = max(1, _SUB_BATCH // draw.sizes.size), []
    with np.errstate(all="ignore"):  # an overflow fails its replication below, unwarned
        for lo in range(0, count, step):
            sums, treated = draw.batch(streams, lo, min(step, count - lo))
            rows = unit_sum_stats(sums, draw.sizes, treated, draw.block, draw.n_blocks, draw.n_obs)
            stats.append(np.column_stack(rows))
    stats = np.concatenate(stats)
    variances = stats[:, _VAR_COLS]
    ok = np.isfinite(stats).all(axis=1) & (variances > 0).all(axis=1)  # t needs both
    if not ok.all():
        i = int(np.argmin(ok))  # the first failing replication
        cause = overflow_error(stats[i]) or ZeroVariance("a clustered variance estimate is zero")
        raise ReplicationError(start + i, cause)
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
        critical_value(self.level)
        object.__setattr__(self, "level", float(self.level))
        object.__setattr__(self, "reps", _check_reps(self.reps))


@dataclass
class SizeCell:
    """Rejection tally for one (test, G) cell.

    ``rejection_rate`` uses the raw cluster-robust variances (the limit
    theory's convention); ``rejection_rate_dof`` scales each by its factor
    in ``variance.software_factors``, c/(c-1)*(n-1)/(n-K), which ``analyze``
    reports as ``dof_factors``.  ``mean_se_ratio`` is the unit/block FE
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
    """``worker`` of each argument, in order; the first chunk to fail, in order, raises."""
    # the CPUs this process may run on: its affinity mask where the platform has one
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(threads or cpus, cpus, len(arg_list))  # threads None: all CPUs
    if workers > 1:
        import multiprocessing
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [worker(a) for a in arg_list]
    ctx = multiprocessing.get_context("fork")  # a fork context's lock has no name to track
    counter, children = ctx.Value("q", 0), []

    def claim():  # (result, exception) by index of each chunk this process claims
        done = {}
        while True:
            with counter.get_lock():
                i = counter.value
                counter.value = i + 1
            if i >= len(arg_list):
                return done
            try:
                done[i] = (worker(arg_list[i]), None)
            except Exception as exc:  # raised below, in chunk order
                done[i] = (None, exc)

    def child(send):
        import signal
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's to handle
        send.send(claim())

    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            process = ctx.Process(target=child, args=(send,))
            process.start()
            children.append((process, recv))
            send.close()  # the child holds the only send end: its death is EOF here
        done = claim()
        for process, recv in children:
            try:
                done.update(recv.recv())
            except (EOFError, OSError):
                process.join()
                raise PairClusterError(f"a Monte Carlo worker died, exit status {process.exitcode}")
    finally:  # on any exit: no child outlives the call
        for process, recv in children:
            process.terminate()
            process.join()
            recv.close()
    results, errors = zip(*(done[i] for i in range(len(arg_list))))
    for exc in filter(None, errors):  # the first failing chunk, in chunk order
        raise exc
    return list(results)


def _size_table(draw, reps, level, seed, threads, collect, G, block_label, design):
    """Run ``reps`` replications of ``draw`` in chunks and tabulate them."""
    if threads is not None and _count("threads", threads) < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not isinstance(seed, Seed):
        raise TypeError(f"seed must be a Seed, got {seed!r}")
    z_crit = critical_value(level)
    factors = software_factors(draw.sizes.size, draw.n_blocks, draw.n_obs)
    factors = np.array([factors[key] for key in _TESTS])
    args = [
        (draw, seed, start, min(_CHUNK, reps - start), z_crit, factors, collect)
        for start in range(0, reps, _CHUNK)
    ]
    results = _run_chunks(_run_chunk, args, threads)
    rej = sum(res["rej"] for res in results)
    rej_adj = sum(res["rej_adj"] for res in results)
    ratio_raw = sum(res["ratio_sum"] for res in results) / reps
    ratio_adj = ratio_raw * math.sqrt(factors[1] / factors[3])
    cells = []
    for j, key in enumerate(_TESTS):
        cluster, model = key.split("_")
        rate = int(rej[j]) / reps
        is_fe = model == "fe"
        cells.append(
            SizeCell(
                test=block_label if cluster == "pair" else cluster,
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
        table.t_stats = {(c.test, c.model): tstats[:, j] for j, c in enumerate(cells)}
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
    ``threads`` (>= 1, None: all) and the CPUs this process may use cap the
    workers, the calling process among them.
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
    critical_value(level)  # the level is checked before the data
    reps = _check_reps(reps)
    if data.P < 2:
        raise ValueError(f"need P >= 2 pairs, got {data.P}")
    return _size_table(
        _PairedResample(data), reps, float(level), seed, threads, collect_tstats, 2, "pair",
        f"resampled(P={data.P})",
    )
