"""Replicated size experiments.

Each replication draws a fresh experiment, fits both models, forms the four
cluster-robust t-tests, and tallies rejections of the true null, one table row
per test in ``variance.TESTS`` order.  Every test rejects when
|t| > ``variance.critical_value(level)``, as in ``analyze``.

The engine runs any draw: an object with ``sizes`` and ``block`` (each unit's
observation count and block index), ``G``, ``label`` and ``design`` (the table's
block size, block-clustered test name and design string), and
``batch(streams, first, count)``, the (sums, treated) of the ``count``
replications from ``first`` of a chunk: ``treated`` is (count, units) and
``sums`` (count, units) or shared (units,).  ``randomize`` holds the draws and
the ``ChildStreams`` they read; each chunk builds one for its replications.
The statistics depend on the data only through unit sums, sizes, blocks and the
assignment, so one call of ``variance.unit_sum_stats`` (which ``analyze`` uses
too) gives a sub-batch's statistics.  Chunks are reduced in fixed order, so
results are bit-identical for any batching and any worker count.

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
from .dgp import DGPConfig, _count
from .errors import PairClusterError, ReplicationError, ZeroVariance
from .randomize import MAX_CHILDREN, ChildStreams, PairedResample, Seed, StratifiedDraw
from .variance import (TESTS, UnitStats, critical_value, overflow_error, software_factors,
                       unit_sum_stats)

__all__ = [
    "SizeExperimentSpec",
    "SizeCell",
    "SizeTable",
    "run_size_experiment",
    "resampling_size_experiment",
]

_CHUNK = 256
_SUB_BATCH = 2**14  # at most this many (replication, unit) elements per kernel call
_CSV_HEADER = "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"


def _check_reps(reps) -> int:
    reps = _count("reps", reps)
    if not 1 <= reps < MAX_CHILDREN:  # replication i is child i of the master seed
        raise ValueError(f"reps must be >= 1 and below 2**32, got {reps}")
    return reps


def _run_chunk(args):
    """Tally replications ``start .. start + count - 1`` of one experiment."""
    draw, seed, start, count, z_crit, dof, collect = args
    streams = ChildStreams(seed, start, count)
    step, batches = max(1, _SUB_BATCH // draw.sizes.size), []
    with np.errstate(all="ignore"):  # an overflow fails its replication below, unwarned
        for lo in range(0, count, step):
            sums, treated = draw.batch(streams, lo, min(step, count - lo))
            batches.append(unit_sum_stats(sums, draw.sizes, treated, draw.block))
    stats = UnitStats(*map(np.concatenate, zip(*batches)))
    variances = np.array([getattr(stats, key) for key in TESTS])  # (tests, replications)
    ok = np.isfinite(stats).all(axis=0) & (variances > 0).all(axis=0)  # t needs both
    if not ok.all():
        i = int(np.argmin(ok))  # the first failing replication
        cause = overflow_error([field[i] for field in stats])
        cause = cause or ZeroVariance("a clustered variance estimate is zero")
        raise ReplicationError(start + i, cause)
    t = np.array([getattr(stats, tau) for tau in TESTS.values()]) / np.sqrt(variances)
    return {
        "rej": np.count_nonzero(np.abs(t) > z_crit, axis=1),
        "rej_adj": np.count_nonzero(np.abs(t) / np.sqrt(dof)[:, None] > z_crit, axis=1),
        "ratio_sum": float(np.sqrt(stats.unit_fe / stats.pair_fe).sum()),
        "tstats": t if collect else None,
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


def _size_table(draw, reps, level, seed, threads, collect):
    """Run ``reps`` replications of ``draw`` in chunks and tabulate them."""
    if threads is not None and _count("threads", threads) < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not isinstance(seed, Seed):
        raise TypeError(f"seed must be a Seed, got {seed!r}")
    z_crit = critical_value(level)
    factors = software_factors(draw.sizes, draw.block)
    dof = np.array(list(factors.values()))
    args = [
        (draw, seed, start, min(_CHUNK, reps - start), z_crit, dof, collect)
        for start in range(0, reps, _CHUNK)
    ]
    results = _run_chunks(_run_chunk, args, threads)
    rej = sum(res["rej"] for res in results)
    rej_adj = sum(res["rej_adj"] for res in results)
    ratio_raw = sum(res["ratio_sum"] for res in results) / reps
    ratio_adj = ratio_raw * math.sqrt(factors["unit_fe"] / factors["pair_fe"])
    cells = []
    for j, key in enumerate(TESTS):
        cluster, model = key.split("_")
        rate = int(rej[j]) / reps
        is_fe = model == "fe"
        cells.append(
            SizeCell(
                test=draw.label if cluster == "pair" else cluster,
                model=model,
                G=draw.G,
                reps=reps,
                rejections=int(rej[j]),
                rejection_rate=rate,
                mc_se=math.sqrt(rate * (1.0 - rate) / reps),
                mean_se_ratio=ratio_adj if is_fe else None,
                rejection_rate_dof=int(rej_adj[j]) / reps,
                mean_se_ratio_raw=ratio_raw if is_fe else None,
            )
        )
    table = SizeTable(cells=cells, level=level, seed=seed.master, design=draw.design)
    if collect:
        tstats = np.concatenate([res["tstats"] for res in results], axis=1)
        table.t_stats = {(c.test, c.model): tstats[j] for j, c in enumerate(cells)}
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
    return _size_table(
        StratifiedDraw(spec.dgp), spec.reps, spec.level, spec.master_seed, threads, collect_tstats
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
    return _size_table(PairedResample(data), reps, float(level), seed, threads, collect_tstats)
