import contextlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from paircluster import (
    DGPConfig,
    Seed,
    SizeExperimentSpec,
    analyze,
    resampling_size_experiment,
    run_size_experiment,
    validate_dataset,
)
from paircluster import cli, montecarlo
from paircluster.errors import EstimationError, PairClusterError, ReplicationError, ZeroVariance
from paircluster.randomize import StratifiedDraw
from paircluster.variance import UnitStats, critical_value, software_factors, unit_sum_stats
from oracles import (
    diff_in_means,
    fe_estimate,
    pair_clustered_variance,
    raw_unit_sums,
    simulate_strata,
    subset_pairs,
    unit_clustered_variance,
)
from helpers import paired_rows, random_paired


def _spec(G=2, P=40, n_gp=5, reps=400, seed=7, **kwargs):
    return SizeExperimentSpec(
        dgp=DGPConfig(G=G, P=P, n_gp=n_gp, **kwargs),
        reps=reps,
        master_seed=Seed(seed),
    )


def test_thread_count_does_not_change_results():
    spec = _spec(G=3, P=30, n_gp=4, reps=600, seed=11, sigma2_gamma=0.2)
    serial = run_size_experiment(spec, threads=1)
    parallel = run_size_experiment(spec, threads=2)
    assert serial.to_csv_text() == parallel.to_csv_text()
    assert serial.to_json_dict() == parallel.to_json_dict()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _record_forks(monkeypatch):
    """A list that gains one entry per worker process a run starts."""
    started, start = [], multiprocessing.context.ForkProcess.start

    def recording(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
    return started


@contextlib.contextmanager
def _deadline(seconds):
    """Fails the test when the call has not returned within ``seconds``."""
    def expire(signum, frame):
        pytest.fail(f"no return within {seconds} s")  # not an Exception: no handler hides it

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pool_is_capped_at_the_chunk_count(monkeypatch):
    forks, ran, run_chunk = _record_forks(monkeypatch), [], montecarlo._run_chunk

    def slow_chunk(args):  # no worker claims a second chunk before every process has started
        time.sleep(0.05)
        ran.append(args[2])  # a forked worker appends to its own copy
        return run_chunk(args)

    monkeypatch.setattr(montecarlo, "_run_chunk", slow_chunk)
    for cpus, reps, forked in [(8, 300, 1), (8, 5 * 256, 4), (2, 5 * 256, 1)]:
        _cpus(monkeypatch, cpus)
        forks.clear()
        ran.clear()
        spec = _spec(P=4, reps=reps)
        table = run_size_experiment(spec, threads=500)
        # workers: the chunks (2 or 5) or the CPUs, whichever is fewer; the caller is one
        assert len(forks) == forked
        assert 1 <= len(ran) < -(-reps // 256)  # chunks the caller ran, and not all of them
        assert table.to_csv_text() == run_size_experiment(spec, threads=1).to_csv_text()


def test_workers_are_capped_by_the_affinity_mask(monkeypatch):
    forks = _record_forks(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    _cpus(monkeypatch, 1)  # as under taskset -c 0 on two cores
    spec = _spec(reps=600)
    run_size_experiment(spec, threads=None)
    assert forks == []  # one worker, the caller: no fork
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no mask: the CPU count
    run_size_experiment(spec, threads=None)
    assert len(forks) == 1


def test_three_workers_run_every_chunk_once_in_order(monkeypatch):
    _cpus(monkeypatch, 3)  # the caller and two forked workers, even on two cores
    runs = multiprocessing.get_context("fork").Array("i", 40)  # shared with the forked workers

    def chunk(i):
        with runs.get_lock():
            runs[i] += 1
        time.sleep(0.02)  # long enough for both forked workers to start and claim chunks
        return i, os.getpid(), signal.getsignal(signal.SIGINT) is signal.SIG_IGN

    # the caller handles Ctrl-C, even where the shell started pytest with SIGINT ignored
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        results = montecarlo._run_chunks(chunk, range(40), 3)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert list(runs) == [1] * 40
    assert [i for i, _, _ in results] == list(range(40))
    ignores_sigint = {pid: ignores for _, pid, ignores in results}
    assert len(ignores_sigint) == 3
    assert ignores_sigint == {pid: pid != os.getpid() for pid in ignores_sigint}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("experiment", ["stratified", "resampled"])
def test_size_tables_agree_at_one_two_and_three_workers(monkeypatch, experiment):
    _cpus(monkeypatch, 3)  # three workers even on a two-core host: the caller and two forks
    if experiment == "stratified":
        spec = _spec(G=3, P=20, n_gp=2, reps=1100, seed=21, sigma2_gamma=0.3)
        run = lambda threads: run_size_experiment(spec, threads=threads)
    else:
        data, _ = random_paired(np.random.default_rng(21), P=30)
        run = lambda threads: resampling_size_experiment(data, 1100, 0.05, Seed(21), threads=threads)
    texts = {run(threads).to_csv_text() for threads in (1, 2, 3)}
    assert len(texts) == 1


@pytest.mark.parametrize("reps", [True, 1.5, 2.0, "3"])
def test_reps_must_be_an_integer(reps):
    with pytest.raises(ValueError, match="reps must be an integer"):
        _spec(reps=reps)
    data, _ = random_paired(np.random.default_rng(0), P=3, uniform_size=1)
    with pytest.raises(ValueError, match="reps must be an integer"):
        resampling_size_experiment(data, reps, 0.05, Seed(1))


def test_numpy_integer_counts_are_ints_in_the_outputs():
    spec = _spec(G=np.int64(2), P=np.int32(8), n_gp=np.int64(2), reps=np.int64(3))
    assert [type(v) for v in (spec.reps, spec.dgp.G, spec.dgp.P, spec.dgp.n_gp)] == [int] * 4
    table = run_size_experiment(spec)
    assert table.to_csv_text() == run_size_experiment(_spec(P=8, n_gp=2, reps=3)).to_csv_text()
    json.dumps(table.to_json_dict())


def test_repeat_run_identical():
    spec = _spec(reps=300, seed=5)
    assert (
        run_size_experiment(spec).to_csv_text() == run_size_experiment(spec).to_csv_text()
    )


def test_single_rep_rate_is_binary():
    table = run_size_experiment(_spec(reps=1, seed=3))
    for cell in table.cells:
        assert cell.rejection_rate in (0.0, 1.0)
        assert cell.mc_se == 0.0


def test_g2_raw_ratio_is_root_half_every_rep():
    table = run_size_experiment(_spec(reps=200, seed=9))
    cell = table.cell("unit", "fe")
    assert cell.mean_se_ratio_raw == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # reported ratio applies the cluster-count software factor
    U, P, n, K = 80, 40, 400, 41
    mult = math.sqrt((U / (U - 1)) / (P / (P - 1)))
    assert cell.mean_se_ratio == pytest.approx(math.sqrt(0.5) * mult, rel=1e-12)


@pytest.mark.parametrize("sigma2_gamma", [0.0, 0.5])
@pytest.mark.parametrize("P", [3, 4, 8, 100])
def test_g2_size_table_is_the_exact_t_tail(P, sigma2_gamma):
    # On balanced pairs of normal outcomes the paired t statistic t_p is exactly t(P-1),
    # whatever the pair shock.  The pair rows' t is t_p * sqrt(P/(P-1)), and, since
    # PCVE_FE = 2 UCVE_FE there, the unit-FE row's is t_p * sqrt(2P/(P-1)).  A factor f
    # divides t by sqrt(f).  Each rate lies within 4 Monte Carlo SEs of its exact value.
    reps, n_gp = 20000, 2
    table = run_size_experiment(
        _spec(P=P, n_gp=n_gp, reps=reps, seed=2019, sigma2_gamma=sigma2_gamma), threads=1)
    factors = software_factors(np.full(2 * P, float(n_gp)), np.repeat(np.arange(P), 2))
    z, T = critical_value(0.05), stats.t(P - 1)
    for test, model, scale in [("stratum", "nofe", 1), ("stratum", "fe", 1), ("unit", "fe", 2)]:
        cell = table.cell(test, model)
        factor = factors[f"{'pair' if test == 'stratum' else 'unit'}_{model}"]
        for f, rate in [(1.0, cell.rejection_rate), (factor, cell.rejection_rate_dof)]:
            exact = 2 * T.sf(z * math.sqrt(f * (P - 1) / (scale * P)))
            assert abs(rate - exact) <= 4 * math.sqrt(exact * (1 - exact) / reps), (test, model, f)


def test_g2_treated_mask_is_the_partition_rule_ties_included():
    P, count = 100, 64
    rng = np.random.default_rng(4)
    u = rng.random((count, 4 * P))  # per replication: P * G assignment, then P * G sum uniforms
    order = u[:, : 2 * P].reshape(count, P, 2)
    ties = rng.random((count, P)) < 0.2
    order[ties, 1] = order[ties, 0]
    expected = (order <= np.partition(order, 0, axis=-1)[..., :1]).reshape(count, 2 * P)

    class Streams:
        uniforms = staticmethod(lambda first, count, width: u[first : first + count, :width])

    _, treated = StratifiedDraw(DGPConfig(G=2, P=P, n_gp=3)).batch(Streams, 0, count)
    assert np.array_equal(treated, expected)
    assert treated.reshape(count, P, 2)[ties].all()  # a tie treats both units


@pytest.mark.parametrize("G, P, n_gp", [(2, 5, 1), (3, 4, 2), (6, 3, 5)])
def test_generator_design_is_the_dataset_it_stands_for(G, P, n_gp):
    # simulate's blocks and sizes are those of the dataset the generator stands for,
    # so the factor simulate applies is the one analyze reports for that dataset
    cfg = DGPConfig(G=G, P=P, n_gp=n_gp)
    draw = StratifiedDraw(cfg)
    data, assignment, _ = simulate_strata(cfg, Seed(G))
    assert np.array_equal(draw.block, data.unit_pair)
    assert np.array_equal(draw.sizes, data.unit_sizes)
    factors = analyze(data, assignment).dof_factors
    assert software_factors(draw.sizes, draw.block) == factors
    assert software_factors(data.unit_sizes, data.unit_pair) == factors


def test_engine_matches_public_estimators():
    cfg = DGPConfig(G=4, P=6, n_gp=3, sigma2_gamma=0.4)
    data, assignment, _ = simulate_strata(cfg, Seed(21))
    stats = unit_sum_stats(
        raw_unit_sums(data),
        data.unit_sizes.astype(float),
        assignment.unit_vector(data)[None],
        data.unit_pair,
    )
    fit = diff_in_means(data, assignment)
    fe = fe_estimate(data, assignment)
    assert stats.tau_nofe == pytest.approx(fit.tau_hat, rel=1e-12)
    assert stats.tau_fe == pytest.approx(fe.tau_hat, rel=1e-12)

    # paired case: the engine's block formulas are the closed forms
    data2, assign2 = random_paired(np.random.default_rng(2), P=8, max_size=4)
    s2 = unit_sum_stats(
        raw_unit_sums(data2),
        data2.unit_sizes.astype(float),
        assign2.unit_vector(data2)[None],
        data2.unit_pair,
    )
    fit2 = diff_in_means(data2, assign2)
    fe2 = fe_estimate(data2, assign2)
    assert s2.unit_nofe == pytest.approx(unit_clustered_variance(data2, assign2, fit2), rel=1e-12)
    assert s2.pair_nofe == pytest.approx(pair_clustered_variance(data2, assign2, fit2), rel=1e-12)
    assert s2.unit_fe == pytest.approx(unit_clustered_variance(data2, assign2, fe2), rel=1e-12)
    assert s2.pair_fe == pytest.approx(pair_clustered_variance(data2, assign2, fe2), rel=1e-12)


def test_zero_variance_data_reports_failing_replication():
    rows = [
        ("p1", "a", 1, 3.0),
        ("p1", "b", 0, 3.0),
        ("p2", "c", 0, 3.0),
        ("p2", "d", 1, 3.0),
    ]
    data, _ = validate_dataset(rows)
    with pytest.raises(ReplicationError) as err:
        resampling_size_experiment(data, reps=50, level=0.05, seed=Seed(1))
    assert err.value.index == 0
    assert isinstance(err.value.cause, ZeroVariance)


def test_analyze_reports_the_factor_simulate_applies():
    # every dof-adjusted tally counts the replications whose |t|, scaled down by the factor
    # that analyze reports for the same dataset, exceeds z
    sizes = np.array([[1, 4], [2, 2], [3, 1], [5, 2], [1, 6], [4, 3]])
    data, assignment = validate_dataset(paired_rows(np.random.default_rng(31), sizes))
    reps, z = 2000, critical_value(0.05)
    table = resampling_size_experiment(data, reps, 0.05, Seed(12), collect_tstats=True)
    factors = analyze(data, assignment).dof_factors
    fewer = 0
    for (cluster, model), t in table.t_stats.items():
        cell = table.cell(cluster, model)
        count = np.count_nonzero(np.abs(t) / np.sqrt(factors[f"{cluster}_{model}"]) > z)
        assert count == round(cell.rejection_rate_dof * reps)
        fewer += count < cell.rejections
    assert fewer > 0  # the factors matter


def test_each_test_has_one_name():
    # strata of 3 units of unequal sizes: the kernel's record, the factors, the report and
    # both drivers' tables name the four tests alike, and every output lists them in the
    # kernel's order
    rng = np.random.default_rng(5)
    sizes = [[1, 3, 2], [2, 2, 5], [4, 1, 1], [3, 2, 1]]
    rows = [(f"s{s}", f"u{u}", int(u == 0), float(rng.normal()))
            for s, units in enumerate(sizes) for u, n in enumerate(units) for _ in range(n)]
    data, assignment = validate_dataset(rows)
    names = list(UnitStats._fields[2:])
    report = analyze(data, assignment)
    assert list(software_factors(data.unit_sizes, data.unit_pair)) == names
    assert list(report.to_json_dict()["variances"]) == names
    assert list(report.to_json_dict()["tests"]) == names
    columns = [line.split()[:2] for line in report.to_text().splitlines()
               if line.startswith("    cluster=")]
    text_keys = [f"{c[8:].replace('stratum', 'pair')}_{m[6:]}" for c, m in columns]
    assert text_keys == names + names  # the variance table, then the t-test table

    def keys(table):  # each row's test name; a stratum or a pair is the block
        return [f"{'unit' if c.test == 'unit' else 'pair'}_{c.model}" for c in table.cells]
    paired, _ = validate_dataset(paired_rows(rng, [[1, 4], [2, 2], [3, 1]]))
    tables = [run_size_experiment(SizeExperimentSpec(DGPConfig(G=G, P=4, n_gp=2), 20, Seed(1)),
                                  collect_tstats=True) for G in (2, 3)]
    tables.append(resampling_size_experiment(paired, 20, 0.05, Seed(1), collect_tstats=True))
    for table in tables:
        assert keys(table) == names
        assert list(table.t_stats) == [(c.test, c.model) for c in table.cells]


def test_statistics_that_overflow_fail_their_replication_unwarned():
    # scores near 1e160 square beyond float64 under every assignment
    rows = [("p1", "a", 1, 1e160), ("p1", "b", 0, 0.0), ("p2", "c", 1, 0.0),
            ("p2", "d", 0, -1e160), ("p3", "e", 1, 1.0), ("p3", "f", 0, 2.0)]
    data, _ = validate_dataset(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReplicationError) as err:
            resampling_size_experiment(data, reps=50, level=0.05, seed=Seed(1))
    assert err.value.index == 0
    assert type(err.value.cause) is EstimationError
    assert str(err.value.cause).endswith(" overflows: the outcomes are too large")


@pytest.mark.parametrize("threads", [1, 2])
def test_first_failing_replication_in_a_later_chunk(threads):
    # Nine identical pairs: a replication fails, with every variance zero,
    # exactly when all nine coin flips agree.
    rows = [(f"p{p}", u, int(u == "a"), float(u == "a")) for p in range(9) for u in "ab"]
    data, _ = validate_dataset(rows)
    children = np.random.SeedSequence(1).spawn(800)
    flips = [np.random.default_rng(child).random(9) < 0.5 for child in children]
    expected = next(i for i, f in enumerate(flips) if f.all() or not f.any())
    assert expected > 512  # past the first two chunks
    with pytest.raises(ReplicationError) as err:
        resampling_size_experiment(data, reps=800, level=0.05, seed=Seed(1), threads=threads)
    assert err.value.index == expected
    assert isinstance(err.value.cause, ZeroVariance)
    assert multiprocessing.active_children() == []  # no worker outlives a failed run


_RAN = []  # (process id, chunk) of each chunk; a forked worker appends to its own copy


def _slow_chunk(chunk):
    _RAN.append((os.getpid(), chunk))
    time.sleep(0.02)  # long enough for the forked worker to claim chunks too
    if chunk in (1, 7):
        raise ValueError(chunk)
    return chunk


def test_the_first_failing_chunk_raises_whichever_process_ran_it(monkeypatch):
    _cpus(monkeypatch, 2)
    _RAN.clear()
    with pytest.raises(ValueError) as err:
        montecarlo._run_chunks(_slow_chunk, range(8), 2)
    here = {chunk for pid, chunk in _RAN if pid == os.getpid()}
    assert set() < here < set(range(8))  # the caller and the forked worker shared the chunks
    assert err.value.args == (1,)
    assert multiprocessing.active_children() == []


def test_a_forked_workers_failure_is_raised_by_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)
    caller, ran = os.getpid(), []  # the chunks the caller ran

    def chunk(i):
        ran.append(i)
        time.sleep(0.02)
        if os.getpid() != caller:
            raise ReplicationError(i, ZeroVariance("zero"))
        return i

    with pytest.raises(ReplicationError) as err:
        montecarlo._run_chunks(chunk, range(8), 2)
    assert err.value.index == min(set(range(8)) - set(ran))  # the worker's first chunk
    assert isinstance(err.value.cause, ZeroVariance)


def test_a_dead_worker_is_a_runtime_error_not_a_hang(monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    caller, run_chunk = os.getpid(), montecarlo._run_chunk

    def dying(args):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.05)  # the forked worker claims a chunk meanwhile
        return run_chunk(args)

    monkeypatch.setattr(montecarlo, "_run_chunk", dying)
    with pytest.raises(PairClusterError, match="worker died, exit status 3"), _deadline(20):
        run_size_experiment(_spec(reps=600), threads=2)
    assert multiprocessing.active_children() == []
    argv = ["simulate", "--P", "20", "--n", "2", "--reps", "600",
            "--seed", "1", "--threads", "2"]
    with _deadline(20):
        assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: a Monte Carlo worker died, exit status 3\n"
    assert multiprocessing.active_children() == []


def test_an_interrupted_caller_ends_every_worker(monkeypatch):
    _cpus(monkeypatch, 3)
    caller = os.getpid()

    def chunk(i):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(0.1)  # 40 chunks: the two forked workers alone would take about 2 s

    began = time.perf_counter()
    with pytest.raises(KeyboardInterrupt), _deadline(20):
        montecarlo._run_chunks(chunk, range(40), 3)
    assert time.perf_counter() - began < 1.0
    assert multiprocessing.active_children() == []


# Runs 40 slow chunks on three workers until Ctrl-C reaches its process group.
_INTERRUPTED = """
import os, signal, time
from paircluster import montecarlo
signal.signal(signal.SIGINT, signal.default_int_handler)  # undoes an inherited SIG_IGN
os.sched_getaffinity = lambda pid: {0, 1, 2}
print("running", flush=True)
montecarlo._run_chunks(lambda i: time.sleep(0.1), range(40), 3)
"""


def test_ctrl_c_prints_one_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(montecarlo.__file__).parents[1])}
    run = subprocess.Popen([sys.executable, "-c", _INTERRUPTED], env=env, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert run.stdout.readline() == "running\n"
        time.sleep(0.3)  # the forked workers are in their chunks
        os.killpg(run.pid, signal.SIGINT)  # as Ctrl-C does: to every process of the group
        _, err = run.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):  # nothing is left of the group
            os.killpg(run.pid, signal.SIGKILL)
    assert run.returncode != 0
    assert err.count("Traceback") == 1
    assert err.rstrip().endswith("KeyboardInterrupt")


def test_csv_shape():
    table = run_size_experiment(_spec(reps=20, seed=13))
    text = table.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"
    assert len(lines) == 5
    nofe_line = [l for l in lines[1:] if ",nofe," in l][0]
    assert nofe_line.endswith(",")  # no ratio on no-FE rows


def test_scan_ratio_regularity():
    # reported FE se ratio tracks sqrt((G-1)/G) across stratum sizes
    for G in range(2, 11):
        spec = SizeExperimentSpec(
            dgp=DGPConfig(G=G, P=100, n_gp=10), reps=1200, master_seed=Seed(50 + G)
        )
        table = run_size_experiment(spec, threads=2)
        ratio = table.cell("unit", "fe").mean_se_ratio
        assert abs(ratio - math.sqrt((G - 1) / G)) <= 0.02


def test_liberal_ucve_monotone_in_G():
    rates = []
    for G in (2, 5, 10):
        spec = SizeExperimentSpec(
            dgp=DGPConfig(G=G, P=100, n_gp=20), reps=2500, master_seed=Seed(77)
        )
        table = run_size_experiment(spec, threads=2)
        rates.append(table.cell("unit", "fe").rejection_rate)
    assert rates[0] > rates[1] > rates[2]


def test_conservative_under_heterogeneous_effects():
    rng = np.random.default_rng(123)
    taus = rng.normal(0.0, 0.1, size=60)
    taus -= taus.mean()
    spec = SizeExperimentSpec(
        dgp=DGPConfig(G=2, P=60, n_gp=50, effect=taus),
        reps=2000,
        master_seed=Seed(31),
    )
    table = run_size_experiment(spec, threads=2)
    cell = table.cell("stratum", "nofe")
    assert cell.rejection_rate <= 0.05 + 3 * max(cell.mc_se, 1e-3)


def test_resampling_synthetic_sizes():
    rng = np.random.default_rng(9001)
    sizes = np.full((81, 2), 100)
    data, _ = validate_dataset(paired_rows(rng, sizes))
    table = resampling_size_experiment(data, reps=4000, level=0.05, seed=Seed(55), threads=2)
    assert table.cell("pair", "nofe").rejection_rate == pytest.approx(0.05, abs=0.02)
    assert table.cell("pair", "fe").rejection_rate == pytest.approx(0.05, abs=0.02)
    assert table.cell("unit", "fe").rejection_rate == pytest.approx(0.17, abs=0.035)
    # without fixed effects, unit clustering is conservative here
    assert table.cell("unit", "nofe").rejection_rate < 0.05
    assert table.cell("pair", "fe").mean_se_ratio_raw == pytest.approx(
        math.sqrt(0.5), abs=1e-12
    )


def test_resampling_twenty_pair_subsample():
    rng = np.random.default_rng(9002)
    sizes = np.full((81, 2), 40)
    data, assignment = validate_dataset(paired_rows(rng, sizes))
    master = np.random.default_rng(Seed(2024).master)
    keep = master.choice(list(data.pair_ids), size=20, replace=False)
    sub, _ = subset_pairs(data, assignment, keep)
    table = resampling_size_experiment(sub, reps=3000, level=0.05, seed=Seed(56), threads=2)
    rate = table.cell("pair", "nofe").rejection_rate
    assert abs(rate - 0.0581) <= 0.02


def test_resampling_determinism_and_outcomes_untouched():
    rng = np.random.default_rng(8)
    data, _ = random_paired(rng, P=12, uniform_size=3)
    before = data.outcomes.copy()
    t1 = resampling_size_experiment(data, reps=100, level=0.05, seed=Seed(4))
    t2 = resampling_size_experiment(data, reps=100, level=0.05, seed=Seed(4), threads=2)
    assert t1.to_csv_text() == t2.to_csv_text()
    assert np.array_equal(before, data.outcomes)


def test_resampling_needs_two_pairs():
    data, _ = validate_dataset([("p1", "a", 1, 2.0), ("p1", "b", 0, 1.0)])
    with pytest.raises(ValueError, match="P >= 2"):
        resampling_size_experiment(data, reps=10, level=0.05, seed=Seed(1))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        SizeExperimentSpec(dgp=DGPConfig(G=2, P=5, n_gp=1), reps=0, master_seed=Seed(1))
    # replication i draws from child i, whose index is one 32-bit seed word
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        SizeExperimentSpec(dgp=DGPConfig(G=2, P=5, n_gp=1), reps=2**32, master_seed=Seed(1))
    with pytest.raises(ValueError, match="level"):
        SizeExperimentSpec(dgp=DGPConfig(G=2, P=5, n_gp=1), reps=10, master_seed=Seed(1), level=0)
    data, _ = random_paired(np.random.default_rng(4), P=5)
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        resampling_size_experiment(data, reps=2**32, level=0.05, seed=Seed(1))
    one_pair, _ = random_paired(np.random.default_rng(4), P=1)
    with pytest.raises(ValueError, match="level"):  # checked before the data
        resampling_size_experiment(one_pair, reps=10, level=1.0, seed=Seed(1))
    for level in ("0.05", None, True):  # not a number: a ValueError, not a TypeError
        with pytest.raises(ValueError, match="level must be a number"):
            SizeExperimentSpec(DGPConfig(G=2, P=5, n_gp=1), 10, Seed(1), level=level)
        with pytest.raises(ValueError, match="level must be a number"):
            resampling_size_experiment(data, reps=10, level=level, seed=Seed(1))


def test_a_numpy_float_level_is_kept_as_a_float():
    level = np.float32(0.05)
    spec = SizeExperimentSpec(DGPConfig(G=2, P=5, n_gp=1), 20, Seed(1), level=level)
    assert type(spec.level) is float
    data, _ = random_paired(np.random.default_rng(4), P=5)
    for table in (run_size_experiment(spec), resampling_size_experiment(data, 20, level, Seed(1))):
        assert type(table.level) is float
        assert json.loads(json.dumps(table.to_json_dict()))["level"] == float(level)
        with pytest.raises(KeyError):
            table.cell("x", "fe")


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_rejected(threads):
    spec = SizeExperimentSpec(dgp=DGPConfig(G=2, P=5, n_gp=1), reps=10, master_seed=Seed(1))
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_size_experiment(spec, threads=threads)
    data, _ = random_paired(np.random.default_rng(1), P=5)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        resampling_size_experiment(data, reps=10, level=0.05, seed=Seed(1), threads=threads)


def _both_entry_points(monkeypatch, threads=1, seed=Seed(1)):
    """Calls of run_size_experiment and resampling_size_experiment; a chunk that runs fails."""
    monkeypatch.setattr(montecarlo, "_run_chunks", lambda *args: pytest.fail("a chunk ran"))
    spec = SizeExperimentSpec(DGPConfig(G=2, P=5, n_gp=1), 50, seed)
    data, _ = random_paired(np.random.default_rng(1), P=5)
    return (lambda: run_size_experiment(spec, threads=threads),
            lambda: resampling_size_experiment(data, 10, 0.05, seed, threads=threads))


@pytest.mark.parametrize("threads", [2.5, True, "2"], ids=repr)
def test_threads_must_be_an_integer(monkeypatch, threads):
    for entry in _both_entry_points(monkeypatch, threads=threads):
        with pytest.raises(ValueError, match=f"threads must be an integer, got {threads!r}"):
            entry()


@pytest.mark.parametrize("threads", [None, 1, np.int64(2)], ids=repr)
def test_integer_threads_run(threads):
    spec = SizeExperimentSpec(DGPConfig(G=2, P=5, n_gp=1), 50, Seed(1))
    data, _ = random_paired(np.random.default_rng(1), P=5)
    for run in (lambda t: run_size_experiment(spec, threads=t),
                lambda t: resampling_size_experiment(data, 50, 0.05, Seed(1), threads=t)):
        assert run(threads).to_csv_text() == run(1).to_csv_text()


@pytest.mark.parametrize("seed", [3, 3.0, None], ids=repr)
def test_master_seed_must_be_a_seed(monkeypatch, seed):
    for entry in _both_entry_points(monkeypatch, seed=seed):
        with pytest.raises(TypeError, match=f"seed must be a Seed, got {seed!r}"):
            entry()
