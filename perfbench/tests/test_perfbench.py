"""Tests of the benchmark harness itself, on tiny inputs.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import copy
import io
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, instrument  # noqa: E402

import paircluster  # noqa: E402
from paircluster import cli  # noqa: E402


def tiny(seed, n_pairs=40, sizes=(1, 6)):
    return inputs.paired_arrays(seed, n_pairs, sizes, 1000.0, "analyze_1m")


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = tiny(7), tiny(7), tiny(8)
    for field in ("pair", "unit", "treated", "outcome"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.pair_ids == b.pair_ids and a.unit_ids == b.unit_ids
    assert not np.array_equal(a.outcome, c.outcome)
    p1 = inputs.cached_csv("analyze_1m", 7, a, tmp_path / "one")
    p2 = inputs.cached_csv("analyze_1m", 7, b, tmp_path / "two")
    assert p1.read_bytes() == p2.read_bytes()


def test_cache_reuses_file_and_keeps_a_few_seeds(tmp_path):
    first = inputs.cached_csv("analyze_1m", 1, tiny(1), tmp_path)
    stamp = first.stat().st_mtime_ns
    assert inputs.cached_csv("analyze_1m", 1, tiny(1), tmp_path).stat().st_mtime_ns == stamp
    for seed in range(2, 7):
        inputs.cached_csv("analyze_1m", seed, tiny(seed), tmp_path)
    assert len(list(tmp_path.glob("analyze_1m-seed*.csv"))) == inputs._CACHE_KEEP


def test_generated_rows_are_valid_and_unbalanced():
    arrays = tiny(3, n_pairs=200, sizes=inputs.RESAMPLE_SIZES)
    data, assignment = paircluster.validate_dataset(arrays.rows())
    lay = data.layout()
    assert lay.n == arrays.n_rows and lay.n_pairs == 200 and lay.n_units == 400
    assert lay.unit_sizes.min() >= 1 and lay.unit_sizes.max() <= 30
    assert lay.unit_sizes.min() < lay.unit_sizes.max()


def test_oracle_agrees_with_paircluster(tmp_path):
    arrays = tiny(11, n_pairs=60)
    path = inputs.cached_csv("analyze_1m", 11, arrays, tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["analyze", "--data", str(path), "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    oracle = checks.analyze_oracle(arrays.pair, arrays.unit, arrays.treated, arrays.outcome)
    assert checks.check_analyze(report, oracle) == []
    data, assignment = paircluster.validate_dataset(arrays.rows())
    vs = paircluster.variance_set(data, assignment)
    for key in checks.VARIANCE_KEYS:
        assert checks.rel_err(getattr(vs, key), oracle[key]) < 1e-10


def analyze_record(report, exit_code=0):
    return {"op": 0, "kind": "analyze", "exit": exit_code, "report": report, "stdout": ""}


def test_corrupted_analyze_output_fails(tmp_path):
    arrays = tiny(5)
    path = inputs.cached_csv("analyze_1m", 5, arrays, tmp_path)
    out = tmp_path / "report.json"
    cli.main(["analyze", "--data", str(path), "--json-out", str(out)])
    report = json.loads(out.read_text())
    prep = {"oracle": checks.analyze_oracle(arrays.pair, arrays.unit, arrays.treated,
                                            arrays.outcome)}
    bad = copy.deepcopy(report)
    bad["variances"]["unit_fe"]["variance"] *= 1 + 1e-9
    records = [analyze_record(report), analyze_record(bad), analyze_record(None, exit_code=2)]
    assert run.judge("analyze_1m", records, prep) == records[1:]
    assert "unit_fe" in records[1]["problems"][0]
    assert records[2]["problems"] == ["exit 2"]


def mc_records(kind, seed, reps, g=2):
    """One simulate operation per worker count, as the op process records them."""
    recs = []
    for w1 in (True, False):
        argv = ["simulate", "--design", "stratified", "--G", str(g), "--P", "20", "--n", "5",
                "--reps", str(reps), "--seed", str(seed), "--threads", "1" if w1 else "2"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        table = paircluster.run_size_experiment(paircluster.SizeExperimentSpec(
            dgp=paircluster.DGPConfig(G=g, P=20, n_gp=5), reps=reps,
            master_seed=paircluster.Seed(seed)), threads=1).to_json_dict()
        recs.append({"op": len(recs), "kind": kind, "exit": code, "cell": g, "seed": seed,
                     "reps": reps, "mode": "w1" if w1 else "all", "stdout": buf.getvalue(),
                     "table": table})
    return recs


@pytest.fixture
def golden_for(monkeypatch):
    def install(records):
        monkeypatch.setattr(checks, "load_golden",
                            lambda workload: {"tallies": checks.tallies(records[0]["table"])})
    return install


def test_identical_outputs_and_matching_tallies_pass(golden_for):
    records = mc_records("golden", 3, 300)
    golden_for(records)
    assert run.judge("simulate_grid", records, {}) == []


def test_corrupted_tally_fails(golden_for):
    records = mc_records("golden", 3, 300)
    golden_for(records)
    records[1]["table"]["cells"][0]["rejections"] += 1
    failed = run.judge("simulate_grid", records, {})
    assert [r["op"] for r in failed] == [1]
    assert "golden" in failed[0]["problems"][0]


def test_outputs_differing_between_worker_counts_fail(golden_for):
    records = mc_records("simulate", 4, 300)
    golden_for(records)
    records[1]["stdout"] = records[1]["stdout"].replace("0.", "1.", 1)
    failed = run.judge("simulate_grid", records, {})
    assert len(failed) == 2
    assert any("differs" in p for p in failed[0]["problems"])


def test_self_time_subtracts_children_and_instrument_restores():
    Owner = types.SimpleNamespace(inner=lambda: 41)
    original = Owner.inner
    rec = SpanRecorder()
    targets = [(Owner, "inner", "leaf.inner"), (Owner, "absent", "x.gone"), (None, "f", "y.gone")]
    with instrument(rec, targets) as missing:
        with rec.span("root.outer"):
            assert Owner.inner() == 41
    assert Owner.__dict__["inner"] is original
    assert missing == ["span x.gone", "span y.gone"]
    root, leaf = rec.named("root.outer")[0], rec.named("leaf.inner")[0]
    assert leaf.parent == root.id
    assert rec.self_time(root) == pytest.approx(root.duration - leaf.duration)
    assert set(rec.self_by_layer()) == {"root", "leaf"}


def test_tail_needs_ten_samples_beyond_it():
    assert run.median_and_tail(range(19))["tail"] is None
    stats = run.median_and_tail(range(100))
    assert stats["tail"]["pct"] == 90.0 and stats["median"] == 49.5


def test_exception_in_an_operation_counts_as_failed(tmp_path, monkeypatch):
    import opproc

    arrays = tiny(9)
    path = inputs.cached_csv("analyze_1m", 9, arrays, tmp_path)
    runner = opproc.Runner({"out": str(tmp_path / "ops.json"), "trace": False})

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner.cli, "main", boom)
    rec = runner.analyze_op(str(path))
    prep = {"oracle": checks.analyze_oracle(arrays.pair, arrays.unit, arrays.treated,
                                            arrays.outcome)}
    assert run.judge("analyze_1m", [rec], prep) == [rec]
    assert rec["problems"] == ["exit RuntimeError: boom"]


def test_missing_package_hook_is_reported_not_fatal(tmp_path):
    import opproc

    runner = opproc.Runner({"out": str(tmp_path / "ops.json"), "trace": False})
    runner.missing = []
    assert runner._hook(types.SimpleNamespace(), "layout", "data.layout_s") is None
    assert runner.missing == ["layout (so no data.layout_s)"]
