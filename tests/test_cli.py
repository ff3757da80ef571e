import csv
import gzip
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from paircluster import cli
from paircluster.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

MINIMAL_CSV = """pair_id,unit_id,treatment,outcome
p1,a,1,2.0
p1,b,0,0.0
p2,c,0,1.0
p2,d,1,1.0
"""


@pytest.fixture
def minimal_csv(tmp_path):
    path = tmp_path / "exp.csv"
    path.write_text(MINIMAL_CSV, encoding="utf-8")
    return path


def test_analyze_minimal(minimal_csv, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    code = main(["analyze", "--data", str(minimal_csv), "--json-out", str(json_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "pairs: 2" in text
    report = json.loads(json_path.read_text())
    assert report["variances"]["pair_nofe"]["variance"] == pytest.approx(0.5)
    assert report["variances"]["unit_fe"]["variance"] == pytest.approx(0.25)
    assert report["unit_pair_ratio_fe"] == pytest.approx(0.5)
    assert report["estimates"]["nofe"] == pytest.approx(1.0)
    # every reported standard error is the square root of its variance
    for entry in report["variances"].values():
        assert entry["std_error"] == pytest.approx(math.sqrt(entry["variance"]))
    assert len(report["tests"]) == 4


def test_analyze_reports_all_four_tests(minimal_csv, tmp_path, capsys):
    strata = tmp_path / "strata.csv"
    strata.write_text(
        "pair_id,unit_id,treatment,outcome\n"
        "s1,a,1,1.0\ns1,b,0,2.0\ns1,c,0,3.5\ns2,d,1,4.0\ns2,e,0,5.0\ns2,f,1,5.5\n",
        encoding="utf-8",
    )
    json_path = tmp_path / "r.json"
    for path in (minimal_csv, strata):
        assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
        report = json.loads(json_path.read_text())
        assert list(report["tests"]) == ["pair_nofe", "unit_nofe", "pair_fe", "unit_fe"]
    capsys.readouterr()
    # the test set is fixed: no flag selects part of it
    for flag, value in [("--cluster", "pair"), ("--fe", "on")]:
        assert main(["analyze", "--data", str(minimal_csv), flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unrecognized arguments: {flag} {value}\n"


def test_analyze_text_matches_json(minimal_csv, tmp_path, capsys):
    json_path = tmp_path / "r.json"
    main(["analyze", "--data", str(minimal_csv), "--json-out", str(json_path)])
    text = capsys.readouterr().out
    report = json.loads(json_path.read_text())
    for key in ("pair_nofe", "unit_fe"):
        rendered = f"{report['variances'][key]['variance']:.6g}"
        assert rendered in text


def test_analyze_missing_data_flag(capsys):
    assert main(["analyze"]) == 1
    assert "error" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    path = tmp_path / "nope.csv"
    assert main(["analyze", "--data", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: cannot read {path}: No such file or directory\n"


def test_analyze_bad_treatment(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "pair_id,unit_id,treatment,outcome\np1,a,yes,2.0\np1,b,0,0.0\n", encoding="utf-8"
    )
    assert main(["analyze", "--data", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, line",
    [
        (("pair_id,unit_id,treatment,outcome\np1,a,1," + "1" * 200_000 + "\n").encode(), 2),
        ("pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np\u00e9,b,0,0.0\n".encode("latin-1"), 3),
    ],
    ids=["oversized-field", "latin-1"],
)
def test_analyze_unreadable_csv_is_a_data_error(tmp_path, capsys, raw, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(raw)
    assert main(["analyze", "--data", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: line {line}: ")


def test_analyze_gzip_file_is_a_data_error(tmp_path, capsys):
    # read as text, not decompressed, as for any other suffix
    path = tmp_path / "pairs.csv.gz"
    path.write_bytes(gzip.compress(MINIMAL_CSV.encode(), mtime=0))
    assert main(["analyze", "--data", str(path)]) == 2
    assert capsys.readouterr().err == "data error: line 1: not UTF-8 text (invalid start byte)\n"


def test_analyze_nonbinary_treatment_value(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text(
        "pair_id,unit_id,treatment,outcome\np1,a,2,2.0\np1,b,0,0.0\n", encoding="utf-8"
    )
    assert main(["analyze", "--data", str(path)]) == 2


def test_analyze_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("pair_id,unit_id,treatment,outcome\n", encoding="utf-8")
    assert main(["analyze", "--data", str(path)]) == 2


def test_analyze_degenerate_pair(tmp_path):
    path = tmp_path / "deg.csv"
    path.write_text(
        "pair_id,unit_id,treatment,outcome\np1,a,1,2.0\np1,b,1,0.0\n", encoding="utf-8"
    )
    assert main(["analyze", "--data", str(path)]) == 2


def test_analyze_stratified_is_not_paired(tmp_path, capsys):
    # a 3-unit and a 2-unit block: audited, under the stratified header
    path, json_path = tmp_path / "strat.csv", tmp_path / "strat.json"
    path.write_text(
        "pair_id,unit_id,treatment,outcome\n"
        "s1,a,1,1.0\ns1,b,0,2.0\ns1,c,0,3.5\ns2,d,1,4.0\ns2,e,0,5.0\ns2,e,0,5.5\n",
        encoding="utf-8",
    )
    assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("stratified experiment analysis\n")
    report = json.loads(json_path.read_text())
    assert report["dataset"]["units"] == 5
    assert report["unit_pair_ratio_fe"] > 0.0
    # the m range bounds the FE ratio only on pairs, so neither output has one
    assert report["unit_pair_ratio_m_range"] is None
    assert f"unit/stratum variance ratio (FE): {report['unit_pair_ratio_fe']:.6g}\n" in text
    # the text names blocks as strata; the JSON keys stay
    assert "  strata: 2   units: 5" in text
    assert "max within-stratum size ratio: 2.000\n" in text
    assert "  effect (stratum FE)    : " in text
    assert "cluster=stratum  model=nofe var=" in text
    assert "cluster=unit     model=fe   t=" in text
    assert "pair" not in text
    assert report["dataset"]["max_within_pair_size_ratio"] == 2.0
    # block effects: 1 - 2.75 and 4 - 5.25
    assert report["dataset"]["pair_effect_spread"] == pytest.approx(0.5)


def test_analyze_zero_variance_test_is_undefined(tmp_path, capsys):
    # a constant effect of 1 in both pairs: the FE scores and the pair no-FE scores are all 0
    path, json_path = tmp_path / "zero.csv", tmp_path / "zero.json"
    path.write_text(
        "pair_id,unit_id,treatment,outcome\np1,a,1,2\np1,b,0,1\np2,c,1,5\np2,d,0,4\n",
        encoding="utf-8",
    )
    assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
    text = capsys.readouterr().out
    report = json.loads(json_path.read_text())
    undefined = {"t_stat": None, "p_value": None, "reject": None}
    assert report["tests"]["pair_nofe"] == report["tests"]["pair_fe"] == undefined
    assert report["tests"]["unit_fe"] == undefined
    assert report["tests"]["unit_nofe"]["t_stat"] == pytest.approx(2.0 / 3.0)
    assert report["variances"]["unit_fe"]["variance"] == 0.0
    assert "    cluster=pair  model=fe   undefined (variance 0)\n" in text
    assert "    cluster=unit  model=nofe t=+0.6667  p=0.505  keep\n" in text
    assert "    cluster=pair  model=nofe undefined (variance 0)\n" in text


OVERFLOW_CSV = """pair_id,unit_id,treatment,outcome
p1,a,1,1e160
p1,b,0,0
p2,c,1,0
p2,d,0,-1e160
p3,e,1,1
p3,f,0,2
"""


def test_analyze_variance_overflow_is_a_runtime_error(tmp_path, capsys):
    # every variance squares a score near 1e160, which overflows float64
    path, json_path = tmp_path / "huge.csv", tmp_path / "huge.json"
    path.write_text(OVERFLOW_CSV, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 3
    assert caught == []
    out, err = capsys.readouterr()
    assert out == "" and "Warning" not in err
    assert err == "error: pair_nofe overflows: the outcomes are too large\n"
    assert not json_path.exists()
    path.write_text(OVERFLOW_CSV.replace("e160", "e150"), encoding="utf-8")  # every square fits
    assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    assert all(math.isfinite(v["variance"]) for v in report["variances"].values())


def test_analyze_one_pair_writes_strict_json(tmp_path, capsys):
    # n <= K and P = 1 leave the factors undefined: null in the JSON, nan in the text
    path, json_path = tmp_path / "one.csv", tmp_path / "one.json"
    path.write_text("pair_id,unit_id,treatment,outcome\np1,a,1,1\np1,b,0,2\n", encoding="utf-8")
    assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
    assert "dof=nan" in capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    report = json.loads(json_path.read_text(), parse_constant=refuse)
    assert report["pair_small_sample_factor"] is None
    assert [v["dof_factor"] for v in report["variances"].values()] == [None] * 4


def test_analyze_one_pair_of_several_observations_has_unit_factors(tmp_path):
    # one pair is one cluster: no pair factor; its two units of 3 observations each give
    # c/(c-1) * (n-1)/(n-K) = 2/1 * 5/4 with K = 2, and K = P + 1 = 2 with pair effects
    path, json_path = tmp_path / "one.csv", tmp_path / "one.json"
    rows = [f"p1,{u},{int(u == 'a')},{k + 2 * (u == 'a')}" for u in "ab" for k in range(3)]
    path.write_text("pair_id,unit_id,treatment,outcome\n" + "\n".join(rows) + "\n",
                    encoding="utf-8")
    assert main(["analyze", "--data", str(path), "--json-out", str(json_path)]) == 0
    variances = json.loads(json_path.read_text())["variances"]
    factors = {key: v["dof_factor"] for key, v in variances.items()}
    assert factors == {"pair_nofe": None, "unit_nofe": 2.5, "pair_fe": None, "unit_fe": 2.5}


def _cli(*argv, warnings_as_errors=False):
    """``paircluster`` run in a fresh interpreter: (exit status, stdout, stderr)."""
    flags = ["-W", "error::RuntimeWarning"] if warnings_as_errors else []
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *flags, "-m", "paircluster.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_simulate_draws_that_overflow_fail_without_a_warning():
    # an effect of 1e308 is finite, but the statistics of its draws are not
    code, out, err = _cli("simulate", "--P", "5", "--n", "1", "--reps", "5",
                          "--seed", "1", "--threads", "1", "--effect", "1e308",
                          warnings_as_errors=True)
    assert (code, out) == (3, "")
    assert err.startswith("error: replication 0 failed: ") and err.count("\n") == 1
    assert "overflows" in err and "Warning" not in err and "Traceback" not in err


def test_simulate_too_large_names_the_whole_design():
    # an --n beyond a float is what overflows here, so the message names it too
    n = "1" + "0" * 400
    code, out, err = _cli("simulate", "--P", "5", "--n", n, "--reps", "1", "--seed", "1")
    assert (code, out) == (3, "") and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith(f"error: G=2, P=5, n={n} is too large: ")


def test_simulate_deterministic_csv(capsys):
    argv = [
        "simulate", "--P", "20", "--n", "2",
        "--reps", "60", "--seed", "123", "--threads", "1",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"
    assert len(lines) == 5


def test_simulate_scan_outputs(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    argv = [
        "simulate", "--scan-G", "2..4", "--P", "15",
        "--n", "2", "--reps", "40", "--seed", "9", "--threads", "1",
        "--csv-out", str(csv_path), "--json-out", str(json_path),
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert csv_path.read_text() == stdout
    with open(csv_path) as handle:
        rows = list(csv.DictReader(handle))
    assert sorted({r["G"] for r in rows}) == ["2", "3", "4"]
    payload = json.loads(json_path.read_text())
    assert len(payload["cells"]) == len(rows)
    by_key = {(c["test"], c["model"], c["G"]): c for c in payload["cells"]}
    for row in rows:
        cell = by_key[(row["test"], row["model"], int(row["G"]))]
        assert float(row["rejection_rate"]) == cell["rejection_rate"]


def test_simulate_usage_errors(capsys):
    base = ["simulate", "--P", "10", "--n", "1", "--seed", "1"]
    assert main(base + ["--reps", "0", "--G", "3"]) == 1
    assert main(base + ["--reps", "5", "--G", "1"]) == 1
    assert main(base + ["--reps", "5", "--scan-G", "5"]) == 1
    assert main(base + ["--reps", "5", "--scan-G", ""]) == 1
    assert main(base + ["--reps", "5", "--G", "3", "--scan-G", "3..4"]) == 1
    assert main(base + ["--reps", "5", "--G", "2", "--scan-G", "2..3"]) == 1  # 2 is the default
    assert main(base + ["--reps", "5", "--scan-G", "5..3"]) == 1
    assert main(["simulate", "--design", "nope", "--P", "1", "--n", "1",
                 "--reps", "1", "--seed", "1"]) == 1


# stdout and --json-out of `simulate --design paired --P 20 --n 2 --reps 600 --seed 1
# --threads 1`, the spelling that a run without --G replaced
PAIRS_P20_CSV = """\
test,model,G,reps,rejection_rate,mc_se,mean_se_ratio
stratum,nofe,2,600,0.058333333333333334,0.00956822480536102,
unit,nofe,2,600,0.055,0.009307255234493142,
stratum,fe,2,600,0.058333333333333334,0.00956822480536102,0.697982440452113
unit,fe,2,600,0.19,0.016015617378046968,0.697982440452113
"""
PAIRS_P20_JSON_SHA256 = "596a82ad319dd2cff28a0b1f94f0021dc06e8ac44f8e45d9e138295ae12a8208"


def _simulate(tmp_path, capsys, *flags):
    """(stdout, --json-out bytes) of one in-process P = 20, n = 2, 600-rep run."""
    path = tmp_path / "table.json"
    assert main(["simulate", *flags, "--P", "20", "--n", "2", "--reps", "600", "--seed", "1",
                 "--threads", "1", "--json-out", str(path)]) == 0
    return capsys.readouterr().out, path.read_bytes()


def test_simulate_without_g_runs_pairs_byte_for_byte(tmp_path, capsys):
    out, payload = _simulate(tmp_path, capsys)
    assert out == PAIRS_P20_CSV
    assert hashlib.sha256(payload).hexdigest() == PAIRS_P20_JSON_SHA256
    assert _simulate(tmp_path, capsys, "--G", "2") == (out, payload)


def test_simulate_keeps_the_stratified_spelling_and_refuses_paired(tmp_path, capsys):
    assert (_simulate(tmp_path, capsys, "--design", "stratified", "--G", "5")
            == _simulate(tmp_path, capsys, "--G", "5"))
    code, out, err = _cli("simulate", "--design", "paired", "--P", "5", "--n", "1",
                          "--reps", "5", "--seed", "1")
    assert (code, out) == (1, "") and err.startswith("error: ") and "Traceback" not in err


def test_simulate_reps_beyond_seed_words_start_no_replication(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a replication started")

    monkeypatch.setattr(cli, "run_size_experiment", unreachable)
    argv = ["simulate", "--P", "10", "--n", "1", "--seed", "1"]
    assert main(argv + ["--reps", str(2**32)]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_simulate_effect_flag(capsys):
    argv = [
        "simulate", "--P", "30", "--n", "5",
        "--reps", "200", "--seed", "77", "--effect", "2.0", "--threads", "1",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    by_key = {(r["test"], r["model"]): float(r["rejection_rate"]) for r in rows}
    # a huge true effect is rejected essentially always under every test
    assert by_key[("stratum", "nofe")] > 0.9


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--P", "1"),
        ("--seed", "-1"),
        ("--n", "0"),
        ("--sigma2-gamma", "-1"),
        ("--sigma2-gamma", "nan"),
        ("--sigma2-gamma", "inf"),
        ("--effect", "nan"),
        ("--effect", "inf"),
        ("--effect", "-inf"),
        ("--threads", "0"),
        ("--threads", "-2"),
        ("--level", "0"),
        ("--level", "1.5"),
        ("--level", "1e-300"),
    ],
)
def test_simulate_out_of_range_values_are_usage_errors(flag, value, capsys):
    args = {"--P": "10", "--n": "1", "--seed": "1", "--sigma2-gamma": "0", "--threads": "1"}
    args[flag] = value
    argv = ["simulate", "--reps", "5"]
    for name, text in args.items():
        argv += [name, text]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_checks_flags_before_reading(tmp_path, monkeypatch, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["analyze", "--data", missing]) == 2
    assert main(["analyze", "--data", missing, "--level", "2"]) == 1

    def never(path):
        raise AssertionError("the file was read")

    monkeypatch.setattr("paircluster.cli.read_csv", never)
    capsys.readouterr()
    for level in ("0", "1e-300"):  # 1 - level/2 rounds to 1 at or below 2**-53
        assert main(["analyze", "--data", missing, "--level", level]) == 1
        assert capsys.readouterr().err == (
            f"error: --level must be in (2**-53, 1), got {float(level)!r}\n"
        )


# Each design needs more than the 128 TiB a process can address, so numpy
# refuses its first array before it touches memory.
@pytest.mark.parametrize("design", [
    ["--P", "100000000000000"],
    ["--P", "9223372036854775807"],
    ["--P", "18446744073709551616"],
    ["--G", "100000000000000", "--P", "2"],
    # sizes beyond a float and beyond a C long overflow before any array is made
    ["--P", "5", "--n", "1" + "0" * 400],
    ["--G", "1" + "0" * 400, "--P", "3"],
    # more stratum sizes than a list can index
    ["--scan-G", "2..99999999999999999999", "--P", "2"],
])
def test_simulate_design_too_large_for_the_machine_is_a_runtime_error(design, capsys):
    assert main(["simulate", "--n", "1", "--reps", "1", "--seed", "1", *design]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_output_is_a_runtime_error(minimal_csv, tmp_path, capsys):
    missing = tmp_path / "missing"
    for flag, argv in [
        ("--json-out", ["analyze", "--data", str(minimal_csv)]),
        ("--csv-out", ["simulate", "--P", "5", "--n", "1", "--reps", "5",
                       "--seed", "1", "--threads", "1"]),
        ("--json-out", ["simulate", "--P", "5", "--n", "1", "--reps", "5",
                        "--seed", "1", "--threads", "1"]),
    ]:
        path = str(missing / "out")
        assert main([*argv, flag, path]) == 3
        err = capsys.readouterr().err
        assert err == f"error: cannot write {path}: No such file or directory\n"


def test_a_failed_fork_is_a_runtime_error(monkeypatch, capsys):
    # the platform refuses the worker process; the caller forks no other
    def refuse(self, process_obj):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("multiprocessing.popen_fork.Popen._launch", refuse)
    argv = ["simulate", "--P", "5", "--n", "1", "--reps", "600",
            "--seed", "1", "--threads", "2"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: [Errno 11] Resource temporarily unavailable\n"
    assert multiprocessing.active_children() == []


def test_analyze_out_of_memory_is_a_runtime_error(minimal_csv, monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr("paircluster.cli.read_csv", exhausted)
    assert main(["analyze", "--data", str(minimal_csv)]) == 3
    assert capsys.readouterr() == ("", "error: memory ran out\n")
