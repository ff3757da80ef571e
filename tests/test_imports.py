"""What a fresh process loads: ``import paircluster``, ``analyze`` and null
resampling need only numpy.  scipy serves only the synthetic generator's
normal draws and loads when a size experiment first runs; the process pool
loads when a multi-worker run starts.  Each test runs its own interpreter,
since this one has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from paircluster import Seed, SizeCell, draw_paired_assignment, write_csv
from test_cli import MINIMAL_CSV
from test_golden import REPS, RESAMPLE_GOLDEN, SIMULATE_GOLDEN, _tallies, _unbalanced_pairs

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the report, then the modules analyze left loaded that it should not.
ANALYZE = """
import sys
if {block_scipy}:
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import paircluster
from paircluster import cli
assert cli.main(["analyze", "--data", {data!r}, "--json-out", {json_out!r}]) == 0
lazy = ("scipy", "multiprocessing", "concurrent.futures.process")
print(sorted(m for m, module in sys.modules.items() if module and m.startswith(lazy)))
"""

# After analyze, a size experiment loads scipy.special.
SIMULATE = ANALYZE + """
import json
from paircluster import DGPConfig, Seed, SizeExperimentSpec, run_size_experiment
spec = SizeExperimentSpec(DGPConfig(G=2, P=30, n_gp=4, sigma2_gamma=0.2), 300, Seed(2019))
table = run_size_experiment(spec, threads={threads})
print("scipy.special" in sys.modules)
print(json.dumps(table.to_json_dict()["cells"]))
"""

# After analyze, null resampling runs with scipy blocked: it draws no normals.
RESAMPLE = ANALYZE + """
import json
from paircluster import Seed, read_csv, resampling_size_experiment
data, _ = read_csv({pairs!r})
table = resampling_size_experiment(data, {reps}, 0.05, Seed(2020), threads={threads})
print(json.dumps(table.to_json_dict()["cells"]))
"""


def _cells(line):
    return SimpleNamespace(cells=[SizeCell(**cell) for cell in json.loads(line)])


def _run(script, tmp_path, name, block_scipy=False, **fields):
    data = tmp_path / "exp.csv"
    data.write_text(MINIMAL_CSV, encoding="utf-8")
    json_out = tmp_path / f"{name}.json"
    code = script.format(
        block_scipy=block_scipy, data=str(data), json_out=str(json_out), **fields
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout, json_out.read_bytes()


def test_analyze_loads_neither_scipy_nor_the_pool(tmp_path):
    out, _ = _run(ANALYZE, tmp_path, "plain")
    assert out.splitlines()[-1] == "[]"


def test_analyze_runs_with_scipy_blocked(tmp_path):
    plain = _run(ANALYZE, tmp_path, "plain")
    blocked = _run(ANALYZE, tmp_path, "blocked", block_scipy=True)
    assert blocked == plain
    assert "pairs: 2" in plain[0]


@pytest.mark.parametrize("threads", [1, 2])
def test_size_experiment_after_analyze_loads_scipy(tmp_path, threads):
    out, _ = _run(SIMULATE, tmp_path, "plain", threads=threads)
    loaded, has_special, cells = out.splitlines()[-3:]
    assert loaded == "[]"
    assert has_special == "True"
    assert _tallies(_cells(cells)) == SIMULATE_GOLDEN[2]


@pytest.mark.parametrize("threads", [1, 2])
def test_resampling_runs_with_scipy_blocked(tmp_path, threads):
    data = _unbalanced_pairs()
    pairs = tmp_path / "pairs.csv"
    write_csv(pairs, data, draw_paired_assignment(data, Seed(0)))  # resampling redraws it
    out, _ = _run(RESAMPLE, tmp_path, "blocked", block_scipy=True,
                  pairs=str(pairs), reps=REPS, threads=threads)
    loaded, cells = out.splitlines()[-2:]
    assert loaded == "[]"
    assert _tallies(_cells(cells)) == RESAMPLE_GOLDEN
