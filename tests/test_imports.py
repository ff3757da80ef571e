"""What a fresh process loads: ``import paircluster``, ``analyze`` and null
resampling need only numpy.  scipy serves only the synthetic generator's
normal draws and loads when a size experiment first runs; the process pool
loads when a multi-worker run starts.  Each test runs its own interpreter,
since this one has long since loaded everything.  Two boundaries are read
from the source: the variance module's array math needs no dataset type, and
seed stream v1 (scipy, the draws, every ``random`` call) lives in ``randomize``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from paircluster import Seed, SizeCell, draw_stratified_assignment, write_csv
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
    write_csv(pairs, data, draw_stratified_assignment(data, Seed(0)))  # resampling redraws it
    out, _ = _run(RESAMPLE, tmp_path, "blocked", block_scipy=True,
                  pairs=str(pairs), reps=REPS, threads=threads)
    loaded, cells = out.splitlines()[-2:]
    assert loaded == "[]"
    assert _tallies(_cells(cells)) == RESAMPLE_GOLDEN


def _imports(tree):
    """The modules a parsed source imports from, relative ones as ``paircluster.<name>``."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "paircluster." * (node.level > 0) + (node.module or "")
            modules += [base] if node.module else [base + alias.name for alias in node.names]
    return modules


def _within(modules, *packages):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_the_variance_module_imports_nothing_from_the_data_model():
    # variance holds array math only: report turns a dataset into the kernel's arrays
    modules = _imports(ast.parse((SRC / "paircluster" / "variance.py").read_text(encoding="utf-8")))
    assert "paircluster.dgp" in modules  # the scan sees relative imports
    assert not _within(modules, "paircluster.data")


def test_seed_stream_v1_lives_in_randomize_alone():
    # scipy's ndtri, every class with a batch method (a draw) and every call of a
    # generator's random are in randomize; dgp holds parameters and draws nothing
    found = {}
    for path in sorted((SRC / "paircluster").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree))
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        names |= {n.name for n in nodes if isinstance(n, ast.alias)}
        draws = [n.name for n in nodes if isinstance(n, ast.ClassDef)
                 and any(isinstance(f, ast.FunctionDef) and f.name == "batch" for f in n.body)]
        calls = [n for n in nodes if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Attribute) and n.func.attr == "random"]
        found[path.stem] = (_within(_imports(tree), "scipy") or "ndtri" in names, draws, calls)
        if path.stem == "dgp":
            assert not _within(_imports(tree), "numpy.random", "scipy", "paircluster.randomize")
            assert "random" not in names  # nor np.random through numpy itself
    assert [m for m, (scipy, _, _) in found.items() if scipy] == ["randomize"]
    assert [m for m, (_, draws, _) in found.items() if draws] == ["randomize"]
    assert [m for m, (_, _, calls) in found.items() if calls] == ["randomize"]
    assert found["randomize"][1] == ["StratifiedDraw", "PairedResample"]
