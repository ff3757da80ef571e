"""Operation process: the process whose time and memory the benchmark measures.

``run.py`` starts it; it is not meant to be run by hand.

    python3 perfbench/opproc.py probe <workload> <csv-or-->
        Time the workload's set-up in this fresh interpreter: import
        paircluster, plus validate_dataset and layout() for
        resample_p2000.  Prints {"setup_s": ...}.
    python3 perfbench/opproc.py run <spec.json>
        Run the workload's operations back to back (one closed-loop
        client) and write one JSON record per operation, plus spans and
        the Monte Carlo layer probes on a traced run, to spec["out"].

Only the standard library (and spans.py, which uses nothing else) is
imported at module level, so a probe times the package's own imports,
numpy and scipy included.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import pickle
import statistics
import sys
import time
from pathlib import Path

from spans import SpanRecorder, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Workload constants shared with run.py.
P_GRID, N_GRID, G_CELLS = 100, 100, (2, 5, 10)
MC_REPS = 5000
LEVEL = 0.05


def import_package():
    """Import paircluster from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import paircluster

    where = Path(paircluster.__file__).resolve().parent
    if where != SRC / "paircluster":
        raise SystemExit(f"paircluster imported from {where}, not {SRC}")
    return paircluster


def read_rows(path) -> list:
    """Parse a generated CSV with the standard library's csv reader."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(p, u, int(w), float(y)) for p, u, w, y in reader]


def derived_seed(seed: int, round_no: int, cell) -> int:
    """Per-(round, cell) experiment seed, a fixed function of the run seed."""
    digest = hashlib.blake2b(f"{seed}:{round_no}:{cell}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def build_dataset(pc, rows):
    """validate_dataset, then layout() while the package still has one."""
    data, assignment = pc.validate_dataset(rows)
    layout = getattr(data, "layout", None)
    if layout is not None:
        layout()
    return data, assignment


def probe(workload: str, csv_path: str) -> dict:
    rows = read_rows(csv_path) if workload == "resample_p2000" else None
    t0 = time.perf_counter()
    pc = import_package()
    if rows is not None:
        build_dataset(pc, rows)
    return {"setup_s": time.perf_counter() - t0}


def _own_peak_mb() -> float:
    """Peak RSS of this process's address space (VmHWM).

    ``ru_maxrss`` is not used: Linux carries it across exec, so it would
    include the harness process this one was started from.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("VmHWM not in /proc/self/status")


class Runner:
    """One workload's operations, timed with perf_counter around each call."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.pc = import_package()
        from paircluster import cli

        self.cli = cli
        self.records: list[dict] = []
        self.recorder = None
        self.tmp = Path(spec["out"]).with_suffix(".tmp.json")

    # -- single operations -------------------------------------------------
    def _record(self, kind: str, t0: float, t1: float, **fields) -> dict:
        rec = {"op": len(self.records), "kind": kind, "start": t0, "end": t1,
               "wall": t1 - t0, **fields}
        self.records.append(rec)
        return rec

    def _hook(self, owner, name: str, metrics: str):
        """``owner.name``, or None, noting ``metrics`` as missing, once it is gone."""
        found = getattr(owner, name, None)
        if found is None:
            self.missing.append(f"{name} (so no {metrics})")
        return found

    def _traced(self, traced: bool, targets):
        if not traced:
            return contextlib.nullcontext([])
        self.recorder.op = len(self.records)
        return instrument(self.recorder, targets)

    def _root(self, traced: bool, name: str):
        return self.recorder.span(name) if traced else contextlib.nullcontext()

    def _cli(self, argv: list, traced: bool, targets):
        """One in-process ``paircluster`` command, timed around ``cli.main``.

        An exception escaping ``cli.main`` is recorded as the exit status,
        so it counts as a failed operation and the run goes on.
        """
        buf = io.StringIO()
        self.tmp.unlink(missing_ok=True)  # a stale report must not pass for this one's
        with self._traced(traced, targets) as missing:
            t0 = time.perf_counter()
            try:
                with self._root(traced, "cli.main"), contextlib.redirect_stdout(buf):
                    code = self.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a harness fault
                code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        return code, buf.getvalue(), missing, t0, t1

    def _json_out(self, code):
        if code != 0:
            return None
        with open(self.tmp, encoding="utf-8") as handle:
            return json.load(handle)

    def analyze_op(self, csv_path: str, traced=False) -> dict:
        argv = ["analyze", "--data", csv_path, "--json-out", str(self.tmp)]
        code, stdout, missing, t0, t1 = self._cli(argv, traced, self.analyze_targets())
        return self._record("analyze", t0, t1, traced=traced, exit=code, stdout=stdout,
                            report=self._json_out(code), missing=missing)

    def simulate_op(self, g: int, seed: int, reps: int, w1: bool, traced=False,
                    kind="simulate", json_out=False, **extra) -> dict:
        argv = ["simulate", "--design", "stratified", "--G", str(g), "--P", str(P_GRID),
                "--n", str(N_GRID), "--reps", str(reps), "--seed", str(seed)]
        if w1:
            argv += ["--threads", "1"]
        if json_out:
            argv += ["--json-out", str(self.tmp)]
        code, stdout, missing, t0, t1 = self._cli(argv, traced, self.mc_targets())
        return self._record(kind, t0, t1, traced=traced, exit=code, cell=g, seed=seed,
                            reps=reps, mode="w1" if w1 else "all", stdout=stdout,
                            table=self._json_out(code) if json_out else None,
                            missing=missing, **extra)

    def resample_op(self, data, seed: int, reps: int, w1: bool, traced=False,
                    kind="resample", **extra) -> dict:
        mc = self.pc.montecarlo
        code, stdout, table = 0, "", None
        with self._traced(traced, self.mc_targets()) as missing:
            t0 = time.perf_counter()
            try:
                result = mc.resampling_size_experiment(
                    data, reps, LEVEL, self.pc.Seed(seed), threads=1 if w1 else None)
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a harness fault
                code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        if code == 0:
            stdout, table = result.to_csv_text(), result.to_json_dict()
        return self._record(kind, t0, t1, traced=traced, exit=code, cell=2, seed=seed,
                            reps=reps, mode="w1" if w1 else "all", stdout=stdout,
                            table=table, missing=missing, **extra)

    # -- span targets --------------------------------------------------------
    def _targets(self, spec):
        """Resolve ``(owner path, attribute, span name)``; a gone owner is None."""
        out = []
        for path, attr, name in spec:
            owner = self.pc
            for part in path.split("."):
                owner = getattr(owner, part, None)
            out.append((owner, attr, name))
        return out

    def analyze_targets(self):
        return self._targets([
            ("cli", "read_csv", "dataio.read_csv"),
            ("dataio", "validate_dataset", "data.validate_dataset"),
            ("cli", "analyze", "report.analyze"),
            ("data.ExperimentData", "layout", "data.layout"),
            ("data.Assignment", "unit_vector", "data.unit_vector"),
            ("report", "diff_in_means", "estimators.diff_in_means"),
            ("report", "fe_estimate", "estimators.fe_estimate"),
            ("report", "pair_effects", "estimators.pair_effects"),
            ("variance", "diff_in_means", "estimators.diff_in_means"),
            ("variance", "fe_estimate", "estimators.fe_estimate"),
            ("report", "variance_set", "variance.variance_set"),
            ("report", "fe_variance_ratio", "variance.fe_variance_ratio"),
            ("report", "t_test", "inference.t_test"),
            ("report.AnalysisReport", "to_text", "report.render"),
            ("report.AnalysisReport", "to_json_dict", "report.render"),
        ])

    def mc_targets(self):
        return self._targets([
            ("cli", "run_size_experiment", "montecarlo.run_size_experiment"),
            ("montecarlo", "resampling_size_experiment", "montecarlo.resampling_size_experiment"),
            ("randomize.Seed", "spawn", "randomize.spawn"),
        ])

    # -- workloads -------------------------------------------------------------
    def _loop(self, seconds: float, one_round) -> None:
        """Closed loop: start rounds back to back until the window is used.

        A round starts only if it should end within half a round of the
        deadline, so every run does whole rounds of the same work.
        """
        deadline = time.perf_counter() + seconds
        round_no = 0
        while True:
            t0 = time.perf_counter()
            one_round(round_no)
            round_no += 1
            now = time.perf_counter()
            if now + (now - t0) / 2 > deadline:
                return

    def run_analyze(self):
        csv_path = self.spec["input"]
        if not self.spec["trace"]:
            self._loop(self.spec["seconds"], lambda r: self.analyze_op(csv_path))
            return
        self.analyze_op(csv_path)
        self.analyze_op(csv_path, traced=True)
        rows = read_rows(csv_path)
        self.recorder.op = len(self.records)
        with self.recorder.span("data.validate_dataset"):
            self.pc.validate_dataset(rows)

    def run_simulate(self):
        # Pinned-seed operations at 1 worker and all cores; they also warm up.
        gold = self.spec["golden"]
        for g in G_CELLS:
            for w1 in (True, False):
                self.simulate_op(g, gold["seed"], gold["reps"], w1, kind="golden", json_out=True)
        seed = self.spec["seed"]
        if not self.spec["trace"]:
            def one_round(r):
                order = (True, False) if r % 2 == 0 else (False, True)
                for g in G_CELLS:
                    for w1 in order:
                        self.simulate_op(g, derived_seed(seed, r, g), MC_REPS, w1, round=r)
            self._loop(self.spec["seconds"], one_round)
            return
        for w1 in (True, False):
            for g in G_CELLS:
                s = derived_seed(seed, 0, g)
                self.simulate_op(g, s, MC_REPS, w1)
                self.simulate_op(g, s, MC_REPS, w1, traced=True)
        self.mc_layer_probes(
            lambda reps: self.pc.run_size_experiment(self.pc.SizeExperimentSpec(
                dgp=self.pc.DGPConfig(G=2, P=P_GRID, n_gp=N_GRID), reps=reps,
                master_seed=self.pc.Seed(seed), level=LEVEL), threads=None),
            draw_units=P_GRID * max(G_CELLS))

    def run_resample(self):
        pc = self.pc
        gold = self.spec["golden"]
        gold_data, _ = build_dataset(pc, read_rows(self.spec["golden_input"]))
        for w1 in (True, False):
            self.resample_op(gold_data, gold["seed"], gold["reps"], w1, kind="golden")
        rows = read_rows(self.spec["input"])
        seed = self.spec["seed"]
        if not self.spec["trace"]:
            data, _ = build_dataset(pc, rows)

            def one_round(r):
                order = (True, False) if r % 2 == 0 else (False, True)
                for w1 in order:
                    self.resample_op(data, derived_seed(seed, r, 2), MC_REPS, w1, round=r)
            self._loop(self.spec["seconds"], one_round)
            return
        rec = self.recorder
        rec.op = None
        with rec.span("data.validate_dataset"):
            data, assignment = pc.validate_dataset(rows)
        layout = self._hook(data, "layout", "data.layout_s")
        if layout is not None:
            with rec.span("data.layout"):
                layout()
        unit_vector = self._hook(assignment, "unit_vector", "data.unit_vector_s")
        if unit_vector is not None:
            with rec.span("data.unit_vector"):
                unit_vector(data)
        for w1 in (True, False):
            s = derived_seed(seed, 0, 2)
            self.resample_op(data, s, MC_REPS, w1)
            self.resample_op(data, s, MC_REPS, w1, traced=True)
        self.mc_layer_probes(
            lambda reps: pc.resampling_size_experiment(
                data, reps, LEVEL, pc.Seed(seed), threads=None),
            draw_units=0)

    def mc_layer_probes(self, experiment, draw_units: int):
        """Micro-measurements of the Monte Carlo layers, kept as metrics."""
        pc = self.pc
        probes = {}
        spawn = self._hook(pc.Seed(self.spec["seed"]), "spawn",
                           "randomize.spawn_s or randomize.dispatch_bytes")
        chunk = self._hook(pc.montecarlo, "_CHUNK",
                           "randomize.dispatch_bytes, montecarlo.chunks or fixed_cost_s")
        if spawn is not None:
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                children = spawn(MC_REPS)
                times.append(time.perf_counter() - t0)
            probes["randomize.spawn_s"] = statistics.median(times)
        if spawn is not None and chunk:
            probes["randomize.dispatch_bytes"] = float(sum(
                len(pickle.dumps(children[i:i + chunk])) for i in range(0, MC_REPS, chunk)))
        if chunk:
            probes["montecarlo.chunks"] = float(math.ceil(MC_REPS / chunk))
            fixed = []
            for _ in range(3):
                t0 = time.perf_counter()
                experiment(2 * chunk)
                fixed.append(time.perf_counter() - t0)
            probes["montecarlo.fixed_cost_s"] = statistics.median(fixed)
        normal_draws = self._hook(pc.dgp, "normal_draws", "dgp.normal_draws_us") if draw_units else None
        if normal_draws is not None:
            import numpy as np

            draws = []
            for i in range(2000):
                rng = np.random.default_rng(i)
                t0 = time.perf_counter()
                normal_draws(rng, draw_units)
                draws.append(time.perf_counter() - t0)
            probes["dgp.normal_draws_us"] = statistics.median(draws) * 1e6
        self.probes = probes

    def run(self) -> dict:
        self.probes = {}
        self.missing = []
        if self.spec["trace"]:
            self.recorder = SpanRecorder()
        workload = self.spec["workload"]
        {"analyze_1m": self.run_analyze, "simulate_grid": self.run_simulate,
         "resample_p2000": self.run_resample}[workload]()
        import numpy
        import scipy

        out = {
            "records": self.records,
            "probes": self.probes,
            "own_peak_mb": _own_peak_mb(),
            "versions": {"paircluster": self.pc.__version__, "numpy": numpy.__version__,
                         "scipy": scipy.__version__, "python": sys.version.split()[0]},
            "chunk_size": getattr(self.pc.montecarlo, "_CHUNK", None),
            "missing": self.missing,
        }
        if self.recorder is not None:
            out["spans"] = self.recorder.as_dicts()
        self.tmp.unlink(missing_ok=True)
        return out


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "probe":
        print(json.dumps(probe(argv[1], argv[2])))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        with open(argv[1], encoding="utf-8") as handle:
            spec = json.load(handle)
        result = Runner(spec).run()
        with open(spec["out"], "w", encoding="utf-8") as handle:
            json.dump(result, handle)
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
