#!/usr/bin/env python3
"""paircluster benchmark: end-to-end metrics and, on a traced run, per-layer ones.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze_1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (one closed-loop client each, operations sent back to back):

  analyze_1m      ``paircluster analyze --json-out`` (in-process cli.main)
                  on one generated ~1M-row CSV.
  simulate_grid   ``paircluster simulate --design stratified`` at
                  G = 2, 5, 10, P = 100, n = 100, 5000 reps per cell, at
                  1 worker and at the default worker count (all cores).
  resample_p2000  ``resampling_size_experiment`` on one generated paired
                  dataset of 2000 pairs, 5000 reps, at 1 worker and all
                  cores.

The operations run in a child process (perfbench/opproc.py) so that its
peak memory, and that of its pool workers, can be measured; set-up time
is the median over several fresh interpreters.  Every output is checked
(see checks.py); the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Spans and per-operation records are written to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import checks
import inputs
from opproc import G_CELLS, MC_REPS
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / ".work" / "results"
WORKLOADS = ("analyze_1m", "simulate_grid", "resample_p2000")
# Set-up probes per run, half before and half after the operations, so
# a change in machine speed during the run does not hit all of them.
PROBES = 6
PROBE_TIMEOUT = 20
RUN_TIMEOUT = 150

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "wall_w1_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.overhead_s": "s",
    "dataio.read_csv_s": "s",
    "dataio.parse_s": "s",
    "dataio.rows_per_s": "1/s",
    "data.validate_dataset_s": "s",
    "data.layout_s": "s",
    "data.unit_vector_s": "s",
    "data.rows": "count",
    "data.units": "count",
    "data.pairs": "count",
    "estimators.diff_in_means_s": "s",
    "estimators.fe_estimate_s": "s",
    "estimators.pair_effects_s": "s",
    "variance.variance_set_s": "s",
    "variance.fe_variance_ratio_s": "s",
    "report.analyze_s": "s",
    "report.self_s": "s",
    "report.render_s": "s",
    "randomize.spawn_s": "s",
    "randomize.dispatch_bytes": "bytes",
    "dgp.normal_draws_us": "us",
    "montecarlo.us_per_rep_w1": "us",
    "montecarlo.us_per_rep_w1.G2": "us",
    "montecarlo.us_per_rep_w1.G5": "us",
    "montecarlo.us_per_rep_w1.G10": "us",
    "montecarlo.scaling": "ratio",
    "montecarlo.workers": "count",
    "montecarlo.chunks": "count",
    "montecarlo.fixed_cost_s": "s",
    "trace.overhead_s": "s",
}
# Values derived from sizes rather than timed.
COMPUTED = ("randomize.dispatch_bytes", "montecarlo.chunks", "data.rows", "data.units",
            "data.pairs")


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def median_and_tail(values) -> dict:
    """Median, plus the highest of p50/p90/p99/p99.9 with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail": None}
    for tenths in (999, 990, 900, 500):
        rank = -(-tenths * n // 1000)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            out["tail"] = {"pct": tenths / 10, "value": values[rank - 1]}
            break
    return out


# -- process-tree memory sampler ------------------------------------------------

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _children(pid: int) -> list[int]:
    kids = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            kids.extend(int(k) for k in handle.read().split())
    return kids


def _rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class TreeSampler(threading.Thread):
    """Samples the summed RSS of a process and its children every 20 ms.

    It runs in the harness process, so the measured process pays nothing
    for it; the largest number of simultaneous children is the number of
    pool workers the operations actually used.
    """

    def __init__(self, pid: int, interval: float = 0.02):
        super().__init__(daemon=True)
        self.pid = pid
        self.interval = interval
        self.peak_mb = 0.0
        self.max_children = 0
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(self.interval):
            try:
                kids = _children(self.pid)
                total = _rss_mb(self.pid)
                for kid in kids:
                    try:
                        total += _rss_mb(kid)
                    except OSError:
                        pass
            except OSError:
                continue
            self.peak_mb = max(self.peak_mb, total)
            self.max_children = max(self.max_children, len(kids))

    def stop(self):
        self._halt.set()
        self.join()


def _start(cmd) -> subprocess.Popen:
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for ``proc``; on timeout kill its whole process group."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return out


def setup_probes(workload: str, csv_path: str, count: int) -> list[float]:
    times = []
    for _ in range(count):
        proc = _start([sys.executable, str(HERE / "opproc.py"), "probe", workload, csv_path])
        out = _finish(proc, PROBE_TIMEOUT)
        if proc.returncode != 0:
            die(f"set-up probe exited with status {proc.returncode}")
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return times


# -- inputs and checks --------------------------------------------------------------

def prepare(workload: str, seed: int) -> dict:
    """Generate (or reuse) the workload's inputs and the harness's expectations."""
    prep = {"input": "-", "golden_input": None, "oracle": None, "arrays": None}
    if workload == "analyze_1m":
        arrays = inputs.analyze_arrays(seed)
        prep["input"] = str(inputs.cached_csv(workload, seed, arrays))
        prep["oracle"] = checks.analyze_oracle(arrays.pair, arrays.unit, arrays.treated,
                                               arrays.outcome)
        prep["arrays"] = arrays
    elif workload == "resample_p2000":
        arrays = inputs.resample_arrays(seed)
        prep["input"] = str(inputs.cached_csv(workload, seed, arrays))
        gold = checks.load_golden(workload)["data_seed"]
        prep["golden_input"] = str(inputs.cached_csv(workload, gold, inputs.resample_arrays(gold)))
        prep["arrays"] = arrays
    return prep


def judge(workload: str, records: list, prep: dict) -> list:
    """Mark each operation record with its problems; returns the failed ones."""
    golden = checks.load_golden(workload) if workload != "analyze_1m" else None
    groups: dict = {}
    for rec in records:
        problems = [] if rec["exit"] == 0 else [f"exit {rec['exit']}"]
        if rec["kind"] == "analyze" and not problems:
            problems += checks.check_analyze(rec["report"], prep["oracle"])
        elif "cell" in rec and not problems:
            problems += checks.check_size_csv(rec["stdout"], rec["reps"], [rec["cell"]])
            groups.setdefault((rec["kind"], rec["cell"], rec["seed"]), []).append(rec)
        rec["problems"] = problems
    for (kind, cell, _), group in groups.items():
        same = sorted({p for r in group
                       for p in checks.check_identical(group[0]["stdout"], r["stdout"])})
        modes = {r["mode"] for r in group}
        if modes != {"w1", "all"}:
            same = same + [f"cell {cell} not run at both worker counts"]
        for rec in group:
            rec["problems"] += same
            if kind == "golden":
                want = {k: v for k, v in golden["tallies"].items() if k.startswith(f"G{cell}.")}
                rec["problems"] += checks.check_golden(checks.tallies(rec["table"]), want)
    return [r for r in records if r["problems"]]


# -- metrics ----------------------------------------------------------------------------

def end_to_end(workload: str, records: list, setup: list, peak_mb: float) -> tuple[dict, dict]:
    """(metrics, samples): medians of the untraced operations' wall times."""
    if workload == "analyze_1m":
        walls = [r["wall"] for r in records if r["kind"] == "analyze"]
        samples = {"wall_s": walls, "wall_w1_s": walls}
    else:
        rounds: dict = {}
        for r in records:
            if "round" in r:
                rounds.setdefault(r["round"], {"w1": 0.0, "all": 0.0})[r["mode"]] += r["wall"]
        samples = {"wall_s": [v["all"] for v in rounds.values()],
                   "wall_w1_s": [v["w1"] for v in rounds.values()]}
    samples["setup_s"] = setup
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(samples["wall_s"]),
        "wall_w1_s": statistics.median(samples["wall_w1_s"]),
        "peak_rss_mb": peak_mb,
    }
    return metrics, samples


def per_layer(workload: str, out: dict, prep: dict, workers: int) -> tuple[dict, list]:
    """Per-layer metrics from the traced run's spans; also the names left at 0."""
    rec = SpanRecorder.from_dicts(out["spans"])
    records = out["records"]
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    m.update(out["probes"])
    arrays = prep["arrays"]
    if arrays is not None:
        m["data.rows"] = float(arrays.n_rows)
        m["data.units"] = float(len(arrays.unit_ids))
        m["data.pairs"] = float(len(arrays.pair_ids))
    untraced = [r for r in records if not r["traced"] and r["kind"] != "golden"]
    traced = [r for r in records if r["traced"]]
    m["trace.overhead_s"] = sum(r["wall"] for r in traced) - sum(r["wall"] for r in untraced)

    def first(name, op=None, parent=None):
        found = [s for s in rec.named(name, op) if parent is None or s.parent == parent.id]
        return found[0] if found else None

    def dur(span):
        return span.duration if span is not None else 0.0

    if workload == "analyze_1m":
        op = traced[0]["op"]
        root = first("cli.main", op)
        read = first("dataio.read_csv", op)
        analyze = first("report.analyze", op)
        render = sum(s.duration for s in rec.named("report.render", op))
        m["cli.overhead_s"] = rec.self_time(root)
        m["dataio.read_csv_s"] = dur(read)
        m["dataio.parse_s"] = rec.self_time(read) if read else 0.0
        m["dataio.rows_per_s"] = m["data.rows"] / read.duration if read else 0.0
        m["report.analyze_s"] = dur(analyze)
        m["report.self_s"] = rec.self_time(analyze) if analyze else 0.0
        m["report.render_s"] = render
        for name in ("estimators.diff_in_means", "estimators.fe_estimate",
                     "estimators.pair_effects", "variance.variance_set",
                     "variance.fe_variance_ratio"):
            m[name + "_s"] = dur(first(name, op, parent=analyze))
        m["data.layout_s"] = dur(first("data.layout", op))
        vectors = rec.named("data.unit_vector", op)
        m["data.unit_vector_s"] = statistics.median(s.duration for s in vectors) if vectors else 0.0
        harness_rows = [s for s in rec.named("data.validate_dataset") if s.op != op]
        m["data.validate_dataset_s"] = dur(harness_rows[0] if harness_rows else None)
    else:
        mc_name = ("montecarlo.run_size_experiment" if workload == "simulate_grid"
                   else "montecarlo.resampling_size_experiment")
        totals = {"w1": [0.0, 0], "all": [0.0, 0]}
        for r in traced:
            span = first(mc_name, r["op"])
            if span is None:
                continue
            totals[r["mode"]][0] += span.duration
            totals[r["mode"]][1] += r["reps"]
            if r["mode"] == "w1" and workload == "simulate_grid":
                m[f"montecarlo.us_per_rep_w1.G{r['cell']}"] = span.duration / r["reps"] * 1e6
        if totals["w1"][1] and totals["all"][1]:
            m["montecarlo.us_per_rep_w1"] = totals["w1"][0] / totals["w1"][1] * 1e6
            m["montecarlo.scaling"] = ((totals["all"][1] / totals["all"][0])
                                       / (totals["w1"][1] / totals["w1"][0]))
        m["montecarlo.workers"] = float(workers)
        roots = [first("cli.main", r["op"]) for r in traced]
        roots = [rec.self_time(s) for s in roots if s is not None]
        m["cli.overhead_s"] = statistics.median(roots) if roots else 0.0
        if workload == "resample_p2000":
            m["data.validate_dataset_s"] = dur(first("data.validate_dataset"))
            m["data.layout_s"] = dur(first("data.layout"))
            m["data.unit_vector_s"] = dur(first("data.unit_vector"))
    zero = [k for k, v in m.items() if v == 0.0]
    return m, zero


# -- one run ----------------------------------------------------------------------------

def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_sha": sha}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    prep = prepare(workload, seed)
    setup = setup_probes(workload, prep["input"], PROBES // 2)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "input": prep["input"], "golden_input": prep["golden_input"],
        "golden": checks.load_golden(workload) if workload != "analyze_1m" else None,
        "out": str(stem) + ".ops.json",
    }
    spec_path = Path(str(stem) + ".spec.json")
    spec_path.write_text(json.dumps(spec))
    proc = _start([sys.executable, str(HERE / "opproc.py"), "run", str(spec_path)])
    sampler = TreeSampler(proc.pid)
    sampler.start()
    try:
        _finish(proc, RUN_TIMEOUT)
    finally:
        sampler.stop()
    if proc.returncode != 0:
        die(f"operation process exited with status {proc.returncode}")
    setup += setup_probes(workload, prep["input"], PROBES - PROBES // 2)
    with open(spec["out"], encoding="utf-8") as handle:
        out = json.load(handle)

    records = out["records"]
    failed = judge(workload, records, prep)
    chunk = out["chunk_size"]
    meta = {
        **machine_facts(), **out["versions"], "seed": seed, "seconds": seconds,
        "trace": trace,
        "workers": (sampler.max_children or 1) if workload != "analyze_1m" else 1,
        "chunks_per_op": -(-MC_REPS // chunk) if chunk and workload != "analyze_1m" else 0,
    }
    peak = max(sampler.peak_mb, out["own_peak_mb"])
    if trace:
        metrics, zero = per_layer(workload, out, prep, meta["workers"])
        units, samples = LAYER_UNITS, {}
    else:
        metrics, samples = end_to_end(workload, records, setup, peak)
        units, zero = E2E_UNITS, []
    result = {
        "workload": workload, "meta": meta,
        "attempted": len(records), "failed": len(failed),
        "metrics": metrics, "units": units, "samples": samples,
        "zero": zero, "failures": [(r["op"], r["kind"], r["problems"]) for r in failed],
        "self_by_layer": None, "missing": sorted(
            {m for r in records for m in r["missing"]} | set(out["missing"])),
    }
    if trace:
        result["self_by_layer"] = SpanRecorder.from_dicts(out["spans"]).self_by_layer()
    for r in records:  # keep the result file small
        r.pop("report", None)
        r.pop("stdout", None)
    with open(str(stem) + ".json", "w", encoding="utf-8") as handle:
        json.dump({**result, "records": records, "spans": out.get("spans", [])}, handle)
    return result


def describe(result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    w = result["workload"]
    n, bad = result["attempted"], result["failed"]
    print(f"== {w}: {n} operations, {bad} failed, error_rate {bad / n:.4g}")
    for op, kind, problems in result["failures"][:10]:
        print(f"   FAILED op {op} ({kind}): {'; '.join(problems)[:300]}")
    for name, value in result["metrics"].items():
        unit = result["units"][name]
        note = " (computed)" if name in COMPUTED else ""
        samples = result["samples"].get(name)
        if samples:
            stats = median_and_tail(samples)
            tail = (f"{name}_tail p{stats['tail']['pct']:g} {stats['tail']['value']:.6g}"
                    if stats["tail"] else f"{name}_tail n/a (needs >= 20 samples)")
            note += f"  median of n={stats['n']}; {tail}"
        print(f"   {name:<32} {value:>14.6g} {unit}{note}")
    if result["metrics"].get("wall_s") and w != "analyze_1m":
        reps = MC_REPS * (len(G_CELLS) if w == "simulate_grid" else 1)
        print(f"   {'reps_per_s':<32} {reps / result['metrics']['wall_s']:>14.6g} 1/s")
        print(f"   {'reps_per_s_w1':<32} {reps / result['metrics']['wall_w1_s']:>14.6g} 1/s")
    print(f"   {'error_rate':<32} {bad / n:>14.6g} ratio")
    if result["zero"]:
        print(f"   reported as 0 (not exercised by {w}, or listed as missing): "
              f"{', '.join(result['zero'])}")
    if result["missing"]:
        print(f"   missing (package attribute not found): {', '.join(result['missing'])}")
    if result["self_by_layer"]:
        layers = ", ".join(f"{k} {v:.4g}s" for k, v in sorted(result["self_by_layer"].items()))
        print(f"   self time by layer (traced operations): {layers}")
    print(f"   meta: {json.dumps(result['meta'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "paircluster" / "__init__.py").is_file():
        die(f"no package source under {ROOT / 'src'}; run from the root of a checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        describe(result)
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": result["units"][name]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
