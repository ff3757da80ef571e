"""Correctness gate: an independent oracle and the output checks.

Every check returns a list of problems; an operation with any problem
counts as failed.  The analyze oracle is computed here from the
generated arrays with plain least squares (the 2x2 sandwich without
fixed effects, Frisch-Waugh-Lovell with them), not with the package's
closed forms.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-10
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
VARIANCE_KEYS = ("pair_nofe", "unit_nofe", "pair_fe", "unit_fe")
SIZE_CSV_HEADER = "test,model,G,reps,rejection_rate,mc_se,mean_se_ratio"


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def analyze_oracle(pair, unit, treated, outcome) -> dict:
    """Both estimates and all four clustered variances from raw arrays.

    The outcome is centred at its exactly rounded mean first; slopes and
    residuals do not change under a shift, and the normal equations of
    the uncentred 2x2 system lose about 1e-10 to cancellation at 1M rows.
    """
    y = np.asarray(outcome, dtype=float)
    y = y - math.fsum(y) / y.size
    w = np.asarray(treated, dtype=float)
    n = y.size
    X = np.column_stack([np.ones(n), w])
    gram = X.T @ X
    beta = np.linalg.solve(gram, X.T @ y)
    e = y - X @ beta
    bread = np.linalg.inv(gram)
    out = {"nofe": float(beta[1])}
    for label, codes in (("pair", pair), ("unit", unit)):
        scores = np.column_stack(
            [np.bincount(codes, weights=e * X[:, j]) for j in range(2)]
        )
        out[f"{label}_nofe"] = float((bread @ (scores.T @ scores) @ bread)[1, 1])

    n_p = np.bincount(pair).astype(float)
    x = w - (np.bincount(pair, weights=w) / n_p)[pair]
    y_within = y - (np.bincount(pair, weights=y) / n_p)[pair]
    xx = float(x @ x)
    tau_fe = float(x @ y_within) / xx
    e_fe = y_within - tau_fe * x
    out["fe"] = tau_fe
    for label, codes in (("pair", pair), ("unit", unit)):
        s = np.bincount(codes, weights=x * e_fe)
        out[f"{label}_fe"] = float(s @ s) / xx**2
    return out


def check_analyze(report: dict | None, oracle: dict, tol: float = TOLERANCE) -> list:
    """Compare an ``analyze --json-out`` report with the oracle."""
    if not report:
        return ["no JSON report"]
    problems = []
    try:
        got = {
            "nofe": report["estimates"]["nofe"],
            "fe": report["estimates"]["fe"],
            **{k: report["variances"][k]["variance"] for k in VARIANCE_KEYS},
        }
    except (KeyError, TypeError) as exc:
        return [f"report lacks {exc}"]
    for key, want in oracle.items():
        err = rel_err(float(got[key]), want)
        if not err <= tol:
            problems.append(f"{key}: got {got[key]!r}, oracle {want!r}, rel err {err:.3g}")
    return problems


def check_size_csv(text: str, reps: int, g_values) -> list:
    """Structure of a size-table CSV: header, 4 rows per G, rates in [0, 1]."""
    lines = text.splitlines()
    if not lines or lines[0] != SIZE_CSV_HEADER:
        return [f"bad size-table header {lines[:1]!r}"]
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 4 * len(g_values):
        problems.append(f"expected {4 * len(g_values)} rows, got {len(rows)}")
    for row in rows:
        if int(row["G"]) not in g_values or int(row["reps"]) != reps:
            problems.append(f"unexpected row {row}")
        elif not 0.0 <= float(row["rejection_rate"]) <= 1.0:
            problems.append(f"rate out of range in {row}")
    return problems


def check_identical(out_w1: str, out_all: str) -> list:
    """Stdout at one worker and at all cores must agree byte for byte."""
    if out_w1 == out_all:
        return []
    return ["size table differs between 1 worker and all cores"]


def tallies(table_json: dict) -> dict:
    """``{"G<g>.<test>_<model>": [rejections, dof-adjusted rejections]}``."""
    out = {}
    for c in table_json["cells"]:
        key = f"G{c['G']}.{c['test']}_{c['model']}"
        out[key] = [int(c["rejections"]), int(round(c["rejection_rate_dof"] * c["reps"]))]
    return out


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def check_golden(got: dict, want: dict) -> list:
    """Every pinned rejection count must match exactly."""
    if set(got) != set(want):
        return [f"tally keys {sorted(got)} != golden {sorted(want)}"]
    return [
        f"{key}: rejections {got[key]} != golden {want[key]}"
        for key in sorted(want)
        if list(got[key]) != list(want[key])
    ]
