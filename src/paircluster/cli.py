"""Command-line entry points.

``paircluster analyze`` audits a paired or stratified experiment CSV;
``paircluster simulate`` runs the replicated size experiments.  Results
go to stdout, diagnostics to stderr.  Exit statuses: 0 success, 1 usage
error, 2 data validation error or a ``--data`` file that cannot be read,
3 runtime/numeric failure (an output that cannot be written, a design too
large for the machine, memory that runs out and a failed fork included).
"""

from __future__ import annotations

import argparse
import json
import sys

from .dataio import read_csv
from .dgp import DGPConfig
from .errors import DataError, PairClusterError
from .montecarlo import SizeTable, run_size_experiment, SizeExperimentSpec
from .randomize import Seed
from .report import analyze

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="paircluster", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="audit a paired or stratified experiment CSV")
    p_an.add_argument("--data", required=True, help="CSV with pair_id,unit_id,treatment,outcome; "
                      "a pair may hold more than 2 units (a stratum)")
    p_an.add_argument("--level", type=float, default=0.05)
    p_an.add_argument("--json-out", help="write the full-precision JSON report here")

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo size experiment")
    p_sim.add_argument("--design", choices=["paired", "stratified"], required=True)
    p_sim.add_argument("--G", type=int, help="units per stratum (paired design fixes 2)")
    p_sim.add_argument("--scan-G", help="inclusive range a..b of stratum sizes to sweep")
    p_sim.add_argument("--P", type=int, required=True, help="number of pairs/strata")
    p_sim.add_argument("--n", type=int, required=True, help="observations per unit")
    p_sim.add_argument("--sigma2-gamma", type=float, default=0.0,
                       help="variance of the additive stratum shock")
    p_sim.add_argument("--effect", type=float, default=0.0,
                       help="constant treatment effect added in every stratum")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--level", type=float, default=0.05)
    p_sim.add_argument("--threads", type=int, default=None,
                       help="Monte Carlo workers, the calling process among them, at most the "
                            "CPUs this process may use (default: all of them)")
    p_sim.add_argument("--csv-out", help="also write the size table CSV here")
    p_sim.add_argument("--json-out", help="also write the size table JSON here")
    return parser


def _cmd_analyze(args) -> int:
    from .variance import critical_value  # .report has loaded it
    try:
        critical_value(args.level)  # before the file is read
    except ValueError as exc:
        raise _UsageError(f"--{exc}") from None
    try:
        data, assignment = read_csv(args.data)
    except OSError as exc:
        raise DataError(f"cannot read {args.data}: {exc.strerror or exc}") from None
    report = analyze(data, assignment, level=args.level)
    sys.stdout.write(report.to_text())
    if args.json_out:
        _write(args.json_out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _write(path: str, text: str) -> None:
    """Write one output file; a failure is a runtime error that names the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise PairClusterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_scan(text: str) -> range:
    try:
        lo_text, hi_text = text.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise _UsageError(f"--scan-G expects a..b, got {text!r}") from None
    if lo < 2 or hi < lo:
        raise _UsageError(f"--scan-G range must satisfy 2 <= a <= b, got {text!r}")
    return range(lo, hi + 1)


def _cmd_simulate(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise _UsageError("--threads must be >= 1")
    if args.design == "paired":
        if args.scan_G:
            raise _UsageError("--scan-G applies to the stratified design only")
        if args.G not in (None, 2):
            raise _UsageError("paired design means G=2")
        g_values = [2]
    elif args.scan_G:
        if args.G is not None:
            raise _UsageError("give either --G or --scan-G, not both")
        g_values = list(_parse_scan(args.scan_G))
    else:
        if args.G is None:
            raise _UsageError("stratified design needs --G or --scan-G")
        g_values = [args.G]

    cells = []
    tables = []
    for g in g_values:
        try:
            dgp = DGPConfig(G=g, P=args.P, n_gp=args.n, sigma2_gamma=args.sigma2_gamma,
                            effect=args.effect)
            spec = SizeExperimentSpec(dgp, args.reps, Seed(args.seed), args.level)
        except ValueError as exc:  # an out-of-range flag value, --level's too
            raise _UsageError(str(exc)) from None
        try:
            table = run_size_experiment(spec, threads=args.threads)
        except (MemoryError, OverflowError, ValueError) as exc:  # sizes no array or float holds
            raise PairClusterError(f"G={g}, P={args.P}, n={args.n} is too large: {exc}") from None
        tables.append(table)
        cells.extend(table.cells)

    merged = SizeTable(
        cells=cells,
        level=args.level,
        seed=args.seed,
        design=tables[0].design if len(tables) == 1 else f"stratified scan G={g_values}",
    )
    csv_text = merged.to_csv_text()
    sys.stdout.write(csv_text)
    if args.csv_out:
        _write(args.csv_out, csv_text)
    if args.json_out:
        _write(args.json_out, json.dumps(merged.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PairClusterError, OSError) as exc:  # OSError: e.g. a worker that cannot be forked
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:  # whose message is empty
        print("error: memory ran out", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
