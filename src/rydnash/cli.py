"""Command-line pipeline: ``validate``, ``classical``, ``anneal``,
``compare``, and ``all``.

Exit codes are a stable contract for CI: 0 when every verdict passes, 2 on
a verdict failure (constraint violations, equilibrium/set mismatch, missing
optima in the readout), and 1 on execution errors such as unreadable
configuration files, an output directory that cannot be written or
incompatible runs.

Each command has an output set: the files it can write, plus every file
derived from them (the compare report, from the classical and anneal
reports). A command that writes any file removes the files of its set that
it did not rewrite, so no earlier run's output is left beside its own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

from .errors import RydnashError
from .fileio import (
    load,
    load_game,
    load_graph,
    load_schedule,
    to_mapping,
    write_histogram_csv,
    write_report,
    write_schedule_series,
)
from .pipeline import (
    ClassicalResult,
    QuantumResult,
    RunConfig,
    ValidationReport,
    compare,
    run_classical,
    run_quantum,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2

OUTDIR_ENV = "RYDNASH_OUT"
DEFAULT_OUTDIR = "rydnash_out"

CLASSICAL_REPORT = "classical_report.yaml"
ANNEAL_REPORT = "anneal_report.yaml"
COMPARE_REPORT = "compare_report.yaml"
VALIDATION_REPORT = "validation_report.yaml"
HISTOGRAM_CSV = "histogram.csv"
SCHEDULE_SERIES_CSV = "schedule_series.csv"

_ANNEAL_OUTPUTS = (VALIDATION_REPORT, ANNEAL_REPORT, HISTOGRAM_CSV, SCHEDULE_SERIES_CSV, COMPARE_REPORT)
#: Each command's output set, by command name.
OUTPUT_SETS = {
    "validate": (VALIDATION_REPORT,),
    "classical": (CLASSICAL_REPORT, COMPARE_REPORT),
    "anneal": _ANNEAL_OUTPUTS,
    "compare": (COMPARE_REPORT,),
    "all": (CLASSICAL_REPORT, *_ANNEAL_OUTPUTS),
}


class _Outputs:
    """One command's writes into its output directory. On leaving the
    ``with`` block, once anything was written, the files of the command's
    output set that it did not write are removed."""

    def __init__(self, outdir: str, names: tuple[str, ...]):
        self.outdir = outdir
        self.names = names
        self.written = set()

    def write(self, name: str, writer, data) -> str:
        path = os.path.join(self.outdir, name)
        writer(path, data)
        self.written.add(name)
        return path

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.written:
            for name in set(self.names) - self.written:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.outdir, name))


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        dest="outdir",
        metavar="OUT",
        default=os.environ.get(OUTDIR_ENV, DEFAULT_OUTDIR),
        help=f"output directory (default ${OUTDIR_ENV} or {DEFAULT_OUTDIR})",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", required=True, help="graph file (YAML: nodes, radius)")
    _add_out(p)


def _add_game(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", help="game parameter file (YAML: e_star, cost, benefit)")


def _add_drive(p: argparse.ArgumentParser) -> None:
    p.add_argument("--schedule", help="schedule file (YAML: omega, delta, duration); default: reference ramp")
    p.add_argument("--coupling-c", dest="c6", metavar="COUPLING_C", type=float,
                   help="van der Waals coefficient, rad/us*um^6 (default: final detuning * radius^6)")


def _add_quantum(p: argparse.ArgumentParser) -> None:
    _add_drive(p)
    p.add_argument("--shots", type=int, help="measurement shots")
    p.add_argument("--seed", type=int, help="sampling seed")
    p.add_argument(
        "--plot-data", action="store_true", default=False, help="also emit a ready-to-plot schedule series CSV"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydnash",
        description="Equilibria of a networked public-goods game, classically enumerated "
        "and cross-checked against a simulated Rydberg-array anneal.",
    )
    # An option left out stays out of the namespace, so RunConfig's default applies.
    subparser = functools.partial(argparse.ArgumentParser, argument_default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=subparser)

    p = sub.add_parser("validate", help="check a layout (and schedule) against hardware limits")
    _add_common(p)
    _add_drive(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classical", help="enumerate Nash equilibria and independent sets")
    _add_common(p)
    _add_game(p)
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("anneal", help="simulate the annealing run and classify the readout")
    _add_common(p)
    _add_quantum(p)
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("compare", help="cross-check persisted classical and annealing reports")
    _add_out(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("all", help="classical + anneal + compare in one run")
    _add_common(p)
    _add_game(p)
    _add_quantum(p)
    p.set_defaults(func=cmd_all)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Option dests are RunConfig field names, apart from the outputs'
    ``outdir`` and ``plot_data``; game, schedule and graph are paths."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func", "outdir", "plot_data")}
    for name, load in (("game", load_game), ("schedule", load_schedule), ("graph", load_graph)):
        if name in options:
            options[name] = load(options[name])
    return RunConfig(**options)


def _validate(config: RunConfig) -> ValidationReport:
    """``config.validation``, and one stderr line when the window is empty or
    C6 is outside it."""
    report = config.validation
    lo, hi = report.window
    if lo >= hi:
        print("warning: no C6 makes the maximum independent sets the lowest drive-off states", file=sys.stderr)
    elif not lo < report.c6 < hi:
        print(f"warning: C6 {report.c6:.4g} is outside the drive-off window ({lo:.4g}, {hi:.4g}) "
              "where the maximum independent sets have the lowest energies", file=sys.stderr)
    return report


def cmd_validate(args: argparse.Namespace, out: _Outputs) -> int:
    config = _config_from_args(args)
    report = _validate(config)
    path = out.write(VALIDATION_REPORT, write_report, to_mapping(report))
    print(f"validation {'ok' if report.ok else 'FAILED'}: {path}")
    return EXIT_OK if report.ok else EXIT_VERDICT


def cmd_classical(args: argparse.Namespace, out: _Outputs) -> int:
    config = _config_from_args(args)
    result = run_classical(config)
    path = out.write(CLASSICAL_REPORT, write_report, to_mapping(result))
    print(
        f"classical: {len(result.nash)} equilibria, {len(result.maximal_sets)} maximal sets, "
        f"{len(result.maximum_sets)} maximum sets; match={result.nash_equals_mis}: {path}"
    )
    return EXIT_OK if result.nash_equals_mis else EXIT_VERDICT


def _run_anneal(config: RunConfig, out: _Outputs, plot_data: bool):
    """Shared by anneal/all: returns (result, exit_code); writes reports."""
    report = _validate(config)
    if not report.ok:
        path = out.write(VALIDATION_REPORT, write_report, to_mapping(report))
        print(f"anneal refused, hardware validation failed: {path}", file=sys.stderr)
        return None, EXIT_VERDICT
    result = run_quantum(config)
    out.write(ANNEAL_REPORT, write_report, to_mapping(result))
    out.write(HISTOGRAM_CSV, write_histogram_csv, result.rows)
    if plot_data:
        out.write(SCHEDULE_SERIES_CSV, write_schedule_series, config.schedule)
    print(
        f"anneal: {result.shots} shots, top readout {result.top_k[0] if result.top_k else '-'}, "
        f"optima in top-{len(result.maximum_sets)}: {result.mis_in_topk}"
    )
    return result, EXIT_OK if result.mis_in_topk else EXIT_VERDICT


def cmd_anneal(args: argparse.Namespace, out: _Outputs) -> int:
    _, code = _run_anneal(_config_from_args(args), out, args.plot_data)
    return code


def _compare(command: str, out: _Outputs, classical: ClassicalResult, quantum: QuantumResult) -> int:
    """Shared by compare/all: writes the compare report; returns the exit code."""
    report = compare(classical, quantum)
    path = out.write(COMPARE_REPORT, write_report, to_mapping(report))
    print(f"{command}: overall {'PASS' if report.verdicts.overall_pass else 'FAIL'}: {path}")
    return EXIT_OK if report.verdicts.overall_pass else EXIT_VERDICT


def cmd_compare(args: argparse.Namespace, out: _Outputs) -> int:
    classical = load(os.path.join(out.outdir, CLASSICAL_REPORT), ClassicalResult)
    quantum = load(os.path.join(out.outdir, ANNEAL_REPORT), QuantumResult)
    return _compare("compare", out, classical, quantum)


def cmd_all(args: argparse.Namespace, out: _Outputs) -> int:
    config = _config_from_args(args)
    config.system  # a C6 that cannot be derived is refused before the sweeps
    classical = run_classical(config)
    out.write(CLASSICAL_REPORT, write_report, to_mapping(classical))
    quantum, code = _run_anneal(config, out, args.plot_data)
    return code if quantum is None else _compare("all", out, classical, quantum)


@functools.lru_cache(maxsize=1)
def _parser(default_outdir: str) -> argparse.ArgumentParser:
    """``build_parser()``, built once per default output directory: a
    process that calls :func:`main` repeatedly builds it once, and a new
    ``$RYDNASH_OUT`` builds a new one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(os.environ.get(OUTDIR_ENV, DEFAULT_OUTDIR)).parse_args(argv)
    try:
        with _Outputs(args.outdir, OUTPUT_SETS[args.command]) as out:
            return args.func(args, out)
    except (RydnashError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
