"""Command line front end: run the test, query the null law, theory, tables."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .nulldist import critical_value, p_value
from .series import BinarySeries, _read_tokens, fold, read_series
from .simulate import (
    TABLE_IDS,
    PowerEstimate,
    estimate_power,
    iter_table,
    read_scenario,
)
from .spectral import fisher_g, num_frequencies
from .theory import PeriodicProfile, detectability

__all__ = ["TestReport", "run_test"]


@dataclass(frozen=True)
class TestReport:
    """Everything the ``test`` subcommand reports for one series and d."""

    n: int
    d: int
    q: int
    blocks: int
    discarded: int
    statistic: float
    degenerate: bool
    argmax_j: int
    alpha: float
    p_exact: float
    p_approx: float
    k_alpha_exact: float
    k_alpha_approx: float
    decision: str
    decision_exact: str


def run_test(series: BinarySeries, d: int, alpha: float = 0.05) -> TestReport:
    """Fold, compute the guarded statistic, and decide at level alpha.

    ``decision`` compares against the one-term approximate critical value
    (the convention of the shipped simulation tables); ``decision_exact``
    compares against the exact tail inversion. Both are reported.
    """
    folded = fold(series, d)
    stat = fisher_g(folded.z)
    q = num_frequencies(folded.d)
    crit = critical_value(q, alpha)
    return TestReport(
        n=folded.n,
        d=folded.d,
        q=q,
        blocks=folded.blocks,
        discarded=folded.discarded,
        statistic=stat.value,
        degenerate=stat.degenerate,
        argmax_j=stat.argmax_j,
        alpha=alpha,
        p_exact=p_value(q, stat, "exact"),
        p_approx=p_value(q, stat, "approx"),
        k_alpha_exact=crit.exact,
        k_alpha_approx=crit.approx,
        decision="reject" if stat.value > crit.approx else "accept",
        decision_exact="reject" if stat.value > crit.exact else "accept",
    )


def _cell(key: str, value, args) -> str:
    """The one cell rule of every command.

    A flag prints as 0/1 in CSV and no/yes in text, the echoed inputs
    ``alpha`` and ``x`` print as given (``:g``), other floats print with 4
    decimals (``repr`` under ``--full-precision``) and None as an empty cell.
    """
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value)) if args.csv else ("yes" if value else "no")
    if key in ("alpha", "x"):
        return f"{value:g}"
    if isinstance(value, float):
        return repr(float(value)) if args.full_precision else f"{value:.4f}"
    return str(value)


def _print_records(records, template: str, args) -> None:
    """Print records, dicts whose key order is the column order: in CSV the
    first record's keys as the header and one row of cells per record, in
    text ``template`` filled with each record's cells."""
    for i, record in enumerate(records):
        cells = {key: _cell(key, value, args) for key, value in record.items()}
        if args.csv and i == 0:
            print(",".join(cells))
        print(",".join(cells.values()) if args.csv else template.format(**cells), flush=True)


_TEST_TEXT = (
    "series: n={n} (discarded {discarded} trailing observations)\n"
    "fold:   d={d} blocks={blocks} q={q}\n"
    "statistic f = {statistic}  (argmax j = {argmax_j}, degenerate: {degenerate})\n"
    "critical value at alpha={alpha}: approx {k_alpha_approx}, exact {k_alpha_exact}\n"
    "p-value: approx {p_approx}, exact {p_exact}\n"
    "decision (approx convention): {decision}  [exact convention: {decision_exact}]"
)


def _cmd_test(args) -> None:
    report = run_test(read_series(args.file), d=args.d, alpha=args.alpha)
    _print_records([asdict(report)], _TEST_TEXT, args)


def _cmd_critval(args) -> None:
    template = "critical value (q={q}, alpha={alpha}): approx {approx}, exact {exact}"
    _print_records([asdict(critical_value(args.q, args.alpha))], template, args)


def _cmd_pvalue(args) -> None:
    record = {
        "q": args.q,
        "x": args.x,
        "p_exact": p_value(args.q, args.x, "exact"),
        "p_approx": p_value(args.q, args.x, "approx"),
    }
    _print_records([record], "p-value (q={q}, x={x}): approx {p_approx}, exact {p_exact}", args)


def _cmd_theory(args) -> None:
    profile = PeriodicProfile(np.array(_read_tokens(args.file, float, "not a number")))
    summary = detectability(profile, args.d)
    ds = summary.detect_sum
    record = {
        "r": profile.r,
        "d": args.d,
        "b": summary.b,
        "e_in_A": summary.e_in_A,
        "detect_sum_re": ds.real,
        "detect_sum_im": ds.imag,
        "detect_nonzero": summary.detect_nonzero,
        "limit_g": summary.limit_g,
        "regime": summary.regime.value,
    }
    rows = ({"i": i + 1, "e": e, "v": v} for i, (e, v) in enumerate(zip(summary.e, summary.v)))
    if args.csv:
        _print_records(({"field": key, "value": value} for key, value in record.items()), "", args)
        print()
        _print_records(rows, "", args)
        return
    cells = {key: _cell(key, value, args) for key, value in record.items()}
    print("profile: r={r}   fold: d={d}   b=gcd(r,d)={b}".format(**cells))
    print(f"{'i':>4} {'e_i':>12} {'v_i':>12}")
    _print_records(rows, "{i:>4} {e:>12} {v:>12}", args)
    print("e in A: {e_in_A}".format(**cells))
    # The sign is that of ds.imag, so -0.0 prints as +0.
    im_text = ("+" if ds.imag >= 0 else "-") + cells["detect_sum_im"].lstrip("-")
    qualifier = "" if summary.detect_nonzero else "  (numerically zero: inconclusive)"
    print(f"detect_sum = {cells['detect_sum_re']}{im_text}i{qualifier}")
    if summary.limit_g is not None:
        print("limit_g = {limit_g}".format(**cells))
    print("regime: {regime}".format(**cells))


def _estimate_record(est: PowerEstimate) -> dict:
    spec = est.scenario
    return {
        "scenario": spec.label(),
        "r": spec.profile_period(),
        "n": spec.n,
        "d": spec.d,
        "alpha": spec.alpha,
        "replications": spec.replications,
        "rejections": est.rejections,
        "rate": est.rate,
        "std_error": est.std_error,
    }


_ESTIMATE_TEXT = "{scenario}  rate={rate}  se={std_error}  rejections={rejections}/{replications}"


def _cmd_simulate(args) -> None:
    changes = {"replications": args.reps, "seed": args.seed}
    spec = replace(read_scenario(args.file), **{k: v for k, v in changes.items() if v is not None})
    est = estimate_power(spec)
    _print_records([_estimate_record(est)], _ESTIMATE_TEXT, args)
    if not args.csv:
        print(f"elapsed: {est.elapsed:.2f}s")


def _cmd_table(args) -> None:
    estimates = iter_table(args.table, args.reps, args.seed)
    _print_records(map(_estimate_record, estimates), _ESTIMATE_TEXT, args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binperiod",
        description=(
            "Test binary 0/1 series for an unspecified periodicity by folding"
            " into d block means and applying the spectral max-over-sum test."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--csv", action="store_true", help="machine-readable CSV output")
        p.add_argument(
            "--full-precision",
            action="store_true",
            help="print full float precision instead of 4 decimals",
        )

    p = sub.add_parser("test", help="run the periodicity test on a series file")
    p.add_argument("file", help="series file: 0/1 tokens, '#' comment lines")
    p.add_argument("--d", type=int, required=True, help="fold length (>= 3)")
    p.add_argument("--alpha", type=float, default=0.05, help="test level")
    add_common(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("critval", help="critical values for given q and alpha")
    p.add_argument("q", type=int)
    p.add_argument("alpha", type=float)
    add_common(p)
    p.set_defaults(func=_cmd_critval)

    p = sub.add_parser("pvalue", help="p-values for an observed statistic")
    p.add_argument("q", type=int)
    p.add_argument("x", type=float)
    add_common(p)
    p.set_defaults(func=_cmd_pvalue)

    p = sub.add_parser("theory", help="limit summary for a profile file")
    p.add_argument("file", help="profile file: probabilities in [0,1]")
    p.add_argument("--d", type=int, required=True, help="fold length (>= 3)")
    add_common(p)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("simulate", help="estimate power for a scenario file")
    p.add_argument("file", help="flat key-value scenario file")
    p.add_argument("--reps", type=int, default=None, help="override replications")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table", help="reproduce one of the shipped tables")
    p.add_argument("table", choices=TABLE_IDS)
    p.add_argument("--reps", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation; a bare one has no text
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0
