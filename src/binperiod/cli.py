"""Command line front end: run the test, query the null law, theory, tables."""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .nulldist import critical_value, p_value
from .series import BinarySeries, _line_tokens, fold, read_series
from .simulate import (
    CSV_HEADER,
    TABLE_IDS,
    _fmt,
    estimate_csv_row,
    estimate_power,
    format_table_text,
    iter_table,
    override_scenario,
    read_scenario,
)
from .spectral import fisher_g, num_frequencies
from .theory import PeriodicProfile, detectability, predict_power_regime

__all__ = ["TestReport", "main", "run_test"]


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
    q = num_frequencies(d)
    crit = critical_value(q, alpha)
    return TestReport(
        n=folded.n,
        d=d,
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


def _cmd_test(args) -> int:
    report = run_test(read_series(args.file), d=args.d, alpha=args.alpha)
    full = args.full_precision
    if args.csv:
        print(
            "n,d,q,blocks,discarded,statistic,degenerate,argmax_j,alpha,"
            "p_exact,p_approx,k_alpha_exact,k_alpha_approx,decision,decision_exact"
        )
        print(
            f"{report.n},{report.d},{report.q},{report.blocks},{report.discarded},"
            f"{_fmt(report.statistic, full)},{int(report.degenerate)},{report.argmax_j},"
            f"{report.alpha:g},{_fmt(report.p_exact, full)},{_fmt(report.p_approx, full)},"
            f"{_fmt(report.k_alpha_exact, full)},{_fmt(report.k_alpha_approx, full)},"
            f"{report.decision},{report.decision_exact}"
        )
        return 0
    print(f"series: n={report.n} (discarded {report.discarded} trailing observations)")
    print(f"fold:   d={report.d} blocks={report.blocks} q={report.q}")
    degen = "yes" if report.degenerate else "no"
    print(
        f"statistic f = {_fmt(report.statistic, full)}"
        f"  (argmax j = {report.argmax_j}, degenerate: {degen})"
    )
    print(
        f"critical value at alpha={report.alpha:g}:"
        f" approx {_fmt(report.k_alpha_approx, full)},"
        f" exact {_fmt(report.k_alpha_exact, full)}"
    )
    print(
        f"p-value: approx {_fmt(report.p_approx, full)},"
        f" exact {_fmt(report.p_exact, full)}"
    )
    print(
        f"decision (approx convention): {report.decision}"
        f"  [exact convention: {report.decision_exact}]"
    )
    return 0


def _cmd_critval(args) -> int:
    crit = critical_value(args.q, args.alpha)
    full = args.full_precision
    if args.csv:
        print("q,alpha,exact,approx")
        print(f"{crit.q},{crit.alpha:g},{_fmt(crit.exact, full)},{_fmt(crit.approx, full)}")
    else:
        print(
            f"critical value (q={crit.q}, alpha={crit.alpha:g}):"
            f" approx {_fmt(crit.approx, full)}, exact {_fmt(crit.exact, full)}"
        )
    return 0


def _cmd_pvalue(args) -> int:
    exact = p_value(args.q, args.x, "exact")
    approx = p_value(args.q, args.x, "approx")
    full = args.full_precision
    if args.csv:
        print("q,x,p_exact,p_approx")
        print(f"{args.q},{args.x:g},{_fmt(exact, full)},{_fmt(approx, full)}")
    else:
        print(
            f"p-value (q={args.q}, x={args.x:g}):"
            f" approx {_fmt(approx, full)}, exact {_fmt(exact, full)}"
        )
    return 0


def _read_profile(path) -> PeriodicProfile:
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line_tokens in _line_tokens(fh):
            for tok in line_tokens:
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ValueError(
                        f"not a number at position {len(values) + 1}"
                        f" (line {lineno}: {tok!r})"
                    ) from None
    if not values:
        raise ValueError("empty profile")
    return PeriodicProfile(np.array(values))


def _cmd_theory(args) -> int:
    profile = _read_profile(args.file)
    summary = detectability(profile, args.d)
    regime = predict_power_regime(profile, args.d)
    full = args.full_precision
    ds = summary.detect_sum
    ds_text = f"{_fmt(ds.real, full)}{'+' if ds.imag >= 0 else '-'}{_fmt(abs(ds.imag), full)}i"
    limit_text = "" if summary.limit_g is None else _fmt(summary.limit_g, full)
    if args.csv:
        print("field,value")
        print(f"r,{profile.r}")
        print(f"d,{args.d}")
        print(f"b,{summary.b}")
        print(f"e_in_A,{int(summary.e_in_A)}")
        print(f"detect_sum_re,{_fmt(ds.real, full)}")
        print(f"detect_sum_im,{_fmt(ds.imag, full)}")
        print(f"detect_nonzero,{int(summary.detect_nonzero)}")
        print(f"limit_g,{limit_text}")
        print(f"regime,{regime.value}")
        print()
        print("i,e,v")
        for i in range(args.d):
            print(f"{i + 1},{_fmt(summary.e[i], full)},{_fmt(summary.v[i], full)}")
        return 0
    print(f"profile: r={profile.r}   fold: d={args.d}   b=gcd(r,d)={summary.b}")
    print(f"{'i':>4} {'e_i':>12} {'v_i':>12}")
    for i in range(args.d):
        print(f"{i + 1:>4} {_fmt(summary.e[i], full):>12} {_fmt(summary.v[i], full):>12}")
    print(f"e in A: {'yes' if summary.e_in_A else 'no'}")
    qualifier = "" if summary.detect_nonzero else "  (numerically zero: inconclusive)"
    print(f"detect_sum = {ds_text}{qualifier}")
    if summary.limit_g is not None:
        print(f"limit_g = {limit_text}")
    print(f"regime: {regime.value}")
    return 0


def _cmd_simulate(args) -> int:
    spec = override_scenario(
        read_scenario(args.file), replications=args.reps, seed=args.seed
    )
    est = estimate_power(spec)
    if args.csv:
        print(CSV_HEADER)
        print(estimate_csv_row(est, args.full_precision))
    else:
        print(format_table_text([est], args.full_precision))
        print(f"elapsed: {est.elapsed:.2f}s")
    return 0


def _cmd_table(args) -> int:
    if args.csv:
        print(CSV_HEADER)
        for est in iter_table(args.table, args.reps, args.seed):
            print(estimate_csv_row(est, args.full_precision), flush=True)
    else:
        for est in iter_table(args.table, args.reps, args.seed):
            print(format_table_text([est], args.full_precision), flush=True)
    return 0


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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
