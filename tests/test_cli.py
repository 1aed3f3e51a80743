import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from binperiod import cli, simulate, theory
from binperiod.cli import _build_parser, main, run_test
from binperiod.nulldist import critical_value, p_value
from binperiod.rng import substream
from binperiod.series import BinarySeries, read_series, write_series
from binperiod.simulate import (
    ScenarioSpec,
    build_profile,
    estimate_power,
    iter_table,
    read_scenario,
    simulate_series,
)
from binperiod.theory import PeriodicProfile, detectability


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def constant_series_file(tmp_path):
    path = tmp_path / "constant.txt"
    write_series(path, BinarySeries(np.ones(120, dtype=int)))
    return path


@pytest.fixture
def sine_series_file(tmp_path):
    # strongly periodic fixture: sine profile with r=4, which the test
    # detects with probability near one at n=1200, d=60
    spec = ScenarioSpec(kind="SINE", r=4, n=1200, d=60)
    series = simulate_series(build_profile(spec), 1200, substream(2024, 0))
    path = tmp_path / "sine.txt"
    write_series(path, series)
    return path


def test_pvalue_nan_is_a_clean_error(capsys):
    code, out, err = run_cli(capsys, "pvalue", "29", "nan")
    assert code == 2
    assert out == ""
    assert "error: statistic is NaN" in err


def test_critval_command(capsys):
    code, out, _ = run_cli(capsys, "critval", "29", "0.05")
    assert code == 0
    assert "approx 0.2033" in out
    assert "exact 0.2032" in out


def test_critval_csv(capsys):
    code, out, _ = run_cli(capsys, "critval", "29", "0.05", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "q,alpha,exact,approx"
    fields = row.split(",")
    assert fields[0] == "29"
    assert float(fields[3]) == pytest.approx(0.2033, abs=5e-4)


def test_critval_at_a_level_below_the_float_range_of_alpha_over_q(capsys):
    code, out, err = run_cli(capsys, "critval", "10000", "1e-320")
    assert (code, err) == (0, "")
    assert "approx 0.0719, exact 0.0719" in out


def test_pvalue_command(capsys):
    code, out, _ = run_cli(capsys, "pvalue", "2", "0.75")
    assert code == 0
    assert "exact 0.5000" in out


def test_test_command_constant_series(capsys, constant_series_file):
    code, out, _ = run_cli(capsys, "test", str(constant_series_file), "--d", "12")
    assert code == 0
    assert "degenerate: yes" in out
    assert "p-value: approx 1.0000, exact 1.0000" in out
    assert "decision (approx convention): accept" in out


def test_test_command_reports_fold_geometry(capsys, sine_series_file):
    code, out, _ = run_cli(
        capsys, "test", str(sine_series_file), "--d", "60", "--alpha", "0.05"
    )
    assert code == 0
    assert "q=29" in out
    assert "approx 0.2033" in out
    assert "decision (approx convention): reject" in out


def test_test_command_is_bit_identical(capsys, sine_series_file):
    _, first, _ = run_cli(capsys, "test", str(sine_series_file), "--d", "60")
    _, second, _ = run_cli(capsys, "test", str(sine_series_file), "--d", "60")
    assert first == second


def test_test_command_csv(capsys, sine_series_file):
    code, out, _ = run_cli(
        capsys, "test", str(sine_series_file), "--d", "60", "--csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:6] == ["n", "d", "q", "blocks", "discarded", "statistic"]
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["n"] == "1200"
    assert fields["q"] == "29"
    assert fields["decision"] == "reject"


def test_full_precision_flag(capsys, sine_series_file):
    _, short, _ = run_cli(capsys, "test", str(sine_series_file), "--d", "60", "--csv")
    _, full, _ = run_cli(
        capsys, "test", str(sine_series_file), "--d", "60", "--csv", "--full-precision"
    )
    stat_short = short.strip().splitlines()[1].split(",")[5]
    stat_full = full.strip().splitlines()[1].split(",")[5]
    assert len(stat_full) > len(stat_short)
    assert float(stat_full) == pytest.approx(float(stat_short), abs=1e-4)


def test_round_trip_matches_direct_report(tmp_path):
    spec = ScenarioSpec(kind="ENDPOINTS", r=3, p_lo=0.4, p_hi=0.6, n=600, d=12)
    series = simulate_series(build_profile(spec), 600, substream(7, 0))
    path = tmp_path / "series.txt"
    write_series(path, series)
    direct = run_test(series, d=12, alpha=0.05)
    reread = run_test(read_series(path), d=12, alpha=0.05)
    assert direct == reread


def test_d3_fold_has_statistic_one_and_is_accepted():
    # d = 3 gives q = 1, where g is identically 1 on any non-constant fold.
    report = run_test(BinarySeries([0, 1, 1, 0, 1, 0]), d=3)
    assert (report.q, report.degenerate, report.statistic) == (1, False, 1.0)
    assert report.p_exact == report.p_approx == 1.0
    assert report.decision == report.decision_exact == "accept"


def test_theory_command(capsys, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# three-phase profile\n0.2 0.5 0.8\n")
    code, out, _ = run_cli(capsys, "theory", str(path), "--d", "6")
    assert code == 0
    assert "b=gcd(r,d)=3" in out
    assert "regime: CONSISTENT" in out
    assert "limit_g = 1.0000" in out
    assert "e in A: no" in out


def test_theory_command_shared_divisor_two(capsys, tmp_path):
    # b = gcd(4, 6) = 2: e is constant plus alternating, so in A
    path = tmp_path / "profile.txt"
    path.write_text("0.3 0.4 0.5 0.6\n")
    code, out, _ = run_cli(capsys, "theory", str(path), "--d", "6")
    assert code == 0
    assert "b=gcd(r,d)=2" in out
    assert "e in A: yes" in out


def test_theory_bad_profile_token_names_line_and_position(capsys, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# profile\n0.2 0.5\n0.8 abc\n")
    code, out, err = run_cli(capsys, "theory", str(path), "--d", "6")
    assert code == 2
    assert out == ""
    assert err == "error: not a number at position 4 (line 3: 'abc')\n"


def test_theory_comment_only_profile_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("# no values\n")
    code, out, err = run_cli(capsys, "theory", str(path), "--d", "6")
    assert code == 2
    assert out == ""
    assert err == "error: profile must be a non-empty vector\n"


def test_arith_step_scenario_out_of_range_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = arith_step\nr = 30\nstep = 0.1\nn = 1200\nd = 60\n")
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: ARITH_STEP[r=30 step=0.1 mean=0.5] has a probability outside [0,1]\n"


def test_theory_command_csv(capsys, tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text("0.2, 0.6\n")
    code, out, _ = run_cli(capsys, "theory", str(path), "--d", "6", "--csv")
    assert code == 0
    assert "regime,R2_LIMIT" in out
    assert "e_in_A,1" in out
    # six i,e,v rows follow the summary block
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 6


def test_simulate_command(capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nn = 120\nd = 12\nreplications = 100\nseed = 4\n")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("scenario,r,n,d,alpha")
    assert row.startswith("CONSTANT[p1=0.5],1,120,12,0.05,100,")


def test_simulate_command_random_iid(capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = random_iid\nn = 120\nd = 12\nreplications = 100\nseed = 4\n")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--csv")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("RANDOM_IID,0,120,12,0.05,100,")


def test_simulate_command_overrides(capsys, tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("kind = constant\np1 = 0.5\nn = 120\nd = 12\nreplications = 9999\n")
    code, out, _ = run_cli(capsys, "simulate", str(path), "--csv", "--reps", "50")
    assert code == 0
    assert ",50," in out.strip().splitlines()[1]


def test_table_command(capsys):
    code, out, _ = run_cli(capsys, "table", "T5", "--reps", "20", "--seed", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header + nine sine cells
    assert lines[1].startswith("SINE[r=2],2,1200,60,")


def test_missing_file_is_a_clean_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "test", str(tmp_path / "nope.txt"), "--d", "12")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("d", ["2", "0", "-1"])
def test_d_below_three_is_a_clean_error(capsys, tmp_path, d):
    path = tmp_path / "ok.txt"
    path.write_text("0 1 1 0 1 0\n")
    code, out, err = run_cli(capsys, "test", str(path), "--d", d)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "d too small (q would be 0)" in err


@pytest.mark.parametrize("command, value", [("pvalue", "0.5"), ("critval", "0.05")])
def test_q_beyond_the_float_range_is_a_clean_error(capsys, command, value):
    code, out, err = run_cli(capsys, command, "1" + "0" * 400, value)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert "q must be >= 1 and <= 9007199254740992" in err


@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 PiB"], ids=["bare", "numpy"])
def test_out_of_memory_is_one_clean_error_line(capsys, monkeypatch, tmp_path, message):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "detectability", exhausted)
    monkeypatch.setattr(cli, "estimate_power", exhausted)
    profile = tmp_path / "profile.txt"
    profile.write_text("0.2 0.5 0.8\n")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("kind = constant\np1 = 0.5\nn = 120\nd = 12\n")
    for argv in (["theory", str(profile), "--d", "6"], ["simulate", str(scenario)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message or 'out of memory'}"]


def test_bad_token_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "test", str(path), "--d", "3")
    assert code == 2
    assert "position 3" in err


# Reference output: each command's own printing code from before the commands
# shared one record and cell rule, kept as the oracle that main's stdout must
# match byte for byte. An oracle rather than a committed golden file, because
# full-precision FFT digits can differ between numpy builds.


def ref_fmt(x: float, full: bool) -> str:
    return repr(float(x)) if full else f"{x:.4f}"


REF_CSV_HEADER = "scenario,r,n,d,alpha,replications,rejections,rate,std_error"


def ref_estimate_csv_row(est, full_precision=False):
    spec = est.scenario
    return (
        f"{spec.label()},{spec.profile_period()},{spec.n},{spec.d},{spec.alpha:g},"
        f"{spec.replications},{est.rejections},{ref_fmt(est.rate, full_precision)},"
        f"{ref_fmt(est.std_error, full_precision)}"
    )


def ref_format_table_text(estimates, full_precision=False):
    lines = []
    width = max(len(e.scenario.label()) for e in estimates)
    for est in estimates:
        lines.append(
            f"{est.scenario.label():<{width}}  rate={ref_fmt(est.rate, full_precision)}"
            f"  se={ref_fmt(est.std_error, full_precision)}"
            f"  rejections={est.rejections}/{est.scenario.replications}"
        )
    return "\n".join(lines)


def ref_test(args):
    report = run_test(read_series(args.file), d=args.d, alpha=args.alpha)
    full = args.full_precision
    if args.csv:
        print(
            "n,d,q,blocks,discarded,statistic,degenerate,argmax_j,alpha,"
            "p_exact,p_approx,k_alpha_exact,k_alpha_approx,decision,decision_exact"
        )
        print(
            f"{report.n},{report.d},{report.q},{report.blocks},{report.discarded},"
            f"{ref_fmt(report.statistic, full)},{int(report.degenerate)},{report.argmax_j},"
            f"{report.alpha:g},{ref_fmt(report.p_exact, full)},{ref_fmt(report.p_approx, full)},"
            f"{ref_fmt(report.k_alpha_exact, full)},{ref_fmt(report.k_alpha_approx, full)},"
            f"{report.decision},{report.decision_exact}"
        )
        return 0
    print(f"series: n={report.n} (discarded {report.discarded} trailing observations)")
    print(f"fold:   d={report.d} blocks={report.blocks} q={report.q}")
    degen = "yes" if report.degenerate else "no"
    print(
        f"statistic f = {ref_fmt(report.statistic, full)}"
        f"  (argmax j = {report.argmax_j}, degenerate: {degen})"
    )
    print(
        f"critical value at alpha={report.alpha:g}:"
        f" approx {ref_fmt(report.k_alpha_approx, full)},"
        f" exact {ref_fmt(report.k_alpha_exact, full)}"
    )
    print(
        f"p-value: approx {ref_fmt(report.p_approx, full)},"
        f" exact {ref_fmt(report.p_exact, full)}"
    )
    print(
        f"decision (approx convention): {report.decision}"
        f"  [exact convention: {report.decision_exact}]"
    )
    return 0


def ref_critval(args):
    crit = critical_value(args.q, args.alpha)
    full = args.full_precision
    if args.csv:
        print("q,alpha,exact,approx")
        print(f"{crit.q},{crit.alpha:g},{ref_fmt(crit.exact, full)},{ref_fmt(crit.approx, full)}")
    else:
        print(
            f"critical value (q={crit.q}, alpha={crit.alpha:g}):"
            f" approx {ref_fmt(crit.approx, full)}, exact {ref_fmt(crit.exact, full)}"
        )
    return 0


def ref_pvalue(args):
    exact = p_value(args.q, args.x, "exact")
    approx = p_value(args.q, args.x, "approx")
    full = args.full_precision
    if args.csv:
        print("q,x,p_exact,p_approx")
        print(f"{args.q},{args.x:g},{ref_fmt(exact, full)},{ref_fmt(approx, full)}")
    else:
        print(
            f"p-value (q={args.q}, x={args.x:g}):"
            f" approx {ref_fmt(approx, full)}, exact {ref_fmt(exact, full)}"
        )
    return 0


def ref_read_profile(path):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.lstrip().startswith("#"):
                values.extend(float(tok) for tok in line.replace(",", " ").split())
    return PeriodicProfile(np.array(values))


def ref_theory(args):
    profile = ref_read_profile(args.file)
    summary = detectability(profile, args.d)
    regime = summary.regime
    full = args.full_precision
    ds = summary.detect_sum
    ds_text = (
        f"{ref_fmt(ds.real, full)}{'+' if ds.imag >= 0 else '-'}{ref_fmt(abs(ds.imag), full)}i"
    )
    limit_text = "" if summary.limit_g is None else ref_fmt(summary.limit_g, full)
    if args.csv:
        print("field,value")
        print(f"r,{profile.r}")
        print(f"d,{args.d}")
        print(f"b,{summary.b}")
        print(f"e_in_A,{int(summary.e_in_A)}")
        print(f"detect_sum_re,{ref_fmt(ds.real, full)}")
        print(f"detect_sum_im,{ref_fmt(ds.imag, full)}")
        print(f"detect_nonzero,{int(summary.detect_nonzero)}")
        print(f"limit_g,{limit_text}")
        print(f"regime,{regime.value}")
        print()
        print("i,e,v")
        for i in range(args.d):
            print(f"{i + 1},{ref_fmt(summary.e[i], full)},{ref_fmt(summary.v[i], full)}")
        return 0
    print(f"profile: r={profile.r}   fold: d={args.d}   b=gcd(r,d)={summary.b}")
    print(f"{'i':>4} {'e_i':>12} {'v_i':>12}")
    for i in range(args.d):
        print(f"{i + 1:>4} {ref_fmt(summary.e[i], full):>12} {ref_fmt(summary.v[i], full):>12}")
    print(f"e in A: {'yes' if summary.e_in_A else 'no'}")
    qualifier = "" if summary.detect_nonzero else "  (numerically zero: inconclusive)"
    print(f"detect_sum = {ds_text}{qualifier}")
    if summary.limit_g is not None:
        print(f"limit_g = {limit_text}")
    print(f"regime: {regime.value}")
    return 0


def ref_simulate(args):
    changes = dict(replications=args.reps, seed=args.seed)
    changes = {k: v for k, v in changes.items() if v is not None}
    spec = replace(read_scenario(args.file), **changes)
    est = estimate_power(spec)
    if args.csv:
        print(REF_CSV_HEADER)
        print(ref_estimate_csv_row(est, args.full_precision))
    else:
        print(ref_format_table_text([est], args.full_precision))
        print(f"elapsed: {est.elapsed:.2f}s")
    return 0


def ref_table(args):
    if args.csv:
        print(REF_CSV_HEADER)
        for est in iter_table(args.table, args.reps, args.seed):
            print(ref_estimate_csv_row(est, args.full_precision), flush=True)
    else:
        for est in iter_table(args.table, args.reps, args.seed):
            print(ref_format_table_text([est], args.full_precision), flush=True)
    return 0


REFERENCE = {
    "test": ref_test,
    "critval": ref_critval,
    "pvalue": ref_pvalue,
    "theory": ref_theory,
    "simulate": ref_simulate,
    "table": ref_table,
}


def reference_main(argv):
    args = _build_parser().parse_args(argv)
    try:
        return REFERENCE[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


OUTPUT_CASES = {
    "test": ["test", "{sine}", "--d", "60"],
    "test-discarded": ["test", "{sine}", "--d", "7", "--alpha", "0.001"],
    "test-degenerate": ["test", "{constant}", "--d", "12"],
    "test-missing-file": ["test", "{dir}/nope.txt", "--d", "12"],
    "critval": ["critval", "29", "0.05"],
    "critval-q1": ["critval", "1", "0.5"],
    "pvalue": ["pvalue", "29", "0.15"],
    "pvalue-small-x": ["pvalue", "2", "1e-05"],
    "pvalue-nan": ["pvalue", "29", "nan"],
    # b = 3 with a limit; b = 2 (e in A); b = 3 with constant e, so limit_g is
    # None and the detection sum is numerically zero; b = 2 with R2_LIMIT
    "theory-b3": ["theory", "{three}", "--d", "6"],
    "theory-b2": ["theory", "{four}", "--d", "6"],
    "theory-no-limit": ["theory", "{six}", "--d", "9"],
    "theory-r2": ["theory", "{two}", "--d", "6"],
    "simulate": ["simulate", "{scenario}"],
    "simulate-overrides": ["simulate", "{scenario}", "--reps", "50", "--seed", "3"],
    "table": ["table", "T5", "--reps", "40", "--seed", "1"],
    "table-pi": ["table", "PI", "--reps", "200", "--seed", "1"],
}

FLAG_SETS = {
    "plain": [],
    "csv": ["--csv"],
    "full": ["--full-precision"],
    "csv-full": ["--csv", "--full-precision"],
}


@pytest.fixture
def cli_inputs(tmp_path, constant_series_file, sine_series_file):
    profiles = {
        "three": "# three-phase profile\n0.2 0.5 0.8\n",
        "four": "0.3 0.4 0.5 0.6\n",
        "six": "0.2 0.5 0.8\n0.8 0.5 0.2\n",
        "two": "0.2, 0.6\n",
    }
    paths = {
        "dir": str(tmp_path),
        "constant": str(constant_series_file),
        "sine": str(sine_series_file),
    }
    for name, text in profiles.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "kind = arith_step\nr = 5\nstep = 0.05\nn = 240\nd = 12\n"
        "alpha = 0.1\nreplications = 300\nseed = 4\n"
    )
    paths["scenario"] = str(scenario)
    return paths


def without_elapsed(out: str) -> str:
    return "".join(line for line in out.splitlines(True) if not line.startswith("elapsed:"))


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS)
@pytest.mark.parametrize("argv", OUTPUT_CASES.values(), ids=OUTPUT_CASES)
def test_every_command_prints_reference_output(capsys, cli_inputs, argv, flags):
    argv = [arg.format(**cli_inputs) for arg in argv] + flags
    with warnings.catch_warnings():
        # the pi digits include 0, so the PI profile warns that it touches 0
        warnings.simplefilter("ignore", UserWarning)
        code = main(argv)
        out = capsys.readouterr()
        ref_code = reference_main(argv)
        ref = capsys.readouterr()
    assert code == ref_code
    assert without_elapsed(out.out) == without_elapsed(ref.out)
    assert out.err == ref.err


def test_theory_command_runs_detectability_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(*args):
        calls.append(args)
        return detectability(*args)

    monkeypatch.setattr(theory, "detectability", counted)
    monkeypatch.setattr(cli, "detectability", counted)
    path = tmp_path / "profile.txt"
    path.write_text("0.2 0.5 0.8\n")
    code, out, _ = run_cli(capsys, "theory", str(path), "--d", "6")
    assert code == 0
    assert "regime: CONSISTENT" in out
    assert len(calls) == 1


def test_ten_million_observations_near_balance_are_not_degenerate():
    # Fold counts 10^6 + (3, 1, -2, -2, 1) at d = 5: the block means differ
    # by about 1e-6, so the fold's ordinates are about 1e-12 of its energy.
    counts = 10**6 + np.array([3, 1, -2, -2, 1])
    values = (np.arange(2 * 10**6)[:, None] < counts).astype(np.int8)
    report = run_test(BinarySeries(values.ravel()), 5)
    assert not report.degenerate
    assert report.statistic == pytest.approx(0.9995471, abs=1e-7)
    assert report.p_exact == pytest.approx(9.06e-4, rel=1e-3)
    assert report.decision == report.decision_exact == "reject"


@pytest.mark.parametrize("profile", ["0.5 0.5000001 0.5", "1e-8 2e-8 3e-8", "1e-200 2e-200 3e-200"])
def test_theory_near_constant_and_tiny_profiles(capsys, tmp_path, profile):
    path = tmp_path / "profile.txt"
    path.write_text(profile + "\n")
    code, out, err = run_cli(capsys, "theory", str(path), "--d", "6")
    assert (code, err) == (0, "")
    assert "limit_g = 1.0000\nregime: CONSISTENT\n" in out


@pytest.mark.parametrize(
    "lines, argv, key",
    [
        (["n = 1" + "0" * 400, "replications = 10"], (), "n"),
        (["n = 60", "replications = 1" + "0" * 400], (), "replications"),
        (["n = 60"], ("--reps", "1" + "0" * 400), "replications"),
        (["n = 60"], ("--reps", str(2**64 + 1)), "replications"),
    ],
    ids=["file-n", "file-reps", "reps=10^400", "reps=2^64+1"],
)
def test_simulate_refuses_values_beyond_the_index_range(capsys, monkeypatch, tmp_path, lines, argv, key):
    monkeypatch.setattr(cli, "estimate_power", lambda spec: pytest.fail("ran a refused scenario"))
    path = tmp_path / "scenario.txt"
    path.write_text("\n".join(["kind = constant", "p1 = 0.5", "d = 6", *lines]) + "\n")
    code, out, err = run_cli(capsys, "simulate", str(path), *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert f"{key} must be >= 1 and <= " in err


@pytest.mark.parametrize("reps", ["1" + "0" * 400, str(2**64 + 1)], ids=["10^400", "2^64+1"])
def test_table_refuses_replications_beyond_the_index_range(capsys, monkeypatch, reps):
    monkeypatch.setattr(simulate, "estimate_power", lambda spec: pytest.fail("ran a refused cell"))
    code, out, err = run_cli(capsys, "table", "T1", "--reps", reps)
    assert (code, out) == (2, "")
    assert err == "error: replications must be >= 1 and <= 18446744073709551616\n"
