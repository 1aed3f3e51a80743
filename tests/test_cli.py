import numpy as np
import pytest

from binperiod.cli import main, run_test
from binperiod.rng import substream
from binperiod.series import BinarySeries, read_series, write_series
from binperiod.simulate import ScenarioSpec, build_profile, simulate_series


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


def test_bad_token_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    code, _, err = run_cli(capsys, "test", str(path), "--d", "3")
    assert code == 2
    assert "position 3" in err
