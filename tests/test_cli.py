import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from alphacf import bmo_lab, cli
from alphacf.fastgrid import DEFAULT_GRID_TERMS, DEFAULT_GRID_TOL, wilton_grid
from alphacf.modular_series import fourier_Fk_partial


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_basic(capsys):
    code, out, _ = run(["expand", "--x", "2/5", "--alpha", "1/2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["digits"] == [[3, -1], [2, 1]]
    assert obj["terminated"] is True
    assert obj["x"] == "2/5"


def test_expand_normalizes_and_flags_reflection(capsys):
    code, out, _ = run(["expand", "--x", "7/10", "--alpha", "3/5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["x"] == "3/10"
    assert obj["reflected"] is True
    assert obj["input"] == "7/10"


def test_expand_malformed_input_exit2(capsys):
    code, _, err = run(["expand", "--x", "(0+1*sqrt(5))/2-x", "--alpha", "1"],
                       capsys)
    assert code == 2
    assert "--x" in err


def test_eval_wilton_finite(capsys):
    code, out, _ = run(["eval", "--fn", "wilton-finite", "--x", "2/5"], capsys)
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(0.639031859650177, abs=1e-12)


def test_eval_out_writes_the_file(tmp_path, capsys):
    argv = ["eval", "--fn", "wilton-finite", "--x", "2/5"]
    _, printed, _ = run(argv, capsys)
    out_file = tmp_path / "e.txt"
    code, out, _ = run(argv + ["--out", str(out_file)], capsys)
    assert code == 0
    assert out == ""
    assert out_file.read_text() == printed
    assert len(printed.splitlines()) == 5


def test_eval_fk_default_k_is_f2(capsys):
    # eval's --k defaults to 1, and --fn Fk sums F_max(k, 2)
    code, out, _ = run(["eval", "--fn", "Fk", "--x", "1/7", "--N", "50"],
                       capsys)
    assert code == 0
    want = fourier_Fk_partial(Fraction(1, 7), 2, 50).value
    assert out.splitlines()[0] == f"value {want}"


def test_eval_without_x_or_grid_exit2(capsys):
    code, _, err = run(["eval", "--fn", "brjuno"], capsys)
    assert code == 2
    assert "--x or --grid" in err


def test_eval_rational_series_exit3(capsys):
    code, _, err = run(["eval", "--fn", "brjuno", "--x", "2/5", "--alpha", "1"],
                       capsys)
    assert code == 3
    assert "finite" in err  # message points at the -finite variants


def test_eval_golden_brjuno(capsys):
    code, out, _ = run(["eval", "--fn", "brjuno", "--x", "(-1+1*sqrt(5))/2",
                        "--k", "1", "--alpha", "1"], capsys)
    assert code == 0
    value = float(out.splitlines()[0].split()[1])
    assert value == pytest.approx(1.2598289137944102, abs=1e-12)
    assert "rigorous true" in out
    assert "exhausted false" in out


def test_eval_float_uses_whole_certified_orbit(capsys):
    # 37 orbit points of this 64-bit input are certified, all of them used
    code, out, _ = run(["eval", "--fn", "brjuno", "--x", "0.3183098861837907",
                        "--precision", "64"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "n_terms 37" in lines
    assert lines[-1] == "exhausted true"


def test_eval_grid_csv(capsys):
    code, out, _ = run(["eval", "--fn", "wilton", "--alpha", "1",
                        "--grid", "0:1:8"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[:6] == ["x", "value", "n_terms",
                                       "tail_estimate", "rigorous_tail",
                                       "exhausted"]
    assert "precision_bits" in lines[0]
    assert len(lines) == 9


def test_eval_proxy_grid_reads_each_point_as_x_does(capsys):
    # a point cut to a rational of denominator <= 10^12 ends after about 26
    # digits, short of the default N = 40; the grid reads the decimal as a
    # ball, as --x does
    code, out, _ = run(["eval", "--fn", "proxy", "--grid", "0:1:4"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 4
    for row in rows:
        code, single, _ = run(["eval", "--fn", "proxy", "--x", row[0]], capsys)
        assert code == 0
        assert float(row[1]) == float(single.splitlines()[0].split()[1])
        assert row[2] == "40"


def test_verify_single_suite(capsys):
    code, out, _ = run(["verify", "--suite", "ladders"], capsys)
    assert code == 0
    assert "[AC7] ladders: PASS" in out


def test_verify_unknown_suite_exit2(capsys):
    code, _, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 2
    assert "nope" in err


def test_verify_report_deterministic(tmp_path, capsys):
    args = ["verify", "--suite", "modular", "--suite", "ladders",
            "--seed", "7"]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(args + ["--report", str(r1)]) == 0
    assert cli.main(args + ["--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_report_matches_stored_bytes(tmp_path, capsys):
    # exact integers and mpmath only (no libm, no numpy), so the bytes are
    # the same on every platform; a change to them must be deliberate
    stored = Path(__file__).parent / "data" / "verify_fast_report.json"
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "fixed-point", "--suite",
                     "functional-eq", "--suite", "orbit-compare", "--suite",
                     "ladders", "--fast", "--seed", "20260810", "--report",
                     str(report)]) == 0
    capsys.readouterr()
    assert report.read_bytes() == stored.read_bytes()


_SURD = "(3+1*sqrt(11))/19"
_DYADIC = "11400714819323198485/18446744073709551616"  # 0x9E3779B97F4A7C15/2^64


_STORED_RUNS = {
    "expand_surd_half.json": ["expand", "--x", _SURD, "--alpha", "1/2"],
    "expand_2_5_golden.json": ["expand", "--x", "2/5", "--alpha", "g"],
    "expand_39_100_golden.json": ["expand", "--x", "39/100", "--alpha", "g"],
    "eval_brjuno_surd.txt": ["eval", "--fn", "brjuno", "--x", _SURD,
                             "--alpha", "1/2"],
    "eval_wilton_surd.txt": ["eval", "--fn", "wilton", "--x", _SURD,
                             "--alpha", "1/2"],
    "eval_brjuno_finite_q.txt": ["eval", "--fn", "brjuno-finite", "--x",
                                 _DYADIC],
    "eval_wilton_finite_q.txt": ["eval", "--fn", "wilton-finite", "--x",
                                 _DYADIC],
    "compare_3_5_dump.jsonl": ["compare", "--alpha", "3/5", "--samples", "20",
                               "--dump"],
}


@pytest.mark.parametrize("stored", list(_STORED_RUNS))
def test_cli_outputs_match_stored_bytes(stored, tmp_path, capsys):
    # exact integers and mpmath only (no libm), so the bytes are the same on
    # every platform; the compare summary uses math.log, so only its JSONL
    # dump is pinned
    argv = _STORED_RUNS[stored]
    out = tmp_path / "out"
    flag = [] if argv[0] == "compare" else ["--out"]
    assert cli.main(argv + flag + [str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (Path(__file__).parent / "data" /
                                stored).read_bytes()


def test_scan_blowup_rows_match_stored_bytes(tmp_path, capsys):
    # full 100 000-point rows, which the --fast report does not cover; the
    # float64 grid reads numpy's log, so these bytes are pinned for one
    # platform's libm, unlike the exact runs above
    out = tmp_path / "out"
    assert cli.main(["scan", "--fn", "wilton", "--alpha", "1", "--blowup",
                     "16,1000", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (Path(__file__).parent / "data" /
                                "scan_blowup_16_1000.csv").read_bytes()


def test_verify_report_has_no_coverage_key(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "ladders", "--report",
                     str(report)]) == 0
    capsys.readouterr()
    assert set(json.loads(report.read_text())) == {"config", "criteria"}


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "alphacf", "verify", "--suite", "ladders"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "[AC7] ladders: PASS" in proc.stdout


def test_scan_blowup_csv(tmp_path, capsys):
    out_file = tmp_path / "blowup.csv"
    code, _, _ = run(["scan", "--fn", "wilton", "--alpha", "1",
                      "--blowup", "16,64", "--points", "3000",
                      "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("n,mean_plus,mean_minus,oscillation")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "16"


def test_scan_interval_json_no_verdict(capsys):
    code, out, _ = run(["scan", "--fn", "wilton", "--alpha", "9/10",
                        "--interval", "0:1", "--depth", "5",
                        "--leaf-samples", "8"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert "sup_estimate" in obj and "argmax" in obj
    assert "verdict" not in obj
    assert "evidence" in obj["note"]


def test_scan_blowup_pool_matches_serial_rows(tmp_path, capsys):
    # the rows run serially in n order, whatever order --blowup lists them
    # in: the CSV holds one serial call's rows
    out = tmp_path / "pool.csv"
    assert cli.main(["scan", "--fn", "wilton", "--alpha", "1", "--blowup",
                     "32,8,16", "--points", "2000", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = bmo_lab.wilton_blowup_experiment([8, 16, 32], points=2000,
                                            terms=DEFAULT_GRID_TERMS,
                                            tol=DEFAULT_GRID_TOL)
    want = ["n,mean_plus,mean_minus,oscillation,samples,quad_error,terms,tol"]
    want += [",".join([str(r.n), repr(r.mean_plus), repr(r.mean_minus),
                       repr(r.oscillation), str(r.samples), repr(r.quad_error),
                       str(r.terms), repr(r.tol)]) for r in rows]
    assert out.read_bytes() == ("\n".join(want) + "\n").encode()


def test_compare_summary_zero_violations(capsys):
    code, out, _ = run(["compare", "--alpha", "3/5", "--samples", "15",
                        "--depth", "25", "--seed", "5"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n_violations"] == 0
    assert obj["max_log_q_gap"] <= obj["log2_bound"]


def test_compare_alpha_above_g_exit3(capsys):
    code, _, err = run(["compare", "--alpha", "7/10", "--samples", "3",
                        "--depth", "10"], capsys)
    assert code == 3
    assert "OutOfRange" in err


def test_compare_depth_zero_exit3(capsys):
    code, _, err = run(["compare", "--alpha", "3/5", "--samples", "3",
                        "--depth", "0"], capsys)
    assert code == 3
    assert "N must be >= 1" in err


def test_compare_dump_traces(tmp_path, capsys):
    dump = tmp_path / "trace.jsonl"
    code, _, _ = run(["compare", "--alpha", "3/5", "--samples", "3",
                      "--depth", "10", "--dump", str(dump)], capsys)
    assert code == 0
    lines = dump.read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    assert {"j", "event", "q_half", "q_alpha"} <= set(rec)


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "ladders", "--precision", "128"],
    ["verify", "--suite", "ladders", "--out", "r.json"],
    ["compare", "--alpha", "3/5", "--samples", "3", "--tol", "1e-3"],
    ["scan", "--alpha", "1", "--blowup", "16", "--precision", "64"],
    ["expand", "--x", "2/5", "--alpha", "1", "--seed", "3"],
    ["eval", "--fn", "wilton-finite", "--x", "2/5", "--jobs", "2"],
    ["--seed", "3", "verify", "--suite", "ladders"],
    ["scan", "--alpha", "1", "--blowup", "16", "--jobs", "2"],
])
def test_option_the_command_does_not_read_exit2(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "unrecognized arguments" in err or "invalid choice" in err


@pytest.mark.parametrize("argv", [
    ["expand", "--x", "2/5", "--alpha", "1", "--precision", "63"],
    ["eval", "--fn", "wilton-finite", "--x", "2/5", "--precision", "63"],
    ["eval", "--fn", "wilton-finite", "--x", "2/5", "--terms", "0"],
    ["scan", "--alpha", "1", "--blowup", "16", "--terms", "0"],
    ["scan", "--fn", "brjuno", "--k", "0", "--alpha", "1", "--interval=0:1",
     "--depth", "2"],
    ["scan", "--fn", "brjuno", "--k", "-1", "--alpha", "1", "--interval=0:1",
     "--depth", "2"],
    ["scan", "--fn", "wilton", "--alpha", "1", "--interval=0:1", "--depth",
     "4", "--tol", "nan"],
    ["scan", "--fn", "wilton", "--alpha", "1", "--blowup", "16", "--points",
     "0"],
    ["scan", "--fn", "wilton", "--alpha", "1", "--blowup", "16", "--points",
     "29"],
    ["scan", "--fn", "wilton", "--alpha", "1", "--interval=0:1", "--depth",
     "3", "--leaf-samples", "-4"],
    ["eval", "--fn", "wilton", "--x", "(-1+1*sqrt(5))/2", "--tol", "nan"],
    ["eval", "--fn", "proxy", "--x", "(-1+1*sqrt(5))/2", "--k", "0"],
    ["eval", "--fn", "Fk", "--x", "1/3", "--k", "3"],
    ["eval", "--fn", "Fk", "--x", "1/3", "--N", "-1"],
])
def test_out_of_range_setting_exit3(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "OutOfDomain" in err


def _blowup_row(argv, capsys):
    code, out, _ = run(["scan", "--alpha", "1", "--blowup", "16",
                        "--points", "3000"] + argv, capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    return dict(zip(header.split(","), row.split(",")))


def test_scan_blowup_rows_carry_the_grid_settings(capsys):
    row = _blowup_row(["--terms", "5", "--tol", "1e-6"], capsys)
    assert (row["terms"], row["tol"]) == ("5", "1e-06")
    assert "precision_bits" not in row
    default = _blowup_row([], capsys)
    assert (default["terms"], default["tol"]) == (
        str(DEFAULT_GRID_TERMS), repr(DEFAULT_GRID_TOL))
    assert row["mean_plus"] != default["mean_plus"]  # the grid read them


def test_scan_interval_json_reports_the_grid_settings(capsys, monkeypatch):
    seen = []

    def spy(xs, **kw):
        seen.append((kw["terms"], kw["tol"]))
        return wilton_grid(xs, **kw)

    monkeypatch.setattr(cli, "wilton_grid", spy)
    code, out, _ = run(["scan", "--alpha", "1", "--interval", "0:1",
                        "--depth", "3", "--leaf-samples", "8"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert seen == [(obj["terms"], float(obj["tol"]))]
    assert seen == [(DEFAULT_GRID_TERMS, DEFAULT_GRID_TOL)]
    assert "precision_bits" not in obj
    assert obj["nonfinite"] == 0


def test_verify_report_config_holds_what_verify_reads(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "ladders", "--seed", "7",
                     "--report", str(report)]) == 0
    capsys.readouterr()
    assert json.loads(report.read_text())["config"] == {
        "seed": 7, "fast": False, "suites": ["ladders"]}


def test_format_flag_removed(capsys):
    code, _, err = run(["expand", "--x", "2/5", "--alpha", "1/2",
                        "--format", "json"], capsys)
    assert code == 2
    assert "--format" in err


@pytest.mark.parametrize("argv", [
    ["scan", "--alpha", "1", "--interval=-1/8:1/8", "--depth", "3",
     "--leaf-samples", "8"],
    ["eval", "--fn", "wilton", "--grid=-1:1:8"],
])
def test_window_below_zero_with_equals_sign(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out


def test_usage_error_on_bad_grid(capsys):
    code, _, err = run(["eval", "--fn", "wilton", "--grid", "zero-one"],
                       capsys)
    assert code == 2
    assert "--grid" in err


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--fn", "brjuno", "--x", "1/0"], "--x"),
    (["eval", "--fn", "brjuno", "--x", "1/3", "--alpha", "1/0"], "--alpha"),
    (["eval", "--fn", "brjuno-finite", "--x", "1/0"], "--x"),
    (["eval", "--fn", "brjuno", "--grid", "0:1/0:3"], "--grid"),
    (["scan", "--alpha", "1", "--interval", "0:1/0", "--depth", "2"],
     "--interval"),
])
def test_zero_denominator_is_a_usage_error(argv, flag, capsys):
    # exit 1 is kept for a failed criterion
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("usage error:") and flag in err
