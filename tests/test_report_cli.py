import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hlp_sharp
from hlp_sharp.cli import (
    COMMANDS,
    CSV_HEADER,
    RunConfig,
    UsageError,
    config_from_args,
    main,
    run,
)
from hlp_sharp.report import VerificationReport, compare, to_json_line, write_reports

# ---------------------------------------------------------------------------
# report.py
# ---------------------------------------------------------------------------


def test_compare_basic_pass_and_fail():
    rep = compare("x", 1.0, 1.0 + 1e-9, 1e-6)
    assert rep.passed and rep.rel_err <= 1e-6
    assert rep.abs_err == pytest.approx(1e-9, rel=1e-6)
    rep = compare("x", 1.0, 1.1, 1e-6)
    assert not rep.passed

    with pytest.raises(ValueError):
        compare("x", 1.0, 1.0, -1e-6)


def test_compare_zero_semantics():
    rep = compare("x", 0.0, 0.0, 1e-12)
    assert rep.passed and rep.rel_err == 0.0 and rep.abs_err == 0.0

    rep = compare("x", 0.0, 1e-13, 1e-12)
    assert rep.passed and math.isinf(rep.rel_err)

    rep = compare("x", 0.0, 1e-3, 1e-12)
    assert not rep.passed and math.isinf(rep.rel_err)


def test_compare_nan_never_passes():
    for bad in (math.nan, float("nan")):
        rep = compare("x", bad, 1.0, 1e-6)
        assert not rep.passed and math.isnan(rep.rel_err)
        rep = compare("x", 1.0, bad, 1e-6)
        assert not rep.passed and math.isnan(rep.rel_err)


def test_compare_pass_iff_rel_err_within_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.uniform(-1e-4, 1e-4))
        tol = float(rng.uniform(1e-8, 1e-3))
        rep = compare("x", a, b, tol)
        if a != 0.0 and b != 0.0:
            assert rep.passed == (rep.rel_err <= tol)


def test_to_json_line_is_sorted_flat_and_finite():
    rep = compare("label", 2.0, 2.0 + 1e-8, 1e-6, convention_note="note", seed=3)
    line = to_json_line(rep)
    parsed = json.loads(line)
    assert list(parsed) == sorted(parsed)
    assert parsed["label"] == "label"
    assert parsed["seed"] == 3
    assert parsed["passed"] is True

    rep = compare("zero", 0.0, 1e-13, 1e-12)
    parsed = json.loads(to_json_line(rep))
    assert parsed["rel_err"] == "inf"  # rendered as a string to stay valid JSON

    parsed = json.loads(to_json_line({"a": math.nan, "b": 1.0}))
    assert parsed["a"] == "nan" and parsed["b"] == 1.0


def test_write_reports_counts_lines(tmp_path):
    reports = [compare(f"r{i}", 1.0, 1.0, 1e-6) for i in range(3)]
    path = tmp_path / "out.jsonl"
    assert write_reports(path, reports) == 3
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert all(json.loads(ln)["passed"] for ln in lines)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = config_from_args(["--command", "constant"])
    assert cfg.command == "constant"
    assert cfg.format == "json"
    assert cfg.kind == "hlp"
    assert cfg.output_path == "hlp_report.jsonl"
    assert cfg.tolerance == 1e-6
    p = cfg.params
    assert (p.m, p.n, p.q) == (1, 1, 2.0)
    assert p.q_list == (2.0,)
    assert p.lam == -0.25  # -1/(2q)
    assert p.lam_list == (-0.25,)
    assert p.gamma_list == (0.0,)
    assert cfg.quad.panels == 96
    assert cfg.mc.samples == 100_000 and cfg.mc.seed == 0 and cfg.mc.shards == 8
    assert cfg.dilation_factors == (0.5, 2.0, 10.0)
    assert cfg.truncation == (1e-2, 1e2)
    assert cfg.widths == ((1e-1, 1e1), (1e-2, 1e2))
    assert set(COMMANDS) == {
        "constant",
        "verify-dilation",
        "verify-sharpness",
        "group-check",
        "morrey-norm",
        "oracle-compare",
    }


def test_config_derives_coupled_factor_exponents():
    cfg = config_from_args(
        ["--command", "constant", "--m", "2", "--q", "2", "--lambda", "-0.25"]
    )
    p = cfg.params
    assert p.q_list == (4.0, 4.0)
    assert p.lam_list == (-0.125, -0.125)

    cfg = config_from_args(
        [
            "--command",
            "constant",
            "--m",
            "2",
            "--qj",
            "3,6",
            "--lambdaj",
            "-0.1,-0.05",
            "--gammaj",
            "0.5,-0.5",
        ]
    )
    p = cfg.params
    assert p.q_list == (3.0, 6.0)
    assert p.lam_list == (-0.1, -0.05)
    assert p.gamma_list == (0.5, -0.5)


def test_config_usage_errors():
    with pytest.raises(UsageError, match="format=csv is reserved"):
        config_from_args(["--command", "constant", "--format", "csv"])
    with pytest.raises(UsageError, match="samples>=1000"):
        config_from_args(["--command", "constant", "--samples", "10"])
    with pytest.raises(UsageError, match="0<rmin<rmax"):
        config_from_args(["--command", "constant", "--rmin", "2", "--rmax", "1"])
    with pytest.raises(UsageError, match="tolerance>0"):
        config_from_args(["--command", "constant", "--tolerance", "0"])
    with pytest.raises(UsageError, match="--t factors"):
        config_from_args(["--command", "constant", "--t", "-1,2"])
    with pytest.raises(UsageError, match="--widths"):
        config_from_args(["--command", "constant", "--widths", "1:2:3"])
    with pytest.raises(UsageError, match="0<rmin<rmax violated: --widths entry 100:0.01"):
        config_from_args(["--command", "verify-sharpness", "--widths", "1e2:1e-2"])
    with pytest.raises(UsageError, match="0<rmin<rmax violated: --widths entry 0:1"):
        config_from_args(["--command", "verify-sharpness", "--widths", "1e-1:1e1,0:1"])
    with pytest.raises(UsageError, match="--qj"):
        config_from_args(["--command", "constant", "--qj", "a,b"])
    with pytest.raises(SystemExit):
        config_from_args(["--command", "bogus"])
    with pytest.raises(SystemExit):
        config_from_args(["--command", "constant", "--no-such-flag"])


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def run_main(argv, tmp_path, name="report.jsonl"):
    path = tmp_path / name
    status = main(argv + ["--out", str(path)])
    return status, path


def test_constant_command_passes_and_writes_report(tmp_path):
    status, path = run_main(["--command", "constant"], tmp_path)
    assert status == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    header = json.loads(lines[0])
    assert header["record"] == "header"
    assert header["command"] == "constant"
    assert header["mc"] == {"samples": 100_000, "seed": 0, "shards": 8}
    assert header["quad"] == {"panels": 96}
    assert header["params"]["lambda"] == -0.25
    assert "timestamp" not in lines[0]
    record = json.loads(lines[1])
    assert record["passed"] is True
    assert record["label"] == "hlp-constant m=1 n=1"
    assert record["rel_err"] <= 1e-6


def test_forced_failure_still_writes_report(tmp_path):
    # the Hilbert oracle's rounding (~1e-15) cannot meet 1e-20; the HLP
    # oracle can match its closed form to the last bit at m = 1
    status, path = run_main(
        ["--command", "constant", "--kind", "hilbert", "--tolerance", "1e-20"], tmp_path
    )
    assert status == 1
    record = json.loads(path.read_text().splitlines()[1])
    assert record["passed"] is False
    assert record["tolerance"] == 1e-20


def test_usage_error_exit_code_names_condition(tmp_path, capsys):
    status, _ = run_main(["--command", "constant", "--lambda", "0"], tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "lambda in [-1/q,0) violated" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_nonpositive_n_is_a_usage_error(n, tmp_path, capsys):
    status, _ = run_main(["--command", "constant", "--n", n], tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "n>=1 violated" in err


def test_divergent_morrey_cell_is_a_usage_error(tmp_path, capsys):
    # lambda = -1/q is admissible, but |f|^q = r^-Q of the extremizer is not
    # integrable at the origin: exit 2 naming the condition, no traceback.
    argv = ["--command", "verify-dilation", "--lambda", "-0.5", "--t", "2", "--samples", "1000"]
    status, _ = run_main(argv, tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "Q+sigma_j>0 violated" in err


def test_unbalanced_lambda_is_a_usage_error(tmp_path, capsys):
    argv = ["--command", "constant", "--m", "2", "--qj", "4,4", "--lambdaj", "-0.2,-0.2"]
    status, _ = run_main(argv, tmp_path)
    assert status == 2
    assert "lambda=sum(lambda_j) violated" in capsys.readouterr().err


def test_factor_weight_below_minus_q_is_named_before_any_morrey_norm(tmp_path, capsys):
    # q_2 gamma_2 / q = 10 * (-1) / 2 = -5 <= -Q = -4: the content weight of
    # the second factor space is not locally integrable
    argv = ["--command", "verify-sharpness", "--m", "2", "--qj", "2.5,10",
            "--lambdaj", "-0.2,-0.05", "--gammaj", "0,-1", "--samples", "1000"]
    status, _ = run_main(argv, tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "q_j*gamma_j/q>-Q violated: q_2*gamma_2/q = -5" in err
    assert "gamma_w must exceed" not in err


def test_dilation_names_the_first_factor_weight(tmp_path, capsys):
    # q_1 gamma_1 / q = 2.5 * (-4) / 2 = -5 <= -Q = -4: verify-dilation runs
    # on the first factor's space, so it names that factor's condition
    argv = ["--command", "verify-dilation", "--m", "2", "--qj", "2.5,10",
            "--lambdaj", "-0.2,-0.05", "--gammaj", "-4,4", "--t", "2"]
    status, _ = run_main(argv, tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error: q_j*gamma_j/q>-Q violated: q_1*gamma_1/q = -5, -Q = -4" in err
    assert "gamma_w must exceed" not in err


def test_constant_past_m4_and_overflowing_m(tmp_path, capsys):
    for kind in ("hlp", "hilbert"):
        status, path = run_main(["--command", "constant", "--m", "6", "--kind", kind], tmp_path)
        assert status == 0, capsys.readouterr().err
        assert json.loads(path.read_text().splitlines()[1])["label"] == f"{kind}-constant m=6 n=1"
    # omega_Q^300 overflows a double: a usage error naming m, not a traceback
    status, _ = run_main(["--command", "constant", "--m", "300", "--kind", "hlp"], tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert "usage error" in err and "m = 300" in err


def test_uncertifiable_oracle_is_a_failed_record(tmp_path, capsys):
    # Admissible, but sigma is so close to 0 that the tail integral of the
    # oracle decays too slowly to certify.
    status, path = run_main(["--command", "constant", "--lambda", "-0.00002"], tmp_path)
    assert status == 1
    assert capsys.readouterr().err == ""
    record = json.loads(path.read_text().splitlines()[1])
    assert record["passed"] is False
    assert record["oracle"] == "nan"
    assert record["convention_note"].startswith("oracle could not certify: ")
    assert "near tail" in record["convention_note"]


def test_recursion_identity_passes_near_sigma_zero(tmp_path):
    # The oracles cannot certify this set, but the Beta recursion must still
    # reproduce the Gamma product within its 1e-12 tolerance.
    status, path = run_main(["--command", "oracle-compare", "--lambda", "-0.00002"], tmp_path)
    assert status == 1
    record = json.loads(path.read_text().splitlines()[3])
    assert record["label"] == "hilbert-recursion-identity m=1 n=1"
    assert record["tolerance"] == 1e-12
    assert record["passed"] is True


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    status = main(
        ["--command", "constant", "--out", str(tmp_path / "missing" / "r.jsonl")]
    )
    assert status == 2
    assert "cannot write report" in capsys.readouterr().err


def test_oracle_compare_reports_three_records(tmp_path):
    status, path = run_main(
        ["--command", "oracle-compare", "--m", "2", "--q", "2"], tmp_path
    )
    assert status == 0
    lines = path.read_text().splitlines()
    records = [json.loads(ln) for ln in lines[1:]]
    labels = [r["label"] for r in records]
    assert labels == [
        "hlp-constant m=2 n=1",
        "hilbert-constant m=2 n=1",
        "hilbert-recursion-identity m=2 n=1",
    ]
    assert all(r["passed"] for r in records)
    assert records[2]["tolerance"] == 1e-12


def test_group_check_records(tmp_path):
    status, path = run_main(["--command", "group-check", "--n", "2"], tmp_path)
    assert status == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    labels = [r["label"] for r in records]
    assert labels[:4] == [
        "group-associativity n=2",
        "group-identity-inverse n=2",
        "gauge-homogeneity n=2",
        "dilation-morphism n=2",
    ]
    assert labels[4:] == [
        "ball-volume n=2 r=0.5",
        "ball-volume n=2 r=1",
        "ball-volume n=2 r=2",
    ]
    assert all(r["passed"] for r in records)


def test_group_check_console_shows_the_absolute_error_of_axioms(tmp_path):
    # the axioms compare against 0, so rel_err is the flag inf: the console
    # prints abs_err, the report keeps rel_err "inf"
    path = tmp_path / "g.jsonl"
    buf = io.StringIO()
    assert run(config_from_args(["--command", "group-check", "--out", str(path)]), stream=buf) == 0
    lines = buf.getvalue().splitlines()
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    for line, r in zip(lines, records):
        if r["rel_err"] == "inf":
            assert f"abs_err={r['abs_err']:.3e}" in line and "rel_err" not in line
        else:
            assert f"rel_err={r['rel_err']:.3e}" in line
    assert sum(r["rel_err"] == "inf" for r in records) >= 3


@pytest.mark.filterwarnings("error")
def test_morrey_norm_with_opposite_huge_exponents_has_finite_cells(tmp_path):
    # q_1 gamma_1 / q and q_1 sigma_1 are near +-18,200: as two separate
    # powers they overflow to inf * 0 = NaN (92 of 119 cells), which max()
    # would skip
    argv = [
        "--command", "morrey-norm", "--m", "2", "--n", "2", "--q", "1.8572411965649802",
        "--qj", "166513.5165411988,1.8572619119003309",
        "--lambda", "-0.051327616140734014",
        "--lambdaj", "-5.724926432291088e-07,-0.051327043648090785",
        "--gammaj", "0.203140462479235,-0.16469269491701155",
        "--alpha", "-4.240882125702899",
    ]
    status, path = run_main(argv, tmp_path)
    assert status == 0
    record = json.loads(path.read_text().splitlines()[1])
    assert record["passed"] and math.isfinite(record["oracle"])


@pytest.mark.filterwarnings("error")
def test_verify_dilation_with_a_huge_factor_exponent_passes(tmp_path):
    # the dilated amplitude t^sigma_1 raised to q_1 = 166,514 overflows at
    # t = 0.5 and underflows at t = 2, 10 unless the profile is normalized
    argv = [
        "--command", "verify-dilation", "--m", "2", "--n", "2", "--q", "1.8572411965649802",
        "--qj", "166513.5165411988,1.8572619119003309",
        "--lambda", "-0.051327616140734014",
        "--lambdaj", "-5.724926432291088e-07,-0.051327043648090785",
        "--gammaj", "0.203140462479235,-0.16469269491701155",
        "--alpha", "-4.240882125702899",
    ]
    status, path = run_main(argv, tmp_path)
    assert status == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    assert len(records) == 3 and all(r["passed"] for r in records)


@pytest.mark.parametrize("n", [3, 4])
def test_default_verify_dilation_at_t10_is_far_inside_its_gate(n, tmp_path):
    # the widest default factor dilates every off-center cell by 10; the
    # disc share of the n >= 3 ball rule holds rounding, so the worst cell
    # ratio sits an order of magnitude inside the record's 1e-10 gate
    status, path = run_main(["--command", "verify-dilation", "--n", str(n)], tmp_path)
    assert status == 0
    records = {r["label"]: r for r in map(json.loads, path.read_text().splitlines()[1:])}
    last = records["verify-dilation t=10"]
    assert last["tolerance"] == 1e-10 and last["passed"]
    assert last["rel_err"] <= 1e-11


_BALL_WEIGHT_COMMANDS = {
    "morrey-norm": ["--command", "morrey-norm"],
    "verify-dilation": ["--command", "verify-dilation"],
    "sharpness-hlp": ["--command", "verify-sharpness", "--m", "2", "--kind", "hlp"],
    "sharpness-hilbert": ["--command", "verify-sharpness", "--m", "2", "--kind", "hilbert"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha, radius", [("160", "0.01"), ("152", "100")])
@pytest.mark.parametrize("argv", _BALL_WEIGHT_COMMANDS.values(), ids=_BALL_WEIGHT_COMMANDS)
def test_a_ball_weight_out_of_double_range_is_a_usage_error(argv, alpha, radius, tmp_path, capsys):
    # both alphas are admissible, but w_1(B(0, R)) ~ R^(Q + alpha) underflows
    # to 0 at R = 1e-2 for alpha = 160 and overflows at R = 100 for alpha =
    # 152: without the check, a traceback or, for sharpness, a false ratio
    status, _ = run_main(argv + ["--alpha", alpha, "--lambda", "-0.49"], tmp_path)
    assert status == 2
    err = capsys.readouterr().err
    assert f"usage error: Morrey cell B(|a|=0, R={radius}) is not finite in double precision" in err


@pytest.mark.parametrize("argv", _BALL_WEIGHT_COMMANDS.values(), ids=_BALL_WEIGHT_COMMANDS)
def test_a_large_alpha_within_double_range_passes(argv, tmp_path):
    # at alpha = 100 every ball weight of the default grid is in range
    status, path = run_main(argv + ["--alpha", "100", "--lambda", "-0.49"], tmp_path)
    assert status == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    assert records and all(r["passed"] for r in records)
    if argv[1] == "morrey-norm":
        assert records[0]["oracle"] == records[0]["closed_form"] == 3.1322054365372867
    elif argv[1] == "verify-sharpness":
        expected = {"hlp": "0.99690898", "hilbert": "0.99625241"}[argv[-1]]
        assert f"ratio/constant = {expected};" in records[0]["convention_note"]


def test_morrey_norm_builds_no_rule_for_a_second_set(tmp_path):
    # a rule reads only its ball and the profile's breakpoints (none for a
    # pure power), so another set at the same n reuses every rule of the
    # grid, and its report is the one a cold cache gives
    import hlp_sharp.quad as quad

    quad._built_rule.cache_clear()
    assert run_main(["--command", "morrey-norm", "--n", "2"], tmp_path, "first.jsonl")[0] == 0
    built = quad._built_rule.cache_info().misses
    argv = ["--command", "morrey-norm", "--n", "2", "--alpha", "0.5", "--lambda", "-0.3"]
    status, warm = run_main(argv, tmp_path, "warm.jsonl")
    assert status == 0 and quad._built_rule.cache_info().misses == built
    quad._built_rule.cache_clear()
    status, cold = run_main(argv, tmp_path, "cold.jsonl")
    assert status == 0 and quad._built_rule.cache_info().misses == built
    timeless = [re.sub(r'"runtime_ms": \d+', "", p.read_text()) for p in (warm, cold)]
    assert timeless[0] == timeless[1]


def test_verify_dilation_command(tmp_path):
    status, path = run_main(
        ["--command", "verify-dilation", "--t", "0.5,2", "--samples", "5000"],
        tmp_path,
    )
    assert status == 0
    records = [json.loads(ln) for ln in path.read_text().splitlines()[1:]]
    assert [r["label"] for r in records] == [
        "verify-dilation t=0.5",
        "verify-dilation t=2",
    ]
    assert all(r["passed"] for r in records)


def test_morrey_norm_command(tmp_path):
    status, path = run_main(
        ["--command", "morrey-norm", "--samples", "20000"], tmp_path
    )
    assert status == 0
    record = json.loads(path.read_text().splitlines()[1])
    assert record["label"] == "morrey-norm extremizer j=1 m=1 n=1"
    assert record["passed"] is True
    assert record["tolerance"] == 0.05
    assert "argmax cell" in record["convention_note"]


def test_verify_sharpness_json(tmp_path):
    status, path = run_main(
        [
            "--command",
            "verify-sharpness",
            "--rmin",
            "1e-2",
            "--rmax",
            "1e2",
            "--samples",
            "20000",
        ],
        tmp_path,
    )
    assert status == 0
    record = json.loads(path.read_text().splitlines()[1])
    assert record["label"] == "sharpness hlp m=1 truncation=(0.01,100)"
    assert record["passed"] is True
    assert "ratio/constant" in record["convention_note"]


def test_verify_sharpness_hilbert_m3(tmp_path):
    status, path = run_main(
        ["--command", "verify-sharpness", "--kind", "hilbert", "--m", "3", "--samples", "20000"],
        tmp_path,
    )
    assert status == 0
    record = json.loads(path.read_text().splitlines()[1])
    assert record["label"] == "sharpness hilbert m=3 truncation=(0.01,100)"
    assert record["passed"] is True


def test_verify_sharpness_csv_table(tmp_path):
    path = tmp_path / "table.csv"
    status = main(
        [
            "--command",
            "verify-sharpness",
            "--format",
            "csv",
            "--widths",
            "1e-1:1e1,1e-2:1e2",
            "--samples",
            "20000",
            "--out",
            str(path),
        ]
    )
    assert status == 0
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    # constant column fixed; ratio converges upward as the window widens
    assert rows[0][3] == rows[1][3]
    assert rows[0][2] <= rows[1][2]
    for row in rows:
        assert row[4] == pytest.approx(row[2] / row[3], rel=1e-12)
        assert 0.5 < row[4] <= 1.0 + 1e-3


def test_verify_sharpness_csv_failing_width_exits_1(tmp_path, capsys):
    # A narrow window falls outside the sharpness tolerance: the table is
    # still written, and the exit status is the JSON run's.
    path = tmp_path / "table.csv"
    status = main(
        [
            "--command",
            "verify-sharpness",
            "--format",
            "csv",
            "--widths",
            "0.5:2",
            "--samples",
            "2000",
            "--out",
            str(path),
        ]
    )
    assert status == 1
    assert "FAILED" in capsys.readouterr().out
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 2
    lo, hi, ratio, constant, rel = (float(v) for v in lines[1].split(","))
    assert (lo, hi) == (0.5, 2.0)
    assert rel == pytest.approx(ratio / constant, rel=1e-12)
    assert rel < 0.9


def test_verify_sharpness_csv_empty_widths(tmp_path):
    path = tmp_path / "table.csv"
    status = main(
        [
            "--command",
            "verify-sharpness",
            "--format",
            "csv",
            "--widths",
            "",
            "--out",
            str(path),
        ]
    )
    assert status == 0
    assert path.read_text().splitlines() == [",".join(CSV_HEADER)]


def test_csv_requires_strict_parameters(tmp_path, capsys):
    status = main(
        [
            "--command",
            "verify-sharpness",
            "--format",
            "csv",
            "--lambdaj",
            "-0.5",
            "--out",
            str(tmp_path / "t.csv"),
        ]
    )
    assert status == 2
    assert "violated" in capsys.readouterr().err


def test_reports_are_bit_reproducible_apart_from_runtime(tmp_path):
    argv = ["--command", "verify-dilation", "--t", "2", "--samples", "2000"]
    status1, path1 = run_main(argv, tmp_path, name="a.jsonl")
    status2, path2 = run_main(argv, tmp_path, name="b.jsonl")
    assert status1 == status2 == 0

    def normalized(path):
        out = []
        for ln in path.read_text().splitlines():
            d = json.loads(ln)
            d.pop("runtime_ms", None)
            out.append(d)
        return out

    assert normalized(path1) == normalized(path2)


def test_run_streams_status_lines(tmp_path):
    cfg = config_from_args(
        ["--command", "constant", "--out", str(tmp_path / "r.jsonl")]
    )
    buf = io.StringIO()
    status = run(cfg, stream=buf)
    assert status == 0
    text = buf.getvalue()
    assert "passed" in text and "hlp-constant" in text
    assert "wrote 1 records" in text


def _cli_env():
    """Environment for a CLI child process that imports the same `hlp_sharp`
    source as this test process, however the suite was started."""
    src = str(Path(hlp_sharp.__file__).resolve().parent.parent)
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    return env


def _check_cli_exit_codes(command, tmp_path):
    """Run the CLI as a separate process: a passing run exits 0 and writes
    its report; an inadmissible `--lambda` exits 2 with a usage error."""
    env = _cli_env()
    proc = subprocess.run(
        [
            *command,
            "--command",
            "constant",
            "--kind",
            "hilbert",
            "--out",
            str(tmp_path / "c.jsonl"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "passed" in proc.stdout
    assert proc.stderr == ""
    assert (tmp_path / "c.jsonl").exists()

    bad = subprocess.run(
        [*command, "--command", "constant", "--lambda", "0.5"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert bad.returncode == 2
    assert "usage error" in bad.stderr


def test_console_script_smoke(tmp_path):
    _check_cli_exit_codes([sys.executable, "-m", "hlp_sharp"], tmp_path)


def test_cli_module_runs_clean(tmp_path):
    # `-m hlp_sharp.cli` warns if importing the package already imported cli
    _check_cli_exit_codes([sys.executable, "-m", "hlp_sharp.cli"], tmp_path)


def test_package_import_loads_no_submodule():
    probe = "import sys, hlp_sharp; print([k for k in sys.modules if k.startswith('hlp_sharp.')])"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_no_table_or_grid():
    # per-process tables are built on first use, never at import
    probe = (
        "import hlp_sharp.cli, hlp_sharp.morrey as m, hlp_sharp.quad as q; "
        "print([f.cache_info().currsize for f in "
        "(q._panel_table, q.leggauss, m.default_grid, q._built_rule)])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0]"


@pytest.mark.skipif(
    shutil.which("hlp-sharp") is None, reason="hlp-sharp script not installed"
)
def test_installed_console_script_smoke(tmp_path):
    _check_cli_exit_codes([shutil.which("hlp-sharp")], tmp_path)


def test_console_script_entry_point():
    # A text match rather than tomllib, which needs Python 3.11.
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert re.search(
        r'^\[project\.scripts\]\s*^hlp-sharp\s*=\s*"hlp_sharp\.cli:main"\s*$',
        pyproject.read_text(),
        re.MULTILINE,
    )
