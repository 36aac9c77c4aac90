"""Command-line interface: rendering, exit codes, determinism."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import BoundForm, cli
from chebotarev import reference_values as pv


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTablesCommand:
    def test_table1_csv_shape(self, capsys):
        code, out, err = run(capsys, "tables", "--id", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21  # header + rows for degrees 2..21
        assert lines[0].count(",") == 5  # 6 columns
        assert "21/21" not in err or "cells match" in err

    def test_table4_absent_contains_top_row_ceiling(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "4", "--beta0", "absent")
        assert code == 0
        assert "519.59" in out

    def test_unknown_table_id_usage_error(self, capsys):
        code, _, err = run(capsys, "tables", "--id", "99")
        assert code == 2

    def test_jsonl_is_valid(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "2", "--format", "jsonl")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert len(rows) == 20

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "tables", "--id", "6", "--format", "csv")
        _, out2, _ = run(capsys, "tables", "--id", "6", "--format", "csv")
        assert out1 == out2

    def test_deterministic_across_processes(self):
        # byte-identical output without shared in-process caches
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "chebotarev.cli", "tables", "--id", "1",
               "--format", "csv"]
        first = subprocess.run(cmd, capture_output=True, check=True).stdout
        second = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert first == second

    def test_diff_flag_reports_every_cell(self, capsys):
        code, _, err = run(capsys, "tables", "--id", "2", "--diff")
        assert code == 0
        assert err.count("ok table 2") == 40  # 2 cells x 20 rows

    def test_published_style_formatting(self, capsys):
        code, out, _ = run(capsys, "tables", "--id", "4", "--beta0", "present",
                           "--published-style")
        assert code == 0
        assert "2.26E-03" in out  # delta0 keeps the published scientific style
        assert "2.003" in out     # N0 rounded up at three decimals

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        code, out, _ = run(capsys, "tables", "--id", "1", "--format", "csv",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n0,")

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        # corrupt one baseline cell; the diff must catch it and exit 1
        broken = dict(pv.TABLE1_ALPHA0)
        broken[2] = ("99.9999",) + broken[2][1:]
        monkeypatch.setattr(pv, "TABLE1_ALPHA0", broken)
        code, _, err = run(capsys, "tables", "--id", "1")
        assert code == 1
        assert "MISMATCH" in err


class TestBoundCommand:
    def test_applicable_case(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--nL", "2", "--dL", "5", "--logx", "5000",
            "--form", "exp", "--beta0", "absent",
        )
        assert code == 0
        assert "applicable:         yes" in out
        assert "epsilon:" in out

    def test_below_threshold(self, capsys):
        code, out, _ = run(capsys, "bound", "--nL", "2", "--dL", "5", "--logx", "100")
        assert code == 0
        assert "applicable:         no" in out
        # threshold = alpha (log 5)^2 / 2 = 3775.1...
        assert "3775" in out

    def test_degree_one_usage_error(self, capsys):
        code, _, _ = run(capsys, "bound", "--nL", "1", "--dL", "5", "--logx", "100")
        assert code == 2

    def test_jsonl_payload(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--nL", "2", "--dL", "5", "--logx", "5000",
            "--beta0", "present", "--format", "jsonl",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["applicable"] is True
        assert payload["exceptional_term"] == "x^(beta0-1)/beta0"


    def test_general_branch_jsonl(self, capsys):
        # n_L above the top row's N0 takes the general branch
        code, out, _ = run(capsys, "bound", "--nL", "600", "--log-dL", "2000",
                           "--logx", "1e7", "--format", "jsonl")
        assert code == 0
        assert json.loads(out)["refined_branch"] is False

    @pytest.mark.parametrize("argv", [
        ["--dL", "5", "--logx", "inf"],
        ["--dL", "5", "--logx", "nan"],
        ["--dL", "inf", "--logx", "5000"],
        ["--log-dL", "inf", "--logx", "5000"],
        ["--log-dL", "1e308", "--logx", "5000"],
    ])
    def test_non_finite_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "bound", "--nL", "2", *argv, "--format", "jsonl")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestVerifyCommand:
    def test_gaussian_field(self, capsys):
        code, out, _ = run(capsys, "verify", "--disc", "-4", "--x", "20")
        assert code == 0
        assert "8.106" in out
        assert "8.386" in out

    def test_non_fundamental_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--disc", "9", "--x", "20")
        assert code == 2
        assert "fundamental" in err

    def test_twelve_is_fundamental(self, capsys):
        code, _, _ = run(capsys, "verify", "--disc", "12", "--x", "50")
        assert code == 0

    def test_tiny_x_gives_zeros(self, capsys):
        code, out, _ = run(capsys, "verify", "--disc", "5", "--x", "1")
        assert code == 0
        assert "0.000000" in out

    def test_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--disc", "5", "--x-grid", "100,1000", "--format", "csv"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_sieve_limit_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHEB_SIEVE_LIMIT", "100")
        code, _, err = run(capsys, "verify", "--disc", "5", "--x", "1000")
        assert code == 2
        assert "sieve limit" in err
        for bad in ("1e9", "-5"):
            monkeypatch.setenv("CHEB_SIEVE_LIMIT", bad)
            code, out, err = run(capsys, "verify", "--disc", "5", "--x", "20")
            assert code == 2
            assert out == ""
            assert err.startswith("error: CHEB_SIEVE_LIMIT must be a positive integer")

    @pytest.mark.parametrize("argv", [
        ["--x", "nan"],
        ["--x", "inf"],
        ["--x", "0.5"],
        ["--x-grid", "1e3,abc"],
        ["--x-grid", ","],
        ["--x-grid", "1e3,nan"],
        ["--x", "20", "--sieve-limit", "-5"],
    ])
    def test_bad_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--disc", "5", *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err


class TestParamsCommand:
    def test_dump_contains_pipeline(self, capsys):
        code, out, _ = run(capsys, "params", "--n0", "2", "--beta0", "present")
        assert code == 0
        for key in ("alpha", "log_x0", "l0", "l7", "Y0", "E3", "N0"):
            assert key in out

    @pytest.mark.parametrize("n0", ["1", "22"])
    def test_row_outside_table_is_usage_error(self, capsys, n0):
        code, out, err = run(capsys, "params", "--n0", n0)
        assert code == 2
        assert out == ""
        assert err.startswith("error: n0 must be a table row in 2..21")

    def test_jsonl_round_trip(self, capsys):
        code, out, _ = run(capsys, "params", "--n0", "21", "--beta0", "absent",
                           "--format", "jsonl")
        assert code == 0
        payload = json.loads(out)
        assert payload["n0"] == 21
        assert 519 < payload["N0"] < 520


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


# values on and past the edges of what each option accepts
EDGE_FLOATS = st.sampled_from(
    ["inf", "-inf", "nan", "-0", "0", "1e309", "-1e309", "1e-320", "1e308", "-5",
     "0.5", "3", "5", "100", "5000", "2e4", "1e7"]
) | st.floats(allow_nan=True, allow_infinity=True).map(repr)
DEGREES = st.integers(-2, 45) | st.sampled_from([10**6, 10**400])
FORMATS = st.sampled_from(cli.FORMATS)
BETA0 = st.sampled_from(["present", "absent"])


@st.composite
def bound_argv(draw):
    disc = draw(st.sampled_from(["--dL", "--log-dL"]))
    return ["bound", f"--nL={draw(DEGREES)}", f"{disc}={draw(EDGE_FLOATS)}",
            f"--logx={draw(EDGE_FLOATS)}", f"--beta0={draw(BETA0)}",
            f"--form={draw(st.sampled_from([f.value for f in BoundForm]))}",
            f"--format={draw(FORMATS)}"]


@st.composite
def params_argv(draw):
    return ["params", f"--n0={draw(DEGREES)}", f"--beta0={draw(BETA0)}",
            f"--format={draw(FORMATS)}"]


# x on and past the edges of what verify accepts, and tokens that are not numbers
X_TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "0.5", "1", "1.5", "2", "13", "17", "30031",
     "99999.5", "1e5", "abc", "", "1e", "0x10"]
) | st.floats(1, 1e5).map(repr)
# fundamental and non-fundamental discriminants, 0, and |D| > 10^6
DISCS = st.integers(-60, 60) | st.sampled_from(
    [-4999, -1447, 1000005, -1000003, 1000000, 1000001, 4 * 5000, -(10**7)])


@st.composite
def verify_argv(draw):
    argv = ["verify", f"--disc={draw(DISCS)}"]
    if draw(st.booleans()):
        argv.append(f"--x={draw(X_TOKENS)}")
    else:  # unsorted, with repeats
        xs = draw(st.lists(X_TOKENS, min_size=1, max_size=5))
        argv.append("--x-grid=" + ",".join(xs + xs[: draw(st.integers(0, 2))]))
    if draw(st.booleans()):
        limit = draw(st.sampled_from(["1", "2", "100", "100000", "0", "-5", "1e9", "abc"]))
        argv.append(f"--sieve-limit={limit}")
    return argv + [f"--format={draw(FORMATS)}"]


@st.composite
def tables_argv(draw):
    argv = ["tables", f"--id={draw(st.integers(0, 9))}", f"--format={draw(FORMATS)}",
            f"--beta0={draw(st.sampled_from(['present', 'absent', 'both', 'none']))}"]
    return argv + draw(st.lists(st.sampled_from(["--published-style", "--diff"]), unique=True))


def _assert_clean_exit(argv):
    """Exit 0 or 2, no traceback or RuntimeWarning, strict jsonl on success."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert "error:" in err.getvalue()
    elif "--format=jsonl" in argv:
        for line in out.getvalue().splitlines():
            json.loads(line, parse_constant=_reject_constant)
    return code


class TestFuzzArgv:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(bound_argv(), params_argv()))
    def test_exit_code_and_strict_jsonl(self, argv):
        _assert_clean_exit(argv)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(verify_argv(), tables_argv()))
    def test_verify_and_tables_exit_code_and_strict_jsonl(self, argv):
        _assert_clean_exit(argv)


@pytest.mark.parametrize("argv", [
    ["tables", "--id=1"],
    ["params", "--n0=2"],
    ["bound", "--nL=2", "--dL=5", "--logx=100"],
    ["verify", "--disc=5", "--x=100"],
])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_out_is_usage_error(tmp_path, argv, target):
    out = tmp_path / "missing" / "out.txt" if target == "missing-parent" else tmp_path
    assert _assert_clean_exit(argv + [f"--out={out}"]) == 2
    assert list(tmp_path.iterdir()) == []
