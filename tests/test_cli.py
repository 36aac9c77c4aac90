"""Command-line interface: rendering, exit codes, determinism."""

import argparse
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import BoundForm, cli, generate_table
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

    def test_published_style_inputs_print_as_published(self, capsys):
        # the double nearest 1.82048 lies above it, so only the nearest rule
        # gives table 3's M back
        code, out, _ = run(capsys, "tables", "--id", "3", "--format", "csv", "--published-style")
        assert code == 0
        assert out.splitlines()[1] == "2,3,1.82048"

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


# bound inputs and whether epsilon is a positive number there or null
EDGE_BOUNDS = [
    *((["--nL=5", "--dL=1e6", "--logx=1e5", f"--form={f}"], True) for f in cli.BOUND_FORMS),
    # log Delta_L = 750: exp and log overflow there, the classical forms answer
    *((["--nL=2", "--log-dL=1500", "--logx=1e10", f"--form={f}"], True)
      for f in ("classical-nl", "classical-abs")),
    # an applicable epsilon whose decay factor is below the normal floats
    (["--nL=2", "--log-dL=100", "--logx=1.46e7", "--form=exp"], True),
    (["--nL=2", "--dL=5", "--logx=1e9", "--form=classical-abs"], True),
    # every form on the general branch (degree 1000 is above every N0),
    # and below every form's threshold
    *((["--nL=1000", "--log-dL=2500", "--logx=5e9", f"--form={f}"], True)
      for f in cli.BOUND_FORMS),
    *((["--nL=1000", "--log-dL=2500", "--logx=10", f"--form={f}"], False)
      for f in cli.BOUND_FORMS),
]


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

    def test_degree_below_two_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bound", "--nL", "1", "--dL", "5", "--logx", "1e5")
        assert (code, out) == (2, "")
        assert err == "error: degree must be an integer from 2 to 7.807e+307, got 1\n"

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

    @pytest.mark.parametrize("argv, applicable", EDGE_BOUNDS, ids=[
        "-".join(a.split("=")[1] for a in argv) for argv, _ in EDGE_BOUNDS])
    def test_jsonl_epsilon_positive_or_null(self, argv, applicable):
        code, out = _assert_clean_exit(["bound", *argv, "--format=jsonl"])
        assert code == 0
        eps = json.loads(out)["epsilon"]
        assert eps > 0 if applicable else eps is None, eps


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

    def test_sieve_limit_cap(self, capsys, monkeypatch):
        # a limit above MAX_SIEVE_LIMIT, and an x above the limit, are usage
        # errors raised before anything is sieved; the cap itself is accepted
        from chebotarev import verifier

        cap = verifier.MAX_SIEVE_LIMIT
        assert cap == 2**46 and math.log(cap) < 32
        sieve = verifier._segments

        def no_sieve(stops):
            # QuadraticField(5) sieves up to isqrt(5) to decompose D; nothing
            # else may be swept
            if stops != [math.isqrt(5)]:
                raise AssertionError("sieved with a limit above the cap")
            return sieve(stops)

        monkeypatch.setattr(verifier, "_segments", no_sieve)
        for limit in (cap + 1, 10**23, "1" * 5000):
            code, out, err = run(capsys, "verify", "--disc", "5", "--x", "10",
                                 "--sieve-limit", str(limit))
            assert (code, out) == (2, ""), err
            assert "error:" in err and "Traceback" not in err
        code, out, err = run(capsys, "verify", "--disc", "5", "--x", "1000", "--sieve-limit", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: x = 1000.0 exceeds the sieve limit 100")
        monkeypatch.setattr(verifier, "_segments", sieve)
        for argv in (["--sieve-limit", str(cap)], ["--sieve-limit", "0" + str(cap)]):
            code, out, _ = run(capsys, "verify", "--disc", "5", "--x", "10", *argv)
            assert code == 0 and out

    def test_environment_sets_no_sieve_limit(self, capsys, monkeypatch):
        # the cap comes from --sieve-limit alone: a CHEB_SIEVE_LIMIT in the
        # environment changes nothing
        argv = ("verify", "--disc", "5", "--x", "1000")
        want = run(capsys, *argv)
        assert want[0] == 0
        monkeypatch.setenv("CHEB_SIEVE_LIMIT", "100")
        assert run(capsys, *argv) == want

    @pytest.mark.parametrize("argv", [
        ["--x", "nan"],
        ["--x", "inf"],
        ["--x", "0.5"],
        ["--x-grid", "1e3,abc"],
        ["--x-grid", ","],
        ["--x-grid", "1e3,nan"],
        ["--x", "20", "--sieve-limit", "-5"],
        ["--x", "2e9"],  # above the default sieve limit 10^9
    ])
    def test_bad_input_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--disc", "5", *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("disc,code", [
        ("100000000000097", 0),  # prime, 1 mod 4
        ("999999999999999989", 0),  # prime, just below the cap
        ("1000000000000000009", 2),  # above the cap
    ])
    def test_large_discriminant_is_fast(self, capsys, disc, code):
        start = time.perf_counter()
        got, out, err = run(capsys, "verify", "--disc", disc, "--x", "100")
        assert time.perf_counter() - start < 2.0
        assert got == code, err
        if code == 2:
            assert out == "" and err.startswith("error: |D| must be at most")

    def test_partition_check_sees_a_broken_character(self, capsys, monkeypatch):
        # a character that calls every prime 3 mod 4 ramified drops them from
        # both classes; the unramified total counts them without the character
        import numpy as np

        from chebotarev import verifier

        # every D's character comes from its tables and Jacobi cofactor: a
        # table [1, 1, 1, 0] of period 4 more zeroes every prime 3 mod 4
        right = verifier._character_tables

        def broken_tables(D):
            tables, m = right(D)
            return [*tables, np.array([1, 1, 1, 0], dtype=np.int8)], m

        monkeypatch.setattr(verifier, "_character_tables", broken_tables)
        # x = 20: log(3 7 11 19) + log 3 from 9 = 3^2 for D = -4 and for
        # -26908631, a prime whose character is all Jacobi cofactor, and
        # log(7 11 19) for D = 3 5 163 409, where 3 ramifies
        for disc, lost in (("-4", 3 * 7 * 11 * 19 * 3), ("-26908631", 3 * 7 * 11 * 19 * 3),
                           ("1000005", 7 * 11 * 19)):
            code, out, _ = run(capsys, "verify", "--disc", disc, "--x-grid", "20,1000",
                               "--format", "csv")
            assert code == 0
            checks = [float(line.split(",")[-1]) for line in out.splitlines()[1:]]
            assert checks[0] == pytest.approx(math.log(lost), abs=0.01), disc
            assert checks[1] > 500, disc


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

    def test_ell_chain_computed_once(self, capsys, monkeypatch):
        from chebotarev import assembly, constants

        real, calls = constants.compute_ells, []

        def counting(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(constants, "compute_ells", counting)
        monkeypatch.setattr(assembly, "compute_ells", counting)
        code, _, _ = run(capsys, "params", "--n0", "5", "--beta0", "absent")
        assert code == 0
        assert len(calls) == 1

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
    """Exit 0 or 2, no traceback or RuntimeWarning, strict jsonl on success;
    returns the exit code and stdout."""
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
    return code, out.getvalue()


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
    assert _assert_clean_exit(argv + [f"--out={out}"])[0] == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", cli.FORMATS)
@pytest.mark.parametrize("argv", [
    ["tables", "--id=4", "--published-style"],
    ["params", "--n0=2"],
    ["verify", "--disc=5", "--x-grid=100,1000"],
    ["bound", "--nL=2", "--dL=5", "--logx=5000"],  # applicable
    ["bound", "--nL=2", "--dL=5", "--logx=10"],    # below the threshold
])
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, argv, fmt):
    argv = [*argv, f"--format={fmt}"]
    code, stdout, _ = run(capsys, *argv)
    target = tmp_path / "out"
    assert run(capsys, *argv, f"--out={target}")[:2] == (code, "")
    assert target.read_bytes() == stdout.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect, unbuffered", [
    (">/dev/full", False), (">/dev/full", True), (">&-", False),
])
def test_unwritable_stdout_is_usage_error(redirect, unbuffered):
    # a failed write to stdout, or a closed stdout, ends like a failed
    # --out: one error line and exit 2, not a traceback, whether stdout is
    # buffered or not
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    res = subprocess.run(["sh", "-c", f'"$0" -m chebotarev.cli tables --id 2 {redirect}',
                          sys.executable], stderr=subprocess.PIPE, text=True, env=env)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: cannot write to stdout: ")
    assert res.stderr.count("\n") == 1, res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect, unbuffered", [
    (">/dev/full", False), (">/dev/full", True), (">&-", False),
])
def test_unwritable_help_is_usage_error(redirect, unbuffered):
    # argparse's help goes out through the same write as a command's output:
    # argparse alone would exit 0 here, or 120 once the exit flush fails
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    res = subprocess.run(["sh", "-c", f'"$0" -m chebotarev.cli tables --help {redirect}',
                          sys.executable], stderr=subprocess.PIPE, text=True, env=env)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: cannot write to stdout: ")
    assert res.stderr.count("\n") == 1, res.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"])
def test_unwritable_stderr_is_usage_error(capsys, redirect):
    # every cell of table 2 matches, so exit 1 would claim a mismatch: the
    # summary line that cannot be written exits 2, after the whole table
    res = subprocess.run(["sh", "-c", f'"$0" -m chebotarev.cli tables --id 2 {redirect}',
                          sys.executable], stdout=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stdout == run(capsys, "tables", "--id", "2")[1]
    # a command that writes nothing to stderr does not notice it
    res = subprocess.run(["sh", "-c", f'"$0" -m chebotarev.cli bound --nL 5 --dL 1e6 --logx 1e5'
                          f" {redirect}", sys.executable], stdout=subprocess.PIPE, text=True)
    assert res.returncode == 0
    assert res.stdout == run(capsys, "bound", "--nL", "5", "--dL", "1e6", "--logx", "1e5")[1]


def _unreached_print_message(self, message, file=None):
    raise AssertionError(f"argparse's own writer was reached with {message!r}")


def test_closed_stderr_meets_an_unguarded_argparse(capsys, monkeypatch):
    # argparse in some Python releases (3.11.2 among them) writes its error
    # message to sys.stderr without a guard, which a closed stderr (None)
    # turns into an AttributeError.  The CLI's parser never reaches that
    # writer: its usage error goes through the CLI's own, and exits 2
    monkeypatch.setattr(argparse.ArgumentParser, "_print_message", _unreached_print_message)
    monkeypatch.setattr(sys, "stderr", None)
    assert run(capsys, "tables", "--id", "99")[0] == 2  # argparse's own usage error
    assert sys.stderr is None  # so the commands below still find stderr closed
    code, out, _ = run(capsys, "tables", "--help")  # help goes the same way, to stdout
    assert (code, out.startswith("usage: chebotarev tables")) == (0, True)
    assert run(capsys, "tables", "--id", "2")[0] == 2
    assert sys.stderr is None  # no null device takes its place


def test_closed_stdout_stays_closed(capsys, monkeypatch):
    # a closed stdout is one error line and exit 2, and stays closed: no
    # null device takes its place
    monkeypatch.setattr(sys, "stdout", None)
    code, _, err = run(capsys, "tables", "--id", "2")
    assert (code, err) == (2, "error: cannot write to stdout: it is closed\n")
    assert sys.stdout is None


def test_full_stderr_meets_an_unguarded_argparse(capsys, monkeypatch):
    # the same releases let the OSError of a full stderr out of parse_args;
    # the CLI's parser writes through its own writer, which exits 2
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(argparse.ArgumentParser, "_print_message", _unreached_print_message)
    monkeypatch.setattr(sys, "stderr", Full())
    assert run(capsys, "tables", "--id", "99")[0] == 2
    monkeypatch.setattr(sys, "stdout", Full())  # and so does help to a full stdout
    assert run(capsys, "tables", "--help")[0] == 2


# ------------------------------------------------------------------ entry point

def _cli_process(*argv, pre=()):
    """A fresh `python [pre] -m chebotarev.cli argv` process, its output piped."""
    return subprocess.run([sys.executable, *pre, "-m", "chebotarev.cli", *argv],
                          capture_output=True, text=True)


_ENTRY = "from chebotarev import cli; cli.entry()"


class TestEntryPoint:
    def test_piped_output_is_complete(self, capsys):
        res = _cli_process("tables", "--id", "1", "--format", "jsonl")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 20  # degrees 2..21
        assert [json.loads(line)["n0"] for line in lines] == [str(n) for n in range(2, 22)]
        assert res.stdout == run(capsys, "tables", "--id", "1", "--format", "jsonl")[1]
        assert res.stderr == "table 1: 100/100 cells match\n"

    def test_out_file_is_complete(self, capsys, tmp_path):
        target = tmp_path / "t1.jsonl"
        res = _cli_process("tables", "--id", "1", "--format", "jsonl", f"--out={target}")
        assert (res.returncode, res.stdout) == (0, ""), res.stderr
        assert target.read_text() == run(capsys, "tables", "--id", "1", "--format", "jsonl")[1]

    def test_profiler_writes_its_file(self, capsys, tmp_path):
        # cProfile writes its file after the module returns, so a profiled
        # process must end by a normal exit
        import pstats

        target = tmp_path / "tables2.prof"
        res = _cli_process("tables", "--id", "2", pre=("-m", "cProfile", "-o", str(target)))
        assert res.returncode == 0, res.stderr
        assert res.stdout == run(capsys, "tables", "--id", "2")[1]
        assert pstats.Stats(str(target)).total_calls > 0

    @pytest.mark.parametrize("flags, code, teardown", [
        ((), _ENTRY, False),
        ((), f"sys.settrace(lambda *a: None); {_ENTRY}", True),
        ((), f"sys.setprofile(lambda *a: None); {_ENTRY}", True),
        (("-i",), _ENTRY, True),  # the prompt opens after the command, and reads EOF
        # runpy runs the module in a namespace of its own, so the module is
        # not the main program, and its host gets a SystemExit
        ((), "runpy.run_module('chebotarev.cli', run_name='__main__')", True),
    ], ids=["main", "settrace", "setprofile", "inspect", "runpy"])
    def test_teardown_only_under_a_hook_or_a_host(self, capsys, flags, code, teardown):
        # an atexit handler runs only when the interpreter tears down
        code = f"import atexit, runpy, sys\natexit.register(lambda: print('teardown'))\n{code}\n"
        res = subprocess.run([sys.executable, *flags, "-c", code, "tables", "--id", "2"],
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.endswith("teardown\n") == teardown
        assert res.stdout.removesuffix("teardown\n") == run(capsys, "tables", "--id", "2")[1]


# ------------------------------------------------------------------ start-up

# cli.main(argv) in a fresh process; prints the chebotarev modules it
# loaded (and numpy, decimal, csv and json, if loaded; json is imported
# only to print them) and its OS thread count
_CHILD = """
import contextlib, io, os, sys
from chebotarev import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
modules = [m for m in sys.modules
           if m in ("numpy", "decimal", "csv", "json") or m.startswith("chebotarev")]
import json
print(json.dumps([modules, threads]))
"""


def _fresh_python(code, *args, env=None):
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def _fresh_cli(*argv, env=None):
    modules, threads = _fresh_python(_CHILD, *argv, env=env)
    return set(modules), threads


def _numpy_uses_openblas():
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (ImportError, TypeError, KeyError):  # show_config(mode=) needs numpy >= 1.26
        return False
    return "openblas" in blas.lower()


# the public names of the package, as `import chebotarev` loaded them eagerly
PUBLIC_NAMES = [
    "ALPHA1", "ALPHA2", "ALPHA3", "BesselArgs", "BoundForm", "BoundReport", "ClassCount",
    "ClassicalBranch", "ClassicalConstants", "ConjugacyClass", "DomainError",
    "EllConstants", "Endpoint", "FieldParams", "FinalConstants", "MINKOWSKI_TABLE",
    "MinkowskiRow", "NumericError", "P_E_L", "PoleError", "Q_kernel", "Q_kernel_partial_u",
    "QuadraticField", "R1", "R2", "RegimeThreshold", "ResourceError", "SearchError",
    "SmoothingParams", "TuningConfig", "alpha0", "alpha0_prime",
    "assembly", "bessel", "bessel_I", "bessel_K", "bound_eval", "c123", "choose_delta0",
    "classical_constants", "compute_ells", "constants", "corollary_constants", "curly_N0",
    "diff_table", "ell6", "ell7", "ell_low", "equidist_report", "errors", "final_constants",
    "generate_table", "invariants", "is_fundamental_discriminant", "k2_upper_bound",
    "kronecker", "lambda_0", "lambda_L", "m_bound", "mellin_H", "minkowski_lookup",
    "psi_C_exact", "reference_values", "smoothing", "solve_omega0", "solve_t0",
    "standard_config", "verifier", "weight_g", "weight_h", "window_coeffs", "y0", "y0_terms",
    "zeros",
]


class TestStartUp:
    def test_package_import_loads_no_submodule(self):
        code = ("import json, sys, chebotarev\n"
                "print(json.dumps([m for m in sys.modules"
                " if m == 'numpy' or m.startswith('chebotarev')]))")
        assert _fresh_python(code) == ["chebotarev"]

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["tables", "--help"],
        ["tables", "--id", "99"],
        ["verify", "--disc", "5", "--x-grid", "1e3,abc"],
        ["tables", "--id", "2"],
        ["tables", "--id", "3", "--beta0", "present"],
    ])
    def test_no_numpy(self, argv):
        assert "numpy" not in _fresh_cli(*argv)[0]

    def test_verify_loads_only_the_verifier(self):
        modules, _ = _fresh_cli("verify", "--disc", "5", "--x", "100")
        assert modules == {"numpy", "chebotarev", "chebotarev.cli", "chebotarev.errors",
                           "chebotarev.verifier"}

    @pytest.mark.parametrize("argv", [
        ["tables", "--id", "4"],
        ["params", "--n0", "7"],
        ["bound", "--nL", "5", "--dL", "1e6", "--logx", "1e5"],
    ])
    def test_constants_commands_load_no_verifier(self, argv):
        # nor bessel: the ell's all live in constants, and bessel holds
        # only the lemma checks
        modules, _ = _fresh_cli(*argv)
        assert "chebotarev.assembly" in modules
        assert "chebotarev.verifier" not in modules
        assert "chebotarev.bessel" not in modules

    @pytest.mark.parametrize("argv, loaded", [
        (["tables", "--id", "5", "--format", "markdown"], []),
        (["tables", "--id", "5", "--published-style"], []),
        (["params", "--n0", "5"], []),
        (["bound", "--nL", "5", "--dL", "1e6", "--logx", "1e5"], []),
        (["tables", "--id", "5", "--format", "csv"], ["csv"]),
        (["tables", "--id", "5", "--format", "jsonl"], ["json"]),
        (["params", "--n0", "5", "--format", "jsonl"], ["json"]),
        (["bound", "--nL", "5", "--dL", "1e6", "--logx", "1e5", "--format", "csv"], []),
    ])
    def test_constants_commands_load_only_their_writer(self, argv, loaded):
        # printed cells round in integers, and a format's writer loads with
        # that format only
        assert _fresh_cli(*argv)[0] & {"decimal", "csv", "json"} == set(loaded)

    def test_public_names_resolve_lazily(self):
        code = ("import importlib, json, chebotarev\n"
                "listed = sorted(n for n in dir(chebotarev) if not n.startswith('_'))\n"
                "wrong = [n for n in chebotarev.__all__ if getattr(chebotarev, n) is not (\n"
                "    importlib.import_module('chebotarev.' + n) if n in chebotarev._EXPORTS else\n"
                "    getattr(importlib.import_module('chebotarev.' + chebotarev._SUBMODULE_OF[n]),"
                " n))]\n"
                "star = {}\n"
                "exec('from chebotarev import *', star)\n"
                "print(json.dumps([listed, sorted(star.keys() - {'__builtins__'}), wrong]))")
        listed, star, wrong = _fresh_python(code)
        assert listed == PUBLIC_NAMES
        assert star == PUBLIC_NAMES
        assert wrong == []

    def test_unknown_attribute(self):
        import chebotarev

        with pytest.raises(AttributeError, match="no_such_name"):
            chebotarev.no_such_name  # noqa: B018

    def test_parser_choices_match_assembly(self):
        from chebotarev import assembly

        assert cli.TABLE_IDS == assembly.TABLE_IDS
        assert list(cli.BOUND_FORMS) == [f.value for f in BoundForm]

    def test_published_style_help_names_the_inputs(self, capsys):
        # the help lists in prose, without importing assembly, exactly the
        # columns each table rounds to nearest
        with pytest.raises(SystemExit):
            cli.main(["tables", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        named = {int(k): set(names.split(" and "))
                 for k, names in re.findall(r"table (\d)'s (\w+(?: and \w+)?)", text)}
        inputs = {}
        for k in cli.TABLE_IDS:
            t = generate_table(k, "present")
            nearest = {c.removesuffix(" [present]")
                       for c, d in zip(t.columns[1:], t.rounding) if d == "nearest"}
            if nearest:
                inputs[k] = nearest
        assert named == inputs == {3: {"d0", "M"}, 4: {"delta0"}, 7: {"b0"}}

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
    def test_one_blas_thread_unless_exported(self):
        if not _numpy_uses_openblas() or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs numpy on OpenBLAS and two usable CPUs")
        # verify always loads numpy; a constants command need not
        argv = ("verify", "--disc", "5", "--x", "100")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert _fresh_cli(*argv, env=env)[1] == 1
        env["OPENBLAS_NUM_THREADS"] = ""  # OpenBLAS reads an empty value as unset
        assert _fresh_cli(*argv, env=env)[1] == 1
        env["OPENBLAS_NUM_THREADS"] = "2"  # the user's value wins
        assert _fresh_cli(*argv, env=env)[1] == 2
