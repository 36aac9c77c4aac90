"""Output checks.  An operation fails when any check here fails.

Constant commands (tables, params, bound) are compared byte for byte,
through a SHA-256 of stdout, with goldens recorded from the package at
the commit that introduced the benchmark: every tables and params
invocation the generator can produce has a golden, and bound has
goldens for the operations of the default seed.  Verify rows are
compared by value, within a relative tolerance that leaves room for a
change of summation order of about one ulp per sieve segment.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
PSI_REL_TOL = 1e-12
EC_ABS_TOL = 1.5e-6  # one unit of the printed sixth decimal, plus rounding
PARTITION_REL = 1e-12  # partition_check must be negligible against x
BOUND_REL_TOL = 1e-12
_TABLE_SUMMARY = re.compile(rb"^table (\d+): (\d+)/(\d+) cells match$")


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-JSON token {token}")


def strict_json(line: str):
    """json.loads with allow_nan=False semantics: NaN and Infinity fail."""
    return json.loads(line, parse_constant=_reject_constant)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _rows(text: str, fmt: str) -> list[dict[str, str]]:
    if fmt == "jsonl":
        return [strict_json(line) for line in text.splitlines() if line]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = [line.strip().strip("|") for line in text.splitlines() if line.strip()]
    head = [c.strip() for c in lines[0].split("|")]
    return [dict(zip(head, (c.strip() for c in line.split("|")))) for line in lines[2:]]


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _values(row: dict[str, str]) -> list[float]:
    return [float(row[k]) for k in ("x", "psi_identity", "psi_nontrivial", "ec_identity", "ec_nontrivial")]


def verify_values(argv: list[str], text: str) -> list[list[float]]:
    """The golden form of a verify output: [x, psi_id, psi_non, ec_id, ec_non] rows."""
    return [_values(row) for row in _rows(text, _option(argv, "--format"))]


def check_verify(argv: list[str], text: str, golden) -> str | None:
    grid = [float(_option(argv, "--x"))] if "--x" in argv else \
        [float(v) for v in _option(argv, "--x-grid").split(",")]
    rows = _rows(text, _option(argv, "--format"))
    if len(rows) != len(grid):
        return f"{len(rows)} rows for {len(grid)} grid points"
    for x, row in zip(grid, rows):
        row_x, psi_i, psi_n, ec_i, ec_n = _values(row)
        if not math.isclose(row_x, x, rel_tol=1e-5):
            return f"row x {row_x} for requested {x}"
        if float(row["partition_check"]) > PARTITION_REL * x:
            return f"partition_check {row['partition_check']} at x={x}"
        for psi, ec in ((psi_i, ec_i), (psi_n, ec_n)):
            if abs(abs(psi - x / 2) / (x / 2) - ec) > EC_ABS_TOL:
                return f"ec {ec} inconsistent with psi {psi} at x={x}"
        # Chebyshev: psi(x) ~ x, and each class takes half within 5%
        if not 0.98 * x < psi_i + psi_n < 1.02 * x or max(ec_i, ec_n) > 0.05:
            return f"psi ({psi_i}, {psi_n}) implausible at x={x}"
    for got, want in zip([_values(row) for row in rows], golden or []):
        if not all(math.isclose(g, w, rel_tol=PSI_REL_TOL) for g, w in zip(got[1:3], want[1:3])):
            return f"psi {got[1:3]} differs from golden {want[1:3]}"
        if not all(abs(g - w) <= EC_ABS_TOL for g, w in zip(got[3:], want[3:])):
            return f"ec {got[3:]} differs from golden {want[3:]}"
    return None


def check_cli(argv: list[str], returncode: int, stdout: bytes, stderr: bytes,
              goldens: dict) -> str | None:
    """Why one CLI operation failed, or None if every check passed.
    argv starts at the subcommand."""
    if returncode != 0:
        return f"exit {returncode}: {stderr[-300:].decode(errors='replace')}"
    text = stdout.decode("utf-8")
    fmt = _option(argv, "--format")
    try:
        if fmt == "jsonl":
            parsed = [strict_json(line) for line in text.splitlines()]
            if not parsed:
                return "no output"
        command = argv[0]
        if command == "verify":
            return check_verify(argv, text, goldens["verify"].get(key(argv)))
        if command == "tables":
            last = stderr.rstrip(b"\n").rsplit(b"\n", 1)[-1]
            m = _TABLE_SUMMARY.match(last)
            if not m or m.group(2) != m.group(3) or b"MISMATCH" in stderr:
                return f"table cells mismatch: {last.decode(errors='replace')}"
        if command == "bound" and fmt == "jsonl":
            r = parsed[0]
            if not _finite(r["threshold_log_x"]) or r["applicable"] != (r["log_x"] >= r["threshold_log_x"]):
                return f"bound threshold/applicable inconsistent: {r}"
            if r["applicable"] != _finite(r["epsilon"]) or (r["applicable"] and r["epsilon"] < 0):
                return f"bound epsilon {r['epsilon']} with applicable={r['applicable']}"
        if command == "params" and fmt == "jsonl":
            bad = [k for k, v in parsed[0].items() if isinstance(v, float) and not math.isfinite(v)]
            if bad:
                return f"params non-finite {bad}"
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc!r}"
    want = goldens["constants"].get(key(argv))
    if want is None and command in ("tables", "params"):
        return "no golden for this invocation"
    if want is not None and digest(stdout) != want:
        return "stdout differs from golden"
    return None


def bound_record(r) -> list:
    """The checked fields of one BoundReport."""
    return [r.applicable, r.epsilon, r.threshold, r.refined_used]


def check_bound(log_x: float, rec: list, golden: list | None) -> str | None:
    applicable, eps, threshold, refined = rec
    if not (_finite(threshold) and threshold > 0) or applicable != (log_x >= threshold):
        return f"threshold {threshold} inconsistent with applicable={applicable}"
    if applicable != (eps is not None) or (eps is not None and not (_finite(eps) and eps >= 0)):
        return f"epsilon {eps} with applicable={applicable}"
    if refined and not applicable:
        return "refined branch reported where the bound does not apply"
    if golden is not None:
        if [applicable, refined] != [golden[0], golden[3]]:
            return f"branch {rec} differs from golden {golden}"
        for got, want in ((eps, golden[1]), (threshold, golden[2])):
            if (got is None) != (want is None) or (got is not None and not math.isclose(got, want, rel_tol=BOUND_REL_TOL)):
                return f"values {rec} differ from golden {golden}"
    return None
