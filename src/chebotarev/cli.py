"""Command-line front end.

Subcommands:

  tables  regenerate a published constant table, diff it against the
          embedded reference values, and render it (csv / markdown /
          jsonl).  Exit 0 when every cell matches, 1 on any mismatch.
  bound   evaluate one error-bound form for a user-supplied field.
  verify  exact psi_C(x) equidistribution report for a quadratic field.
  params  dump the tuning configuration and derived constants of a row.

Every command is deterministic: identical invocations produce
byte-identical output.  Usage errors exit 2 (argparse convention), and
so does a failed write to stdout or stderr (a closed stream, a full
disk); numeric mismatches exit 1, success exits 0.

Each command imports only the modules it runs: `verify` loads no
constants module, and `tables`, `bound` and `params` never load the
verifier or bessel.  A format's writer loads with that format: `csv`
only under --format csv, `json` only under --format jsonl.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import os
import sys
from typing import IO, TYPE_CHECKING, NoReturn

from .errors import DomainError, ResourceError

if TYPE_CHECKING:
    from .assembly import Table

FORMATS = ("csv", "markdown", "jsonl")
KEY_VALUE_FORMATS = "csv and markdown print the same key = value lines; jsonl, one JSON object"
# assembly.TABLE_IDS and the BoundForm values, kept here so that building
# the parser imports no computing module (tests/test_cli.py pins them)
TABLE_IDS = (1, 2, 3, 4, 5, 6, 7, 8)
BOUND_FORMS = ("exp", "log", "classical-nl", "classical-abs")


def _fmt(v: float | None) -> str:
    if v is None:
        return ""
    return f"{v:.6g}"


def _render_rows(columns: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "jsonl":
        import json

        lines = [json.dumps(dict(zip(columns, r)), sort_keys=True, allow_nan=False) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(c), *(len(r[i]) for r in rows)) if rows else len(c)
              for i, c in enumerate(columns)]
    head = "| " + " | ".join(c.ljust(w) for c, w in zip(columns, widths)) + " |"
    sep = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    body = ["| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |" for r in rows]
    return "\n".join([head, sep, *body]) + "\n"


def _write(name: str, text: str) -> None:
    """Write text to sys.stdout or sys.stderr (name) and flush it.  A
    closed stream (None) or a failed write raises DomainError, so the
    command exits 2 and never ends in a traceback.  A closed stream stays
    closed, and a failed stream's descriptor goes to the null device, where
    the flush at exit cannot fail again."""
    stream = getattr(sys, name)
    if stream is None:
        raise DomainError(f"cannot write to {name}: it is closed")
    try:
        if text:  # stderr writes through, and even an empty write fails on a full device
            stream.write(text)
        stream.flush()
    except OSError as exc:
        try:  # the unwritten text stays buffered: drop it there
            fd = stream.fileno()
        except OSError:  # a stream with no descriptor, such as a host's StringIO
            pass
        else:
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise DomainError(f"cannot write to {name}: {exc.strerror or exc}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        _write("stdout", text)


def _emit_record(payload: dict, lines: list[str], args: argparse.Namespace) -> None:
    """Write one record: payload as a JSON object under --format jsonl,
    the command's own key = value lines under csv and markdown."""
    if args.format == "jsonl":
        import json

        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    else:
        text = "\n".join(lines)
    _emit(text + "\n", args.out)


def _table_rows(table: Table, published_style: bool) -> list[list[str]]:
    from .reference_values import round_like

    rows = []
    for label, crow, prow in zip(table.labels, table.computed, table.printed):
        cells = []
        for direction, c, p in zip(table.rounding, crow, prow):
            if published_style and p is not None and c is not None:
                cells.append(round_like(c, p, direction))
            else:
                cells.append(_fmt(c))
        rows.append([label] + cells)
    return rows


def cmd_tables(args: argparse.Namespace) -> int:
    from .assembly import diff_table, generate_table

    table = generate_table(args.id, args.beta0)
    text = _render_rows(list(table.columns), _table_rows(table, args.published_style),
                        args.format)
    _emit(text, args.out)

    diffs = diff_table(table)
    bad = [d for d in diffs if not d.ok]
    lines = [f"{'ok' if d.ok else 'MISMATCH'} table {table.table_id} row {d.row} {d.column}: "
             f"computed {d.computed:.8g} vs printed {d.printed}\n"
             for d in (diffs if args.diff else bad)]
    lines.append(f"table {table.table_id}: {len(diffs) - len(bad)}/{len(diffs)} cells match\n")
    _write("stderr", "".join(lines))
    return 1 if bad else 0


def cmd_bound(args: argparse.Namespace) -> int:
    from .assembly import BoundForm, bound_eval
    from .invariants import FieldParams

    if args.log_dL is not None:
        field = FieldParams(args.nL, args.log_dL)
    else:
        field = FieldParams.from_discriminant(args.nL, args.dL)
    report = bound_eval(field, args.logx, args.beta0 == "present", BoundForm(args.form))

    payload = {
        "form": report.form.value,
        "n_L": report.n_L,
        "log_dL": field.log_dL,
        "log_x": report.log_x,
        "beta0": args.beta0,
        "threshold_log_x": report.threshold,
        "applicable": report.applicable,
        "epsilon": report.epsilon,
        "refined_branch": report.refined_used,
        "exceptional_term": report.exceptional_term,
        "details": report.details,
    }
    lines = [
        f"form:               {payload['form']}",
        f"field:              n_L = {report.n_L}, log d_L = {field.log_dL:.6g}",
        f"threshold on log x: {report.threshold:.6g}",
        f"applicable:         {'yes' if report.applicable else 'no'} (log x = {report.log_x:.6g})",
    ]
    if report.applicable:
        lines.append(f"epsilon:            {report.epsilon:.6g}"
                     f" ({'refined' if report.refined_used else 'general'} branch)")
    else:
        lines.append("epsilon:            not applicable in this range")
    if report.exceptional_term:
        lines.append(f"exceptional term:   + {report.exceptional_term} (if beta0 exists)")
    else:
        lines.append("exceptional term:   none (beta0 assumed absent)")
    lines += [f"  {k} = {v:.6g}" for k, v in sorted(report.details.items())]
    _emit_record(payload, lines, args)
    return 0


def _x_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_verify(args: argparse.Namespace) -> int:
    from .verifier import QuadraticField, equidist_report

    field = QuadraticField(args.disc)
    grid = [args.x] if args.x is not None else args.x_grid
    rows = equidist_report(field, grid, args.sieve_limit)
    columns = ["x", "psi_identity", "psi_nontrivial", "ec_identity",
               "ec_nontrivial", "partition_check"]
    table_rows = []
    for r in rows:
        check = abs(r.psi_identity + r.psi_nontrivial - r.unramified_total)
        table_rows.append([
            _fmt(r.x), f"{r.psi_identity:.6f}", f"{r.psi_nontrivial:.6f}",
            f"{r.ec_identity:.6f}", f"{r.ec_nontrivial:.6f}", f"{check:.2e}",
        ])
    _emit(_render_rows(columns, table_rows, args.format), args.out)
    return 0


def cmd_params(args: argparse.Namespace) -> int:
    from .assembly import final_constants, standard_config

    finals = final_constants(standard_config(args.n0, args.beta0 == "present"))
    cfg, ells = finals.cfg, finals.ells
    payload = {
        "n0": cfg.row.n0,
        "M": cfg.row.M,
        "log_d0": cfg.row.log_d0,
        "beta0": args.beta0,
        "m": cfg.m,
        "delta0": cfg.delta0,
        "omega0": cfg.omega0,
        "t0": cfg.t0,
        "T0": cfg.T0,
        "alpha": cfg.alpha,
        "log_x0": cfg.x0_log,
        "ell": {f"l{i}": getattr(ells, f"l{i}") for i in range(8)},
        "Y0": ells.Y0,
    }
    # the theorem constants, E1 to exp_coeff_half, in field order
    payload.update((f.name, getattr(finals, f.name)) for f in dataclasses.fields(finals)
                   if f.name not in ("cfg", "ells", "k"))
    lines = []
    for key, val in payload.items():
        for k2, v2 in val.items() if isinstance(val, dict) else [(key, val)]:
            lines.append(f"{k2:16s} = {_fmt(v2) if isinstance(v2, float) else v2}")
    _emit_record(payload, lines, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that writes its help, usage and error messages
    through _write, so that a closed or full stream is a DomainError
    (exit 2) on every Python release: argparse itself ignores such a
    failed write in some releases and lets an OSError or AttributeError
    out of parse_args in others.  Its subparsers are of this class too."""

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if message:  # file is sys.stdout or sys.stderr, None when that one is closed
            _write("stdout" if file is sys.stdout else "stderr", message)

    def error(self, message: str) -> NoReturn:
        # argparse's own prints the usage to stdout when stderr is closed
        self.exit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def exit(self, status: int = 0, message: str | None = None) -> NoReturn:
        if message:
            try:
                _write("stderr", message)
            except DomainError:  # the message is lost, the status is not
                pass
        sys.exit(status)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chebotarev",
        description="Explicit Chebotarev error-term constants: table "
                    "regeneration, bound evaluation, exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate a published table and diff it")
    p_tables.add_argument("--id", type=int, required=True, choices=TABLE_IDS)
    p_tables.add_argument("--beta0", choices=("present", "absent", "both"), default="both")
    p_tables.add_argument("--format", choices=FORMATS, default="markdown")
    p_tables.add_argument("--out", default=None, help="write rendered table to a file")
    p_tables.add_argument("--diff", action="store_true", help="report every cell, not just mismatches")
    p_tables.add_argument(
        "--published-style", action="store_true",
        help="print each cell at its column's published digits instead of six "
             "significant digits: computed cells round up exactly, and the "
             "columns copied from the paper (table 3's d0 and M, table 4's "
             "delta0, table 7's b0) round to nearest",
    )
    p_tables.set_defaults(func=cmd_tables)

    p_bound = sub.add_parser("bound", help="evaluate an error bound for a field")
    p_bound.add_argument("--nL", type=int, required=True)
    group = p_bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--dL", type=float, help="absolute discriminant")
    group.add_argument("--log-dL", dest="log_dL", type=float, help="log of the absolute discriminant")
    p_bound.add_argument("--logx", type=float, required=True)
    p_bound.add_argument("--beta0", choices=("present", "absent"), default="absent")
    p_bound.add_argument("--form", choices=BOUND_FORMS, default="exp")
    p_bound.add_argument("--format", choices=FORMATS, default="markdown", help=KEY_VALUE_FORMATS)
    p_bound.add_argument("--out", default=None)
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="exact psi_C(x) for a quadratic field")
    p_verify.add_argument("--disc", type=int, required=True, help="fundamental discriminant")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", type=float)
    group.add_argument("--x-grid", dest="x_grid", type=_x_grid, help="comma-separated x values")
    p_verify.add_argument("--sieve-limit", dest="sieve_limit", type=int, default=None,
                          help="hard cap on x, an integer from 1 to 2^46 (default 10^9); "
                               "the cap bounds memory, not time: x = 10^9 takes seconds, "
                               "10^10 about a minute, 10^11 about 20 minutes")
    p_verify.add_argument("--format", choices=FORMATS, default="markdown")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_params = sub.add_parser("params", help="dump a row's tuning parameters and constants")
    p_params.add_argument("--n0", type=int, required=True)
    p_params.add_argument("--beta0", choices=("present", "absent"), default="present")
    p_params.add_argument("--format", choices=FORMATS, default="markdown", help=KEY_VALUE_FORMATS)
    p_params.add_argument("--out", default=None)
    p_params.set_defaults(func=cmd_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # nothing here calls BLAS, so OpenBLAS needs no worker thread, which
        # would spin through up to 0.1 s of CPU per process; a value the user
        # exported still wins (an empty one counts as unset, as OpenBLAS
        # reads it), and a host process that already loaded numpy keeps
        # its own setting
        if not os.environ.get("OPENBLAS_NUM_THREADS"):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        for name in ("stdout", "stderr"):  # entry() ends without a flush
            if getattr(sys, name) is not None:
                _write(name, "")
        return code
    except (DomainError, ResourceError) as exc:
        parser.exit(2, f"error: {exc}\n")


def _watched() -> bool:
    """True when a debugger, profiler or coverage tool is attached, or the
    interpreter should stay open for inspection (python -i): each may still
    act at exit."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or bool(sys.flags.inspect)
            or monitoring is not None and any(monitoring.get_tool(i) is not None
                                              for i in range(6)))


def entry() -> NoReturn:
    """The `chebotarev` command and `python -m chebotarev.cli`.

    Runs main() and, when the process's main program calls it, ends the
    process with os._exit: tearing the interpreter down
    module by module (numpy above all) costs CPU and changes nothing a
    user sees.  It exits normally instead when a tool watches the process
    (see _watched), so the tool can write its results, and when another
    program hosts it (runpy.run_module), which gets a SystemExit it can
    catch.  An exception out of main(), a usage error or a traceback,
    ends the process as it always did."""
    code = main()
    if sys._getframe(1).f_globals is not vars(sys.modules["__main__"]) or _watched():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
