"""Record perfbench/goldens.json from the package in this checkout:

    python3 perfbench/goldens.py

Run it only at a commit whose outputs are known to be right; every later
benchmark run is checked against what it stores (see checks.py).  The
constant commands run in-process through cli.main, whose stdout the
benchmark's fresh processes must then reproduce byte for byte; verify
runs as a fresh process, as in the workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import inputs
import proc

DEFAULT_OPS = 64  # per workload: more than one default-seed run performs
VERIFY_OPS = 12
STREAM_QUERIES = 256  # the first queries of the default-seed bound-stream pool


def main() -> None:
    sys.path.insert(0, str(proc.ROOT / "src"))
    from chebotarev import cli
    from chebotarev.assembly import BoundForm, bound_eval
    from chebotarev.invariants import FieldParams

    def stdout_of(argv: list[str]) -> bytes:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"{argv} failed")
        return buf.getvalue().encode("utf-8")

    argvs = [inputs.tables_argv(t, f, b, p) for t in inputs.TABLE_IDS for f in inputs.FORMATS
             for b in inputs.TABLE_BETA0 for p in (False, True)]
    argvs += [inputs.params_argv(n0, b, f) for n0 in inputs.ROWS for b in inputs.BETA0
              for f in inputs.FORMATS]
    ops = inputs.ops("cli-constants", inputs.DEFAULT_SEED)
    argvs += [a for a in (next(ops) for _ in range(DEFAULT_OPS)) if a[0] == "bound"]
    constants = {checks.key(a): checks.digest(stdout_of(a)) for a in argvs}

    verify = {}
    for workload in ("verify-grid", "verify-wide-disc"):
        ops = inputs.ops(workload, inputs.DEFAULT_SEED)
        for _ in range(VERIFY_OPS):
            argv = next(ops)
            res = proc.run(proc.CLI + argv)
            if res.returncode != 0:
                raise SystemExit(f"{argv} failed: {res.stderr.decode(errors='replace')}")
            verify[checks.key(argv)] = checks.verify_values(argv, res.stdout.decode("utf-8"))

    stream = []
    for q in inputs.stream_pool(inputs.DEFAULT_SEED, STREAM_QUERIES):
        r = bound_eval(FieldParams(q.n_L, q.log_d), q.log_x, q.beta0 == "present", BoundForm(q.form))
        stream.append(checks.bound_record(r))

    with open(checks.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({"constants": constants, "verify": verify, "bound-stream": stream}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(constants)} constant, {len(verify)} verify, {len(stream)} bound goldens "
          f"written to {checks.GOLDENS.relative_to(proc.ROOT)}")


if __name__ == "__main__":
    main()
