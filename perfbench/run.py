"""Benchmark of the chebotarev package and CLI, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):

    cli-constants     fresh `tables`, `params` and `bound` processes
    bound-stream      one warm process answering seeded bound_eval queries
    verify-grid       fresh `verify --x-grid` on small |D|, grid top 2.5e7..5e7
    verify-wide-disc  fresh `verify --x` on |D| > 10^6, x in 5e6..1e7

Every workload is one client in a closed loop.  Operations start until
--seconds have passed; every operation's output is checked.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, from spans that
this benchmark records around calls into the package (written to
perfbench/out/).  The line before it, "# detail {...}", records the tail
percentile, the sample counts and any failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import checks
import inputs
import proc
from proc import CLI, PY, ROOT, WORKER, median, tail
from spans import Recorder

WORKLOADS = ("cli-constants", "bound-stream", "verify-grid", "verify-wide-disc")
SETUP_REPEATS = 5
OUT = proc.HERE / "out"


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def note(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            sys.stderr.write(f"FAILED {what}: {reason}\n")
            if len(self.examples) < 5:
                self.examples.append(f"{what}: {reason}")


def _import_wall() -> float:
    res = proc.run([PY, "-c", "import chebotarev"])
    if res.returncode != 0:
        raise SystemExit(f"import chebotarev failed:\n{res.stderr.decode(errors='replace')}")
    return res.wall_s


def _op_metrics(walls, cpus, rsss, ops, elapsed, setup, fails) -> tuple[dict, dict]:
    """End-to-end metrics from per-operation samples (seconds, MB)."""
    value, pct, n = tail(walls)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_ms": (1e3 * median(walls), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "ops_per_s": (ops / elapsed, "1/s"),
        "cpu_p50_ms": (1e3 * median(cpus), "ms"),
        "peak_rss_mb": (median(rsss), "MB"),
        "ok_ratio": ((fails.attempted - fails.failed) / fails.attempted, "ratio"),
    }
    return metrics, {"ops": ops, "op_tail_percentile": pct, "op_tail_samples": n,
                     "fail_ratio": fails.failed / fails.attempted}


# ------------------------------------------------------------- CLI workloads

def _cli_op(argv: list[str], order: tuple[bool, ...], rec: Recorder, goldens: dict, fails: Failures):
    """One operation, run once per entry of order: plain (False) or under
    the span wrapper (True).  Returns the runs by kind."""
    runs = {}
    for wrapped in order:
        with rec.span(f"op.{argv[0]}") as sid:
            res = proc.run((WORKER + ["cli"] if wrapped else CLI) + argv)
        stderr = res.stderr
        if wrapped:
            stderr, _, dump = res.stderr.rpartition(b"#spans ")
            if dump:
                rec.merge(json.loads(dump), sid)
        fails.note(checks.key(argv), checks.check_cli(argv, res.returncode, res.stdout, stderr, goldens))
        runs[wrapped] = res
    return runs


def cli_workload(workload: str, seed: int, seconds: float, traced: bool, rec: Recorder):
    goldens = checks.load_goldens()
    setup = None if traced else median([_import_wall() for _ in range(SETUP_REPEATS)])
    fails = Failures()
    ops = inputs.ops(workload, seed)
    walls, cpus, rsss, wall_pairs = [], [], [], [0.0, 0.0]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        # traced, each operation runs plain and wrapped, alternating which goes first
        order = ((False, True) if len(walls) % 2 else (True, False)) if traced else (False,)
        runs = _cli_op(next(ops), order, rec, goldens, fails)
        plain = runs[False]
        walls.append(plain.wall_s)
        cpus.append(plain.cpu_s)
        rsss.append(plain.rss_mb)
        if traced:
            wall_pairs[0] += runs[True].wall_s
            wall_pairs[1] += plain.wall_s
    elapsed = time.perf_counter() - start
    metrics, detail = _op_metrics(walls, cpus, rsss, len(walls), elapsed, setup, fails)
    overhead = wall_pairs[0] / wall_pairs[1] if traced else None
    return metrics, detail, fails, overhead


# -------------------------------------------------------------- bound-stream

def stream_workload(seed: int, seconds: float, traced: bool, rec: Recorder):
    fails = Failures()
    setups = []
    if not traced:
        for _ in range(SETUP_REPEATS - 1):
            res = proc.run(WORKER + ["stream", "--seed", str(seed), "--setup-only"], ready_line=True)
            fails.note("stream set-up", None if res.returncode == 0 and res.ready_s else res.stderr[-300:].decode())
            setups.append(res.ready_s or res.wall_s)
    argv = WORKER + ["stream", "--seed", str(seed), "--seconds", str(seconds)] + (["--trace"] if traced else [])
    with rec.span("op.stream") as sid:
        res = proc.run(argv, ready_line=True)
    if res.returncode != 0:
        raise SystemExit(f"stream worker failed:\n{res.stderr.decode(errors='replace')}")
    setups.append(res.ready_s)
    out = json.loads(res.stdout.splitlines()[-1])
    rec.merge(out["trace"], sid)
    fails.attempted += out["attempted"]
    fails.failed += out["failed"]
    for example in out["bad_examples"]:
        fails.examples.append(f"bound_eval {example}")
        sys.stderr.write(f"FAILED bound_eval {example}\n")
    if min(out["both_sides"]) == 0:
        raise SystemExit(f"stream pool does not reach both sides of the threshold: {out['both_sides']}")
    walls = [ns / 1e9 for ns in out["wall_ns"]]
    cpus = [ns / 1e9 for ns in out["cpu_ns"]]
    metrics, detail = _op_metrics(walls, cpus, [res.rss_mb], out["ops"], out["elapsed_s"],
                                  median(setups), fails)
    detail["applicable_vs_not"] = out["both_sides"]
    return metrics, detail, fails, out["overhead_ratio"]


# ---------------------------------------------------------------- layer probes

def _durations(dump: dict, name: str) -> list[int]:
    return [end - start for _, n, start, end, _ in dump["spans"] if n == name]


def _total(dump: dict, name: str) -> int:
    return sum(_durations(dump, name))


def layer_probes(seed: int, rec: Recorder, fails: Failures) -> dict:
    """Fresh-process probes of every layer; the same on every workload.
    The verifier probes use the first grid of verify-grid for this seed."""
    grid_argv = next(inputs.ops("verify-grid", seed))
    disc = grid_argv[grid_argv.index("--disc") + 1]
    grid = grid_argv[grid_argv.index("--x-grid") + 1]
    top = grid.rsplit(",", 1)[-1]
    probes = {
        "probe-constants": ["--seed", str(seed)],
        "probe-bound": ["--seed", str(seed), "--x", top],
        "probe-psi": ["--disc", disc, "--x", top],
        "probe-grid": ["--disc", disc, "--grid", grid],
    }
    dumps, rss = {}, {}
    for name, args in probes.items():
        with rec.span(name) as sid:
            res = proc.run(WORKER + [name] + args)
        if res.returncode != 0:
            raise SystemExit(f"{name} failed:\n{res.stderr.decode(errors='replace')}")
        fails.note(name, None)
        dumps[name] = json.loads(res.stdout.splitlines()[-1])["trace"]
        rec.merge(dumps[name], sid)
        rss[name] = res.rss_mb

    c, b = dumps["probe-constants"], dumps["probe-bound"]
    psi_ns = _total(dumps["probe-psi"], "verifier.psi_pair")
    grid_ns = _total(dumps["probe-grid"], "verifier.equidist_report")
    sieve_ns = _total(b, "verifier.primes_up_to")
    return {
        "import.numpy_ms": (_total(c, "import.numpy") / 1e6, "ms"),
        "import.scipy_integrate_ms": (_total(c, "import.scipy_integrate") / 1e6, "ms"),
        "import.chebotarev_ms": (_total(c, "import.chebotarev") / 1e6, "ms"),
        "zeros.alpha0_ms": (median(_durations(c, "zeros.alpha0.cold")) / 1e6, "ms"),
        "zeros.alpha0_calls": (c["counts"].get("zeros.alpha0_calls", 0), "count"),
        "zeros.alpha0_cold_calls": (c["counts"].get("zeros.alpha0_cold_calls", 0), "count"),
        "zeros.solve_t0_ms": (median(_durations(c, "zeros.solve_t0")) / 1e6, "ms"),
        "bessel.ell_tails_ms": (_total(c, "bessel.ell_tails") / 1e6, "ms"),
        "constants.compute_ells_ms": (_total(c, "constants.compute_ells") / 1e6, "ms"),
        "smoothing.m_bound_us": (_total(c, "smoothing.m_bound") / 1e3 / c["counts"]["smoothing.m_bound_calls"], "us"),
        "assembly.final_constants_ms": (_total(c, "assembly.final_constants") / 1e6, "ms"),
        **{f"assembly.generate_table.t{k}_ms": (_total(c, f"assembly.generate_table.t{k}") / 1e6, "ms")
           for k in inputs.TABLE_IDS},
        "assembly.diff_table_ms": (_total(c, "assembly.diff_table") / 1e6, "ms"),
        "reference_values.matches_printed_us": (
            _total(c, "reference_values.matches_printed") / 1e3 / c["counts"]["reference_values.matches_printed_calls"], "us"),
        "assembly.choose_delta0_ms": (median(_durations(c, "assembly.choose_delta0")) / 1e6, "ms"),
        "invariants.field_params_us": (median(_durations(b, "invariants.FieldParams")) / 1e3, "us"),
        "assembly.bound_eval_us": (median(_durations(b, "assembly.bound_eval")) / 1e3, "us"),
        "assembly.bound_eval_first_ms": (median(_durations(b, "assembly.bound_eval.first")) / 1e6, "ms"),
        "cli.main_warm_ms": (median(_durations(b, "cli.main")) / 1e6, "ms"),
        "verifier.primes_up_to_ms": (sieve_ns / 1e6, "ms"),
        "verifier.sieve_primes_per_s": (b["counts"]["verifier.primes_up_to_primes"] / (sieve_ns / 1e9), "1/s"),
        "verifier.primes_swept": (dumps["probe-grid"]["counts"].get("verifier.primes_swept", 0), "count"),
        "verifier.psi_pair_ms": (psi_ns / 1e6, "ms"),
        "verifier.equidist_report_ms": (grid_ns / 1e6, "ms"),
        "verifier.grid_cost_ratio": (grid_ns / psi_ns, "ratio"),
        "verifier.grid_rss_ratio": (rss["probe-grid"] / rss["probe-psi"], "ratio"),
        "verifier.kronecker_symbol_us": (
            _total(b, "verifier.kronecker_symbol") / 1e3 / b["counts"]["verifier.kronecker_symbol_calls"], "us"),
    }


# ---------------------------------------------------------------------- main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chebotarev" / "cli.py").is_file():
        sys.stderr.write(f"no package source under {ROOT / 'src'}; run from a checkout of the repository\n")
        return 2
    traced = bool(args.trace)

    _import_wall()  # compiles bytecode and warms the file cache; not measured
    rec = Recorder()
    with rec.span(f"workload.{args.workload}"):
        if args.workload == "bound-stream":
            metrics, detail, fails, overhead = stream_workload(args.seed, args.seconds, traced, rec)
        else:
            metrics, detail, fails, overhead = cli_workload(args.workload, args.seed, args.seconds, traced, rec)
        if traced:
            metrics = layer_probes(args.seed, rec, fails)
            metrics["assembly.bound_eval_calls"] = (rec.counts["assembly.bound_eval_calls"], "count")
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
    if traced:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-{args.seed}.json"
        rec.write(path)
        detail["spans_file"] = str(path.relative_to(ROOT))
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, failures=fails.examples)
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
