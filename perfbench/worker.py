"""Benchmark code that runs inside a fresh Python process with the package
importable (run.py puts src/ on PYTHONPATH).

    worker.py stream --seed N --seconds S [--setup-only] [--trace]
        The bound-stream workload.  Prints "ready" once set-up is done,
        then one JSON line with the stream's statistics.
    worker.py cli ARGS...
        `python -m chebotarev.cli ARGS` with spans around the import and
        cli.main; the spans go to stderr as a last line "#spans {json}".
    worker.py probe-constants|probe-bound|probe-psi|probe-grid ...
        Layer probes for the traced run; each prints one JSON line with
        its spans and values.

Spans are recorded here, around calls into the package's public
functions; nothing inside the package is instrumented.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import time

import checks
import inputs
from spans import Recorder

POOL = 4096
BATCH = 512
# Queries timed per stream: the middle query of the first batch after each
# of SAMPLES equal ticks of the run.  A fixed count keeps the worker's
# memory the same however fast the program is, and puts the tail (ten
# samples beyond it) near p92, inside the cluster of the slowest bound
# form (a quarter of the queries), where the program's own latency
# decides it rather than a short stall of the machine.
SAMPLES = 128
ROW_TOUCH_LOG_X = 1e4


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


# --------------------------------------------------------------- bound-stream

def stream(seed: int, seconds: float, setup_only: bool, traced: bool) -> None:
    import chebotarev  # noqa: F401  (the package import is part of set-up)
    from chebotarev.assembly import BoundForm, bound_eval
    from chebotarev.invariants import FieldParams

    for n0 in inputs.ROWS:
        for beta0 in (True, False):
            bound_eval(FieldParams(n0, 2 * inputs.min_log_d(n0)), ROW_TOUCH_LOG_X, beta0, BoundForm.EXP)
    print("ready", flush=True)
    if setup_only:
        return

    pool = inputs.stream_pool(seed, POOL)
    args = [(q.n_L, q.log_d, q.log_x, q.beta0 == "present", BoundForm(q.form)) for q in pool]
    first: list = [None] * POOL
    wall, cpu = [], []
    mismatched = 0
    errors = [0, []]  # count, first examples
    rec = Recorder()
    batch_ns = {False: 0, True: 0}
    perf, proc_time = time.perf_counter_ns, time.process_time_ns
    start = perf()
    tick = int(seconds * 1e9 / SAMPLES)
    next_sample = start

    def batch(first_query: int, trace: bool) -> None:
        nonlocal mismatched, next_sample
        b0, c0 = perf(), proc_time()
        # untimed queries run without clock reads; the sampled one sits mid-batch,
        # away from the process_time system calls at the batch's ends
        sample_at = first_query + BATCH // 2 if not trace and b0 >= next_sample else -1
        for i in range(first_query, first_query + BATCH):
            j = i % POOL
            n, log_d, log_x, beta0, form = args[j]
            timed = trace or i == sample_at
            t0 = perf() if timed else 0
            try:
                field = FieldParams(n, log_d)
                tm = perf() if trace else 0
                r = bound_eval(field, log_x, beta0, form)
            except Exception as exc:  # a program error fails this query only
                errors[0] += 1
                if len(errors[1]) < 3:
                    errors[1].append(f"{pool[j]}: {exc!r}")
                continue
            if timed:
                t1 = perf()
                if trace:
                    rec.add("invariants.FieldParams", t0, tm)
                    rec.add("assembly.bound_eval", tm, t1)
                else:
                    wall.append(t1 - t0)
            got = checks.bound_record(r)
            if first[j] is None:
                first[j] = got
            elif got != first[j]:
                mismatched += 1
        c1, b1 = proc_time(), perf()
        batch_ns[trace] += b1 - b0
        if not trace:
            cpu.append((c1 - c0) / BATCH)
        if sample_at >= 0:
            next_sample += tick

    deadline = start + int(seconds * 1e9)
    done = 0
    while True:
        batch(done, False)
        if traced:  # the same queries again, with spans
            batch(done, True)
            rec.count("assembly.bound_eval_calls", BATCH)
        done += BATCH
        if perf() >= deadline:
            break
    elapsed = (perf() - start) / 1e9

    goldens = checks.load_goldens()["bound-stream"] if seed == inputs.DEFAULT_SEED else []
    bad = set()
    for j, got in enumerate(first):
        if got is None:
            continue
        golden = goldens[j] if j < len(goldens) else None
        if checks.check_bound(pool[j].log_x, got, golden) is not None:
            bad.add(j)
    runs = 2 if traced else 1
    hits = [done // POOL + (j < done % POOL) for j in range(POOL)]
    applicable = sum(1 for got in first if got is not None and got[0])
    _emit({
        "attempted": done * runs,
        "failed": min(done * runs, errors[0] + mismatched + runs * sum(hits[j] for j in bad)),
        "bad_examples": errors[1] + [[pool[j].__dict__, first[j]] for j in sorted(bad)[:3]],
        "both_sides": [applicable, sum(1 for g in first if g is not None) - applicable],
        "ops": done,
        "elapsed_s": elapsed,
        "wall_ns": wall,
        "cpu_ns": cpu,
        "overhead_ratio": batch_ns[True] / batch_ns[False] if traced else None,
        "trace": rec.dump(),
    })


# ------------------------------------------------------------------ cli

def cli(argv: list[str]) -> None:
    rec = Recorder()
    code = 1
    try:
        with rec.span("cli.import"):
            from chebotarev import cli as chebotarev_cli
        with rec.span("cli.main"):
            code = chebotarev_cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        sys.stderr.write("#spans " + json.dumps(rec.dump()) + "\n")
        sys.stderr.flush()
    sys.exit(code)


# ------------------------------------------------------------------ probes

def probe_constants(seed: int) -> None:
    """Import layers, then the cold constants path in one fresh process:
    alpha0 calls, tables 1..8 in id order (each span holds the cold work
    that table adds), diff, and the per-configuration layers warm."""
    rec = Recorder()
    with rec.span("import.numpy"):
        import numpy  # noqa: F401
    with rec.span("import.scipy_integrate"):
        import scipy.integrate  # noqa: F401
    with rec.span("import.chebotarev"):
        import chebotarev.cli  # noqa: F401
    from chebotarev import zeros
    from chebotarev.assembly import (Delta0Mode, choose_delta0, diff_table, final_constants,
                                     generate_table, standard_config)
    from chebotarev.bessel import ell6, ell7
    from chebotarev.constants import compute_ells
    from chebotarev.reference_values import matches_printed
    from chebotarev.smoothing import m_bound

    original, seen = zeros.alpha0, set()

    def alpha0(T, row):
        cold = (T, row) not in seen
        seen.add((T, row))
        rec.count("zeros.alpha0_calls")
        rec.count("zeros.alpha0_cold_calls", cold)
        name = "zeros.alpha0.cold" if cold else "zeros.alpha0"
        with rec.span(name):
            return original(T, row)

    patched = [mod for mod in list(sys.modules.values())
               if getattr(mod, "__name__", "").startswith("chebotarev")
               and getattr(mod, "alpha0", None) is original]
    for mod in patched:
        mod.alpha0 = alpha0
    tables = []
    for k in inputs.TABLE_IDS:
        with rec.span(f"assembly.generate_table.t{k}"):
            tables.append(generate_table(k, "both"))
    for mod in patched:  # count the calls of the cold tables only
        mod.alpha0 = original
    with rec.span("assembly.diff_table"):
        for table in tables:
            diff_table(table)
    cells = [(c, p, t.rel_tol) for t in tables for crow, prow in zip(t.computed, t.printed)
             for c, p in zip(crow, prow) if p is not None and c is not None and not math.isnan(c)]
    with rec.span("reference_values.matches_printed"):
        for c, p, tol in cells:
            matches_printed(c, p, rel_tol=tol)
    rec.count("reference_values.matches_printed_calls", len(cells))

    configs = [standard_config(n0, b) for n0 in inputs.ROWS for b in (True, False)]
    with rec.span("constants.compute_ells"):
        for cfg in configs:
            compute_ells(cfg)
    with rec.span("bessel.ell_tails"):
        for cfg in configs:
            ell6(cfg.m, cfg.row.M, cfg.T0)
            ell7(cfg.m, cfg.row.M, zeros.R2, cfg.T0, cfg.omega0, cfg.x0_log, cfg.row.n0)
    with rec.span("smoothing.m_bound"):
        for _ in range(25):
            for cfg in configs:
                m_bound(cfg.delta0, cfg.m)
    rec.count("smoothing.m_bound_calls", 25 * len(configs))
    with rec.span("assembly.final_constants"):
        for cfg in configs:
            final_constants(cfg)

    rng = random.Random(f"probe-constants:{seed}")
    for _ in range(5):
        omega0 = rng.uniform(1.0, 3.0)
        with rec.span("zeros.solve_t0"):
            zeros.solve_t0(omega0)
    for _ in range(2):
        n0, beta0 = rng.choice(inputs.ROWS[:-1]), rng.random() < 0.5
        with rec.span("assembly.choose_delta0"):
            choose_delta0(n0, beta0, Delta0Mode.SEARCH)
    _emit({"trace": rec.dump()})


def probe_bound(seed: int, top: int) -> None:
    """Warm per-call layers: bound_eval (first query on a row, then warm),
    FieldParams, in-process cli.main, kronecker_symbol and one sieve."""
    import chebotarev  # noqa: F401
    from chebotarev import cli as chebotarev_cli
    from chebotarev.assembly import BoundForm, bound_eval
    from chebotarev.invariants import FieldParams
    from chebotarev.verifier import kronecker_symbol, primes_up_to

    rec = Recorder()
    rng = random.Random(f"probe-bound:{seed}")
    pairs = rng.sample([(n0, b) for n0 in inputs.ROWS for b in (True, False)], 6)
    for n0, beta0 in pairs:
        field = FieldParams(n0, 2 * inputs.min_log_d(n0))
        with rec.span("assembly.bound_eval.first"):
            bound_eval(field, ROW_TOUCH_LOG_X, beta0, BoundForm.EXP)
    for n0 in inputs.ROWS:
        for beta0 in (True, False):
            bound_eval(FieldParams(n0, 2 * inputs.min_log_d(n0)), ROW_TOUCH_LOG_X, beta0, BoundForm.EXP)
    perf = time.perf_counter_ns
    for q in inputs.stream_pool(seed + 1, 2000):
        t0 = perf()
        field = FieldParams(q.n_L, q.log_d)
        t1 = perf()
        bound_eval(field, q.log_x, q.beta0 == "present", BoundForm(q.form))
        t2 = perf()
        rec.add("invariants.FieldParams", t0, t1)
        rec.add("assembly.bound_eval", t1, t2)
    rec.count("assembly.bound_eval_calls", 2000 + len(pairs))

    ops = inputs.ops("cli-constants", seed)
    argvs = [next(ops) for _ in range(12)]
    for timed in (False, True):  # the first pass warms every constant
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                with (rec.span("cli.main") if timed else contextlib.nullcontext()):
                    chebotarev_cli.main(argv)

    D = inputs.fundamental_disc(rng, *inputs.WIDE_DISC_ABS)
    primes = [p for p in inputs.primes_below(1_200_000) if p > 1_000_000]
    sample = [rng.choice(primes) for _ in range(20_000)]
    with rec.span("verifier.kronecker_symbol"):
        for p in sample:
            kronecker_symbol(D, p)
    rec.count("verifier.kronecker_symbol_calls", len(sample))
    with rec.span("verifier.primes_up_to"):
        n = len(primes_up_to(top))
    rec.count("verifier.primes_up_to_primes", n)
    _emit({"trace": rec.dump()})


def probe_psi(disc: int, x: int) -> None:
    from chebotarev.verifier import QuadraticField, psi_pair

    rec = Recorder()
    field = QuadraticField(disc)
    with rec.span("verifier.psi_pair"):
        psi_pair(field, x)
    _emit({"trace": rec.dump()})


def probe_grid(disc: int, grid: list[int]) -> None:
    from chebotarev import verifier

    rec = Recorder()
    original = verifier.primes_up_to

    def primes_up_to(n):
        primes = original(n)
        rec.count("verifier.primes_swept", len(primes))
        return primes

    verifier.primes_up_to = primes_up_to
    field = verifier.QuadraticField(disc)
    with rec.span("verifier.equidist_report"):
        verifier.equidist_report(field, grid)
    _emit({"trace": rec.dump()})


def main() -> None:
    if sys.argv[1:2] == ["cli"]:
        cli(sys.argv[2:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("stream", "probe-constants", "probe-bound", "probe-psi", "probe-grid"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--disc", type=int)
    parser.add_argument("--x", type=int)
    parser.add_argument("--grid")
    a = parser.parse_args()
    if a.mode == "stream":
        stream(a.seed, a.seconds, a.setup_only, a.trace)
    elif a.mode == "probe-constants":
        probe_constants(a.seed)
    elif a.mode == "probe-bound":
        probe_bound(a.seed, a.x)
    elif a.mode == "probe-psi":
        probe_psi(a.disc, a.x)
    else:
        probe_grid(a.disc, [int(v) for v in a.grid.split(",")])


if __name__ == "__main__":
    main()
