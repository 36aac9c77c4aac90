"""Seeded inputs for every workload, made without any package code.

The program only ever receives what these generators produce.  The
benchmark carries its own copy of the Minkowski M column and its own
fundamental-discriminant test, so that a change to the package cannot
change which inputs the benchmark sends.

What sets the cost of an operation is balanced across every prefix of
the sequence, because a run performs only as many operations as fit in
its time: the x of the verify workloads walks 8 strata of its range in
a fixed, evenly spreading order, with a small seeded offset, and the
CLI constants workload goes through the tables round by round.  Medians
over a run therefore stay comparable across seeds; the seed still
chooses discriminants, fields, formats, and options.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# n0 -> M of the published minimal-discriminant table: a field of degree
# n_L on row min(n_L, 21) satisfies n_L <= M log d_L.
MINKOWSKI_M = {
    2: 1.82048, 3: 0.956787, 4: 0.839953, 5: 0.677198, 6: 0.653259,
    7: 0.577273, 8: 0.569605, 9: 0.531078, 10: 0.530072, 11: 0.498035,
    12: 0.499297, 13: 0.475297, 14: 0.477442, 15: 0.458541, 16: 0.461151,
    17: 0.445613, 18: 0.448338, 19: 0.435310, 20: 0.438047, 21: 0.434294,
}
TABLE_IDS = tuple(range(1, 9))
ROWS = tuple(range(2, 22))
FORMATS = ("csv", "markdown", "jsonl")
BOUND_FORMS = ("exp", "log", "classical-nl", "classical-abs")
TABLE_BETA0 = ("present", "absent", "both")
BETA0 = ("present", "absent")

DEFAULT_SEED = 1  # the seed the benchmark was written with; confirm claims on seed 2
N_L_RANGE = (2, 40)
LOG_X_DECADES = (3.0, 7.0)  # thresholds on log x span about 1.7e3 .. 4e6
GRID_POINTS = 4
GRID_TOP = (2.5e7, 5e7)
GRID_DISC_ABS = (5, 5000)  # |D| small: the character-table path
WIDE_X = (5e6, 1e7)
WIDE_DISC_ABS = (10**6 + 1, 10**8)  # |D| > 10^6: per-prime Kronecker path


def min_log_d(n_L: int) -> float:
    """Smallest log d_L the Minkowski table allows for degree n_L."""
    return max(n_L / MINKOWSKI_M[min(n_L, 21)], math.log(3.0))


def minkowski_ok(n_L: int, log_d: float) -> bool:
    return n_L >= 2 and log_d >= min_log_d(n_L)


def _squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        d += 1
    return True


def is_fundamental(D: int) -> bool:
    """D = 1 mod 4 squarefree (D != 1), or D = 4d with d = 2, 3 mod 4
    squarefree."""
    if D in (0, 1):
        return False
    if D % 4 == 1:
        return _squarefree(D)
    if D % 4 == 0:
        return (D // 4) % 4 in (2, 3) and _squarefree(D // 4)
    return False


def fundamental_disc(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        D = rng.choice((-1, 1)) * rng.randint(lo, hi)
        if is_fundamental(D):
            return D


# strata in bit-reversed order: every prefix of the cycle spreads evenly
# over the range, so the few operations of one run sample all of it
_STRATA_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)


def _stratified(rng: random.Random, i: int, lo: float, hi: float) -> float:
    """Operation i's draw from [lo, hi]: the middle of its stratum, moved
    by a seeded offset of at most a quarter of the stratum's width."""
    offset = 0.5 + 0.5 * (rng.random() - 0.5)
    return lo + (_STRATA_ORDER[i % len(_STRATA_ORDER)] + offset) / len(_STRATA_ORDER) * (hi - lo)


@dataclass(frozen=True)
class Query:
    """One bound evaluation: a field, log x, beta0 state and form."""

    n_L: int
    log_d: float
    log_x: float
    beta0: str
    form: str


def bound_queries(rng: random.Random):
    while True:
        n = rng.randint(*N_L_RANGE)
        lo = min_log_d(n) * (1 + 1e-9)
        log_d = lo * 4.0 ** rng.random()
        log_x = 10.0 ** rng.uniform(*LOG_X_DECADES)
        if not minkowski_ok(n, log_d):
            raise RuntimeError(f"generator left the Minkowski range: {n}, {log_d}")
        yield Query(n, log_d, log_x, rng.choice(BETA0), rng.choice(BOUND_FORMS))


def bound_argv(q: Query, fmt: str) -> list[str]:
    return ["bound", "--nL", str(q.n_L), "--log-dL", repr(q.log_d), "--logx", repr(q.log_x),
            "--beta0", q.beta0, "--form", q.form, "--format", fmt]


def tables_argv(table_id: int, fmt: str, beta0: str, published: bool) -> list[str]:
    argv = ["tables", "--id", str(table_id), "--format", fmt, "--beta0", beta0]
    return argv + ["--published-style"] if published else argv


def params_argv(n0: int, beta0: str, fmt: str) -> list[str]:
    return ["params", "--n0", str(n0), "--beta0", beta0, "--format", fmt]


def cli_constants_ops(rng: random.Random):
    """Rounds of eleven CLI invocations in seeded order: the 8 tables in
    the round's format, table 1 once more in the next format, one params
    and one bound call; the format rotates from round to round.

    The cost of an invocation falls in three clusters: import only
    (tables 2 and 3, params, bound), import plus the cold alpha0 calls of
    the E/D/C tables 4-8, and table 1, whose every cell is a cold alpha0
    minimization.  Running table 1 twice a round puts the median inside
    the middle cluster and p90 inside the top one, instead of on a
    boundary between clusters, where one operation more or less in a
    run would move them.
    """
    queries = bound_queries(rng)
    while True:
        for i, fmt in enumerate(FORMATS):
            round_ = [tables_argv(t, fmt, rng.choice(TABLE_BETA0), rng.random() < 0.5)
                      for t in TABLE_IDS]
            round_.append(tables_argv(1, FORMATS[(i + 1) % len(FORMATS)],
                                      rng.choice(TABLE_BETA0), rng.random() < 0.5))
            round_.append(params_argv(rng.choice(ROWS), rng.choice(BETA0), rng.choice(FORMATS)))
            round_.append(bound_argv(next(queries), rng.choice(FORMATS)))
            rng.shuffle(round_)
            yield from round_


def verify_grid_ops(rng: random.Random):
    for i in itertools.count():
        top = round(_stratified(rng, i, *GRID_TOP))
        grid = [round(top * (k + 0.5 * (rng.random() - 0.5)) / GRID_POINTS)
                for k in range(1, GRID_POINTS)] + [top]
        D = fundamental_disc(rng, *GRID_DISC_ABS)
        yield ["verify", "--disc", str(D), "--x-grid", ",".join(map(str, grid)),
               "--format", rng.choice(FORMATS)]


def verify_wide_ops(rng: random.Random):
    for i in itertools.count():
        x = round(_stratified(rng, i, *WIDE_X))
        D = fundamental_disc(rng, *WIDE_DISC_ABS)
        yield ["verify", "--disc", str(D), "--x", str(x), "--format", rng.choice(FORMATS)]


CLI_WORKLOADS = {
    "cli-constants": cli_constants_ops,
    "verify-grid": verify_grid_ops,
    "verify-wide-disc": verify_wide_ops,
}


def ops(workload: str, seed: int):
    """The seeded, endless operation sequence of a CLI workload."""
    return CLI_WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def stream_pool(seed: int, size: int) -> list[Query]:
    gen = bound_queries(random.Random(f"bound-stream:{seed}"))
    return [next(gen) for _ in range(size)]


def primes_below(n: int) -> list[int]:
    """A plain sieve, so probe inputs never come from the package."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return [i for i, v in enumerate(sieve) if v]
