"""Exact prime-power counts psi_C(x) for quadratic extensions of Q.

For L = Q(sqrt(d)) with fundamental discriminant D the Galois group has
two elements, the Artin symbol of an unramified rational prime p is the
Kronecker symbol (D/p), and the two conjugacy-class counts

    psi_C(x) = sum over p not dividing D, p^m <= x, sigma_p^m = C of log p

are computable exactly: a prime power p^m lands in the identity class when
(D/p)^m = +1 (split primes, and even powers of inert primes) and in the
nontrivial class when (D/p) = -1 and m is odd.  Ramified primes are
excluded outright.  Equidistribution predicts psi_C(x) ~ x/2 for both
classes; the normalized deviation E_C(x) = |psi_C(x) - x/2|/(x/2) is what
the explicit bounds elsewhere in this package control.

One ascending pass of a segmented sieve (segments of at most 2^20
numbers, also cut at each x) serves a whole grid, so a grid costs about
what its top x costs and memory is O(segment + sqrt(x) + grid length).
Every x is at most a sieve limit that the caller passes as `limit` (None
means DEFAULT_SIEVE_LIMIT, 10^9; at most MAX_SIEVE_LIMIT, 2^46); the
module reads no environment variable.  A segment holds flags for its odd
numbers only, pre-marked with the multiples of 3..13 by repeating one
period of a wheel pattern.  Log sums run exactly on integers in units of
2^-53 and are rounded once per x.

Importing this module builds no array, and nothing outlives a sweep.  One
sweep holds the wheel pattern (30 030 flags), the base primes up to
sqrt(x), the character's tables, six integer sums per grid point and one
segment at a time.  Every D takes one path: (D/p) is a product of
tables of its local characters, each at most 10^6 long (for |D| <= 10^6,
the one table of residues mod |D|), and of a vectorised Jacobi symbol
(p/m) when D has prime factors above 10^6, m their product.
A segment's 2^19 flags stay while its primes are listed and classified
one chunk of 2^16 flags at a time, so at most 12 245 primes are held at
once, not a segment's 82 025.  A chunk's class sums take the primes'
logs as int64, split into two 29-bit halves, and multiply the character
values into each half in place: no class-index array and no weighted
copies.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, integer

__all__ = [
    "DEFAULT_SIEVE_LIMIT",
    "MAX_SIEVE_LIMIT",
    "MAX_ABS_DISC",
    "ConjugacyClass",
    "QuadraticField",
    "ClassCount",
    "EquidistRow",
    "is_fundamental_discriminant",
    "kronecker",
    "kronecker_symbol",
    "is_prime",
    "primes_up_to",
    "psi_C_exact",
    "psi_pair",
    "equidist_report",
]

DEFAULT_SIEVE_LIMIT = 10**9
# below e^32 = 7.9e13 every log p is under 32, so its units stay under 2^58
# and float64 holds every prime exactly; sqrt of the cap, 2^23, bounds the
# base primes
MAX_SIEVE_LIMIT = 2**46
# D is decomposed by one sieve up to min(sqrt|D|, 10^6): up to this cap,
# 10^6 cubed, what is left then has at most two prime factors, so a
# perfect-square test decides squarefreeness, and every value fits int64
MAX_ABS_DISC = 10**18
_SEGMENT = 2**20  # numbers per segment: its odd-number flags take 512 KiB
_STRIKE_CHUNK = 4096  # striking primes per list: one list a segment below x = 1.5e9
# flags listed as primes at a time: a sweep classifies a segment's primes
# one such chunk at a time, so its per-prime arrays (the primes, their
# character values, their logs and 29-bit halves) hold at most 12 245
# primes, the first chunk's, not a whole segment's 82 025
_LIST_CHUNK = 2**16
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)  # 15015, the wheel's period in odd numbers
_UNIT = 2**53  # log sums run on integers in units of 2^-53


class ConjugacyClass(enum.Enum):
    IDENTITY = "identity"
    NONTRIVIAL = "nontrivial"


def is_fundamental_discriminant(D: int) -> bool:
    """True for D = 1 mod 4 squarefree (D != 1), or D = 4d with
    d = 2, 3 mod 4 squarefree.  DomainError for |D| > MAX_ABS_DISC, and for
    a D that is not an int or a numpy integer: a discriminant is a key, so
    5.0 is not one."""
    if not isinstance(D, (int, np.integer)):
        raise DomainError(f"D must be an integer, got {D!r}")
    D = int(D)
    if abs(D) > MAX_ABS_DISC:
        raise DomainError(f"|D| must be at most {MAX_ABS_DISC:.0e}, got {D}")
    return D not in (0, 1) and _local_parts(D) is not None


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for arbitrary integers, by the binary
    quadratic-reciprocity algorithm.  a and n are integers or integral
    floats, as errors.integer states."""
    a, n = integer(a, "a"), integer(n, "n")
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all 13 bases (OEIS A014233):
# below it they decide primality
_PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with all 13 bases 2..41.

    Exact for n < psi_13 = 3 317 044 064 679 887 385 961 981 (about
    3.3e24), the least strong pseudoprime to all of them.  No base set is
    proven at or above psi_13, so there it raises DomainError, as it does
    for n neither an integer nor an integral float.
    """
    n = integer(n, "n")
    if n < 2:
        return False
    if n >= _PSI_13:
        raise DomainError(f"{n} is too large: primality is proven only below {_PSI_13}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(D: int, p: int) -> int:
    """Artin symbol of the prime p in Q(sqrt(D))/Q, as the Kronecker
    symbol (D/p): 0 ramified, +1 split, -1 inert.  p is an integer or an
    integral float."""
    D = QuadraticField(D).D
    p = integer(p, "p")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return kronecker_symbol(D, p)


@dataclass(frozen=True)
class QuadraticField:
    """A quadratic field keyed by its fundamental discriminant."""

    D: int

    def __post_init__(self) -> None:
        if not is_fundamental_discriminant(self.D):
            raise DomainError(
                f"{self.D} is not a fundamental discriminant "
                "(need D=1 mod 4 squarefree, or 4d with d=2,3 mod 4 squarefree)"
            )
        # a numpy integer D would take numpy's overflowing scalar arithmetic
        object.__setattr__(self, "D", int(self.D))


@dataclass(frozen=True)
class ClassCount:
    """Exact psi_C(x) for one conjugacy class, with the normalized error
    ec = |psi - x/2| / (x/2) (both classes have density 1/2)."""

    cls: ConjugacyClass
    x: float
    psi: float
    ec: float


@dataclass(frozen=True)
class EquidistRow:
    x: float
    psi_identity: float
    psi_nontrivial: float
    ec_identity: float
    ec_nontrivial: float
    # sum of log p over all p^m <= x with p not dividing D, counted without
    # the character, so psi_identity + psi_nontrivial falls short of it
    # whenever the character misclassifies an unramified prime as ramified:
    # the CLI's partition_check, their difference, is float rounding when
    # the character is right.  test_verifier.py's
    # test_partition_against_chebyshev_psi checks this total against the
    # Chebyshev psi from trial division
    unramified_total: float


def _wheel_pattern() -> np.ndarray:
    """Flags for the odd numbers 2j+1, j < 2 _WHEEL: False where one of
    _WHEEL_PRIMES divides 2j+1.  The pattern has period _WHEEL in j, so the
    flags of the odd numbers from 2j+1 on repeat the period that starts at
    j % _WHEEL."""
    flags = np.ones(2 * _WHEEL, dtype=bool)
    for p in _WHEEL_PRIMES:
        flags[(p - 1) // 2 :: p] = False  # 2j+1 = 0 mod p iff j = (p-1)/2 mod p
    return flags


# (D_2/r) over one period of r, for each 2-part D_2 a fundamental
# discriminant can have: none, chi_-4, chi_8 and chi_-8
_TWO_PART = {1: (1,), -4: (0, 1, 0, -1),
             8: (0, 1, 0, -1, 0, -1, 0, 1), -8: (0, 1, 0, 1, 0, -1, 0, -1)}
_TABLE_CAP = 10**6  # the largest tabled prime, and the longest table


def _local_parts(D: int) -> tuple[int, list[int], int] | None:
    """(D_2, qs, m) with D = D_2 prod q* m* for an int D != 0, where
    q* = +-q and m* = +-m are 1 mod 4, qs the primes up to _TABLE_CAP
    dividing D's odd part, ascending, and m what is left of it.  None when
    the odd part is not squarefree or D_2 is not a key of _TWO_PART, which
    for D not 0 or 1 is exactly when D is not fundamental.

    One sieve up to min(sqrt(odd), _TABLE_CAP) finds the qs.  Below
    _TABLE_CAP^2 that leaves m = 1 or the one prime above sqrt(odd), which
    joins qs when at most the cap; above it m has at most two primes, all
    above the cap (three would pass MAX_ABS_DISC = _TABLE_CAP^3), and is
    squarefree unless it is a perfect square."""
    modulus = abs(D)
    odd = modulus // (modulus & -modulus)
    small = primes_up_to(min(math.isqrt(odd), _TABLE_CAP))
    qs = small[odd % small == 0].tolist()
    tabled = math.prod(qs)
    m = odd // tabled
    if math.gcd(m, tabled) > 1 or (m > 1 and math.isqrt(m) ** 2 == m):
        return None
    if 1 < m <= _TABLE_CAP:
        qs, m = [*qs, m], 1
    two = D // math.prod(q if q % 4 == 1 else -q for q in (*qs, m))
    return (two, qs, m) if two in _TWO_PART else None


def _character_tables(D: int) -> tuple[list[np.ndarray], int]:
    """(tables, m) with (D/p) = (p/m) prod t[p mod len(t)] over the tables
    t, int8, for every prime p and a fundamental discriminant D; m is odd.

    chi_D is the product of its local characters: the Legendre symbol
    (p/q) for each odd prime q dividing D, and chi_-4, chi_8 or chi_-8 for
    the 2-part D_2 = D / prod q*, where q* = +-q = 1 mod 4.  Each q up to
    _TABLE_CAP is tabled; the primes above it are left in m, unfactored:
    their q* multiply to m* = +-m = 1 mod 4 and their Legendre symbols to
    the Jacobi symbol (p/m).  A table multiplies into the one before it,
    both tiled to the product of their periods, while that stays at most
    the cap, so every |D| <= _TABLE_CAP has the one table (D/r),
    r = 0 .. |D|-1."""
    two, qs, m = _local_parts(D)
    tables = [np.array(_TWO_PART[two], dtype=np.int8)]
    for q in qs:
        legendre = np.full(q, -1, dtype=np.int8)
        legendre[0] = 0
        for k in range(1, q, 2**16):  # squares < 10^12 fit int64, 512 KiB at a time
            legendre[np.arange(k, min(k + 2**16, q)) ** 2 % q] = 1
        if len(tables[-1]) * q > _TABLE_CAP:
            tables.append(legendre)
        else:
            tables[-1] = np.tile(tables[-1], q) * np.tile(legendre, len(tables[-1]))
    return tables, m


_ODD_POWERS = 0x2AAAAAAAAAAAAAAA  # bits 1, 3, ..., 61: the 2^t < 2^63 with t odd


def _jacobi(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Jacobi symbols (a/n), int8, for int64 arrays with n odd and
    0 <= a < n, by the binary algorithm.  Every value stays below n and no
    product is formed, so it is exact for every n < 2^63.  Each round
    strips the powers of 2 from a, flipping the sign when (2/n) = -1 for an
    odd power (n = 3, 5 mod 8), then swaps a and n by reciprocity, flipping
    when both are 3 mod 4, and reduces a mod n; a pair leaves at a = 0,
    with (a/n) = 0 unless n = 1."""
    out = np.empty(len(n), dtype=np.int8)
    idx = np.arange(len(n))
    flips = np.zeros(len(n), dtype=np.int64)
    while idx.size:
        live = a != 0
        if not live.all():
            done = ~live
            out[idx[done]] = np.where(n[done] == 1, 1 - 2 * flips[done], 0)
            idx, a, n, flips = idx[live], a[live], n[live], flips[live]
            if not idx.size:
                break
        low = a & -a
        flips ^= ((low & _ODD_POWERS) != 0) & ((n >> 1) ^ (n >> 2)) & 1
        a = a // low
        flips ^= (a & n) >> 1 & 1
        a, n = n % a, a
    return out


def _chi(primes: np.ndarray, tables: list[np.ndarray], m: int) -> np.ndarray:
    """(p/m) prod t[p mod len(t)], int8, for the primes p, from
    _character_tables: one gather per table, and one Jacobi symbol per
    prime when m > 1."""
    chi = functools.reduce(operator.imul, [t[primes % len(t)] for t in tables])
    if m > 1:
        chi *= _jacobi(primes % m, np.full_like(primes, m))
    return chi


def _sieve_segment(lo: int, hi: int, ps: np.ndarray, pattern: np.ndarray) -> Iterator[np.ndarray]:
    """The primes in (lo, hi] above 13, lo >= 1, given ps = the primes from
    17 to sqrt(hi): ascending, one array per _LIST_CHUNK flags, so an array
    may be empty.  The strike, at the first array, turns at most
    _STRIKE_CHUNK of ps into Python ints at a time: near the cap, 4096 of
    564 157."""
    a = (lo + 1) // 2  # seg[i] stands for the odd number 2(a + i) + 1
    start = a % _WHEEL
    seg = np.resize(pattern[start : start + _WHEEL], (hi + 1) // 2 - a)
    for c in range(0, len(ps), _STRIKE_CHUNK):
        chunk = ps[c : c + _STRIKE_CHUNK]
        # strike from q p, q the least odd multiplier with q p > lo and q >= p
        q = np.maximum((lo // chunk + 1) | 1, chunk)
        for p, i in zip(chunk.tolist(), ((q * chunk - 1) // 2 - a).tolist()):
            seg[i::p] = False
    for c in range(0, len(seg), _LIST_CHUNK):
        primes = np.flatnonzero(seg[c : c + _LIST_CHUNK])
        primes *= 2
        primes += 2 * (a + c) + 1
        yield primes


def _segments(stops: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """(hi, primes in (lo, hi]) over consecutive ranges covering
    (1, stops[-1]] in ascending order, each at most _SEGMENT long and each
    ending at every stop it reaches.  `stops` is ascending.  A range's
    primes come as several arrays, each with the range's hi.

    A segment sieves only its odd numbers, starting from the wheel pattern,
    so the base primes 2 and _WHEEL_PRIMES are emitted explicitly, as the
    first array of the range they fall in, and only larger ones strike."""
    base = primes_up_to(math.isqrt(stops[-1]))
    base = base[base > _WHEEL_PRIMES[-1]]
    pattern = _wheel_pattern()
    lo = 1
    for stop in stops:
        while lo < stop:
            hi = min(lo + _SEGMENT, stop)
            if lo < _WHEEL_PRIMES[-1]:
                head = [p for p in (2, *_WHEEL_PRIMES) if lo < p <= hi]
                yield hi, np.array(head, dtype=np.int64)
            strike = base[: np.searchsorted(base, math.isqrt(hi), side="right")]  # p*p <= hi
            for primes in _sieve_segment(lo, hi, strike, pattern):
                yield hi, primes
            lo = hi


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, via a segmented sieve of Eratosthenes.
    n is an integer; an integral float such as 1e6 counts as one.  The
    whole list is held at once, about 400 MB at DEFAULT_SIEVE_LIMIT, so an
    n above that cap is a ResourceError before anything is sieved."""
    n = integer(n, "n")
    if n > DEFAULT_SIEVE_LIMIT:
        raise ResourceError(f"primes_up_to({n}) would hold every prime up to it; "
                            f"the cap is {DEFAULT_SIEVE_LIMIT}")
    chunks = [primes for _, primes in _segments([n])] if n > 1 else []
    return np.concatenate([np.empty(0, dtype=np.int64), *chunks])


def _chi_moments(half: np.ndarray, chi: np.ndarray) -> list[int]:
    """[sum u, sum chi u, sum chi^2 u] over the u in half, multiplying chi
    into half in place.  half holds one list chunk's primes, at most
    12 245 values below 2^29, and chi is -1, 0 or 1, so every int64 sum is
    exact."""
    sums = [int(half.sum())]
    for _ in range(2):
        half *= chi
        sums.append(int(half.sum()))
    return sums


def _sweep(D: int, xs: list[float], limit: int | None) -> list[EquidistRow]:
    """One EquidistRow for each x of xs, in the order given, from one
    ascending pass of the segmented sieve.  This is the one place a row is
    built and E_C(x) = |psi_C(x) - x/2| / (x/2) computed.

    limit caps every x; None means DEFAULT_SIEVE_LIMIT.  This is the one
    place the cap is resolved and range-checked: a limit that is not an
    integer (an integral float counts) or lies outside 1 .. MAX_SIEVE_LIMIT
    is a DomainError, and an x above it a ResourceError, both before
    anything is sieved.

    Every log p lies in [log 2, 32) and is a multiple of 2^-53, so the sums
    run exactly on integers in units of 2^-53, each in the ledger slot of
    the grid interval its prime or prime power is in; a prefix pass rounds
    each x's first-power and higher-power sums exactly, as math.fsum does.
    """
    for x in xs:
        if not (math.isfinite(x) and x >= 1):
            raise DomainError(f"x must be finite and >= 1, got {x}")
    if not xs:
        return []
    lim = DEFAULT_SIEVE_LIMIT if limit is None else integer(limit, "the sieve limit")
    if not 1 <= lim <= MAX_SIEVE_LIMIT:
        raise DomainError(f"the sieve limit must be a positive integer at most "
                          f"{MAX_SIEVE_LIMIT} (2^46), got {lim}")
    if max(xs) > lim:
        raise ResourceError(f"x = {max(xs)} exceeds the sieve limit {lim}")
    stops = sorted({math.floor(x) for x in xs})
    top = stops[-1]
    modulus = abs(D)
    tables, cofactor = _character_tables(D)
    # ledger[j] holds the units in (stops[j-1], stops[j]]: the identity,
    # nontrivial and total first powers, the identity, nontrivial, chi = 0 higher
    ledger = [[0] * 6 for _ in stops]
    for hi, primes in _segments(stops):
        chi = _chi(primes, tables, cofactor)
        # p < 2^46 converts exactly, and log p * 2^53 is an integer below 2^58
        units = primes.astype(np.float64)
        np.log(units, out=units)
        units *= _UNIT
        units = units.astype(np.int64)

        # the total takes every prime of the chunk once, whatever chi says,
        # less the primes dividing D, which are all <= |D|.  No slice of
        # primes is bound to a name: that view would keep this chunk's
        # primes alive into the next chunk's sums
        r = int(np.searchsorted(primes, modulus, side="right"))
        ramified = int(units[:r][modulus % primes[:r] == 0].sum())
        # higher powers p^m <= top of every p not dividing D need
        # p <= sqrt(top): split p -> identity, inert p -> identity for even m
        # and nontrivial for odd m, chi(p) = 0 -> the total only
        k = int(np.searchsorted(primes, math.isqrt(top), side="right"))
        for p, c, u in zip(primes[:k].tolist(), chi[:k].tolist(), units[:k].tolist()):
            pm, m = p * p, 2
            while modulus % p and pm <= top:
                ledger[bisect_left(stops, pm)][5 if c == 0 else 3 if c == 1 or m % 2 == 0 else 4] += u
                pm, m = pm * p, m + 1

        # the class sums come from the sums of u, chi u and chi^2 u, taken
        # over each 29-bit half of u.  chi^2 is 1 on split and inert primes,
        # so split = (chi^2 u + chi u) / 2 and inert = (chi^2 u - chi u) / 2
        high = _chi_moments(units >> 29, chi)
        units &= (1 << 29) - 1
        low = _chi_moments(units, chi)
        # the next chunk is listed while the loop still binds these names
        del chi, units
        total, odd, even = ((a << 29) + b for a, b in zip(high, low))
        slot = ledger[bisect_left(stops, hi)]
        slot[0] += (even + odd) // 2
        slot[1] += (even - odd) // 2
        slot[2] += total - ramified

    for prev, slot in zip(ledger, ledger[1:]):  # prefix sums, in place
        slot[:] = [a + b for a, b in zip(prev, slot)]

    def row(x, ident, nontriv, total, h_ident, h_nontriv, h_zero) -> EquidistRow:
        psi = (ident / _UNIT + h_ident / _UNIT, nontriv / _UNIT + h_nontriv / _UNIT)
        ec = (abs(v - x / 2.0) / (x / 2.0) for v in psi)  # E_C(x), identity then nontrivial
        return EquidistRow(x, *psi, *ec, total / _UNIT + (h_ident + h_nontriv + h_zero) / _UNIT)

    return [row(x, *ledger[bisect_left(stops, math.floor(x))]) for x in xs]


def psi_pair(field: QuadraticField, x: float, limit: int | None = None) -> tuple[float, float]:
    """(psi_identity(x), psi_nontrivial(x)), each the exactly rounded
    first-power log sum plus the exactly rounded higher-power log sum."""
    (row,) = _sweep(field.D, [x], limit)
    return row.psi_identity, row.psi_nontrivial


def psi_C_exact(
    field: QuadraticField, x: float, cls: ConjugacyClass, limit: int | None = None
) -> ClassCount:
    """psi_C(x) for one class of Gal(Q(sqrt(D))/Q), with its normalized
    deviation from the equidistribution prediction x/2.  A cls that is not
    a ConjugacyClass, such as its string value, raises DomainError."""
    if not isinstance(cls, ConjugacyClass):
        raise DomainError(f"cls must be a ConjugacyClass, got {cls!r}")
    (row,) = _sweep(field.D, [x], limit)
    if cls is ConjugacyClass.IDENTITY:
        return ClassCount(cls=cls, x=x, psi=row.psi_identity, ec=row.ec_identity)
    return ClassCount(cls=cls, x=x, psi=row.psi_nontrivial, ec=row.ec_nontrivial)


def equidist_report(
    field: QuadraticField, x_grid: Iterable[float], limit: int | None = None
) -> list[EquidistRow]:
    """Evaluate both classes on a grid of x values: one row per x, in the
    grid's order.  x_grid is any iterable of x (a list, a tuple, an array
    or a generator), read once.
    """
    return _sweep(field.D, list(x_grid), limit)
