"""Exact psi_C for quadratic fields against brute-force oracles."""

import itertools
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import (
    ConjugacyClass,
    DomainError,
    QuadraticField,
    ResourceError,
    equidist_report,
    is_fundamental_discriminant,
    kronecker,
    psi_C_exact,
)
from chebotarev import verifier
from chebotarev.verifier import is_prime, kronecker_symbol, primes_up_to, psi_pair


def trial_primes(n: int) -> list[int]:
    out = []
    for k in range(2, n + 1):
        for d in range(2, int(math.isqrt(k)) + 1):
            if k % d == 0:
                break
        else:
            out.append(k)
    return out


def splitting_by_square_search(D: int, p: int) -> int:
    """Oracle: decide the factorization of p in Q(sqrt(D)) from the
    ideal-splitting description, without quadratic reciprocity.

    p ramifies iff p | D.  An odd p splits into two ideals of norm p iff
    D is a square mod p (found by exhaustive search); otherwise it stays
    inert with one ideal of norm p^2.  p = 2 splits iff D = 1 mod 8.
    """
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if D % 8 == 1 else -1
    target = D % p
    for t in range((p + 1) // 2 + 1):
        if t * t % p == target:
            return 1
    return -1


def psi_oracle(D: int, x: float) -> tuple[float, float]:
    """Brute force over every prime power <= x, classifying each by the
    ideal-splitting oracle."""
    ident, nontriv = [], []
    for p in trial_primes(int(x)):
        s = splitting_by_square_search(D, p)
        if s == 0:
            continue
        pm, m = p, 1
        while pm <= x:
            if s == 1 or m % 2 == 0:
                ident.append(math.log(p))
            else:
                nontriv.append(math.log(p))
            pm *= p
            m += 1
    return math.fsum(ident), math.fsum(nontriv)


def euler_chi(D: int, primes: np.ndarray) -> np.ndarray:
    """(D/p) for each prime p, by Euler's criterion D^((p-1)/2) mod p on
    int64 arrays (exact while p^2 < 2^63), and (D/2) from D mod 8."""
    base = D % primes
    exp = (primes - 1) // 2
    res = np.ones_like(primes)
    while exp.any():
        odd = (exp & 1) == 1
        res[odd] = res[odd] * base[odd] % primes[odd]
        base = base * base % primes
        exp >>= 1
    chi = np.where(res == 1, 1, np.where(res == 0, 0, -1))
    chi[primes == 2] = 0 if D % 2 == 0 else 1 if D % 8 == 1 else -1
    return chi


def fsum_reference(primes, chi, logs, x) -> tuple[float, float, float]:
    """(psi_identity, psi_nontrivial, unramified_total) at x: math.fsum of
    the first powers plus math.fsum of the higher powers, per class."""
    first = primes <= x
    square = primes * primes <= x  # only these have a higher power <= x
    extra = {1: [], -1: [], 0: []}  # identity, nontrivial, all
    for p, c, lg in zip(primes[square], chi[square], logs[square]):
        pm, m = p * p, 2
        while c and pm <= x:
            extra[1 if c == 1 or m % 2 == 0 else -1].append(lg)
            extra[0].append(lg)
            pm, m = pm * p, m + 1
    return tuple(math.fsum(logs[first & mask]) + math.fsum(extra[c])
                 for c, mask in ((1, chi == 1), (-1, chi == -1), (0, chi != 0)))


FUNDAMENTAL = [-4, -3, 5, 8, -8, 12, -7, 13, -20]
NOT_FUNDAMENTAL = [0, 1, 9, 4, -12, 25, 18, 45, -9]


class TestFundamentalDiscriminants:
    @pytest.mark.parametrize("D", FUNDAMENTAL)
    def test_accepted(self, D):
        assert is_fundamental_discriminant(D)
        QuadraticField(D)  # constructor agrees

    @pytest.mark.parametrize("D", NOT_FUNDAMENTAL)
    def test_rejected(self, D):
        assert not is_fundamental_discriminant(D)
        with pytest.raises(DomainError):
            QuadraticField(D)

    @given(st.integers(min_value=2, max_value=3000))
    @settings(max_examples=200, deadline=None)
    def test_classification_from_definition(self, n):
        # reference: reconstruct the defining arithmetic condition directly
        def squarefree(k):
            k = abs(k)
            return all(k % (d * d) for d in range(2, int(math.isqrt(k)) + 1))

        for D in (n, -n):
            expected = (D % 4 == 1 and D != 1 and squarefree(D)) or (
                D % 4 == 0 and (D // 4) % 4 in (2, 3) and squarefree(D // 4)
            )
            assert is_fundamental_discriminant(D) == expected

    def test_squarefree_matches_sieve(self):
        # D = +-n = 1 mod 4 has the 2-part 1, so _local_parts decides
        # whether the odd n is squarefree
        N = 10**5
        squarefree = [True] * N
        squarefree[0] = False
        for d in range(2, math.isqrt(N) + 1):
            for m in range(d * d, N, d * d):
                squarefree[m] = False
        assert [verifier._local_parts(n if n % 4 == 1 else -n) is not None
                for n in range(1, N, 2)] == squarefree[1::2]

    def test_squarefree_products_above_the_cube_root(self):
        # above 10^12 the sieve stops at 10^6, so what is left holds two
        # primes above it, or the square of one, and the perfect-square
        # test decides these
        rng = random.Random(20261018)

        def prime(lo, hi):
            while not is_prime(p := rng.randrange(lo, hi)):
                pass
            return p

        def star(n):
            return n if n % 4 == 1 else -n

        for _ in range(200):
            p, q, r = prime(10**6, 10**7), prime(10**6, 10**7), prime(3, 10**3)
            if p == q:
                continue
            for n, qs in ((p * q, []), (p * q * r, [r])):
                assert verifier._local_parts(star(n)) == (1, qs, p * q)
                assert verifier._local_parts(-4 * star(n)) == (-4, qs, p * q)
            for n in (p * p, p * p * r, r * r * p):
                assert verifier._local_parts(star(n)) is None
                assert verifier._local_parts(-8 * star(n)) is None

    def test_numpy_integer_D(self):
        # D is read as an int: in numpy's scalar arithmetic abs(-2^63)
        # overflows past the cap, and so does the sweep's 2-part of an
        # unsigned D.  A RuntimeWarning from the package fails the test
        with pytest.raises(DomainError, match="at most"):
            is_fundamental_discriminant(np.int64(-2**63))
        assert not is_fundamental_discriminant(np.int8(-128))
        field = QuadraticField(np.uint32(5))
        assert type(field.D) is int
        assert psi_pair(field, 1000) == psi_pair(QuadraticField(5), 1000)

    def test_discriminant_cap(self):
        cap = verifier.MAX_ABS_DISC
        assert is_fundamental_discriminant(cap - 11)  # a prime, 1 mod 4
        for D in (cap + 9, -(cap + 3)):
            with pytest.raises(DomainError, match="at most"):
                is_fundamental_discriminant(D)
            with pytest.raises(DomainError, match="at most"):
                QuadraticField(D)


class TestKronecker:
    def test_gaussian_field_splitting(self):
        assert kronecker(-4, 5) == 1
        assert kronecker(-4, 3) == -1
        assert kronecker(-4, 2) == 0

    def test_rejects_non_fundamental(self):
        # one rule and one message for D, QuadraticField's
        for D in (9, np.int64(9)):
            with pytest.raises(DomainError, match="^9 is not a fundamental discriminant [(]need"):
                kronecker(D, 5)

    def test_numpy_integer_D(self):
        # D reaches the symbol as a Python int: numpy's int32 arithmetic
        # raised OverflowError on the prime 2^31 + 11
        assert kronecker(np.int8(-4), 5) == 1
        assert kronecker(np.int32(5), 2**31 + 11) == kronecker(5, 2**31 + 11) == 1

    def test_rejects_composite_p(self):
        with pytest.raises(DomainError):
            kronecker(-4, 15)

    def test_integral_float_p(self):
        assert kronecker(5, 7.0) == -1 and kronecker(5, 11.0) == 1
        assert is_prime(2.0**31 - 1) and not is_prime(91.0)

    def test_euler_criterion_agreement(self):
        # reciprocity algorithm vs direct D^((p-1)/2) mod p, all odd p < 1e4
        primes = [p for p in primes_up_to(10_000).tolist() if p > 2]
        for D in (-4, -3, 5, 8, 12, -7):
            for p in primes:
                if D % p == 0:
                    assert kronecker_symbol(D, p) == 0
                    continue
                e = pow(D % p, (p - 1) // 2, p)
                want = 1 if e == 1 else -1
                assert kronecker_symbol(D, p) == want, (D, p)
                # (D/-1) is the sign of D
                assert kronecker_symbol(D, -p) == (want if D > 0 else -want), (D, -p)

    def test_splitting_matches_ideal_description(self):
        for D in (-4, -3, 5, 8, 12, -7):
            for p in trial_primes(300):
                assert kronecker_symbol(D, p) == splitting_by_square_search(D, p)

    # fundamental D beyond |D| < 1000, each with the periods of its tables
    # and its Jacobi cofactor m
    CHARACTER_DISCS = {
        -999983: ([999983], 1),  # the largest prime below the cap, tabled
        -999995: ([999995], 1),  # 5 * 199 999: one table at the cap
        -1000003: ([1], 1000003),  # the least prime above it, a cofactor
        4000012: ([4], 1000003),  # the 2-part -4 = 4 * 1 000 003 / -1 000 003
        8000264: ([8], 1000033),  # the 2-part 8 = 8 * 1 000 033 / 1 000 033
        8000024: ([8], 1000003),  # the 2-part -8 = 8 * 1 000 003 / -1 000 003
        -84604451: ([67], 1262753),  # 67 tabled, one prime above the cap
        -26908631: ([1], 26908631),  # the whole odd part a cofactor, m = 3 mod 4
        -1000036000099: ([1], 1000036000099),  # two primes above, m = 3 mod 4
        1000042000117: ([1], 1000042000117),  # two primes above, m = 1 mod 4
        1000005: ([2445, 409], 1),  # 3 5 163 | 409: two tables
        -2728568: ([136, 20063], 1),  # -8 17 | 20 063
        3999932: ([4, 999983], 1),  # 4 | 999 983
        -3999999: ([2001, 1999], 1),  # 3 23 29 | 1 999
        1022117: ([1009, 1013], 1),  # two primes above 1 000, both tabled
        # near MAX_ABS_DISC: every prime up to the cap is tabled, however
        # many D has, so a cofactor holds only primes above it
        999999999999999989: ([1], 999999999999999989),
        -999999999999999867: ([271029, 1087, 11959, 283831], 1),
        999999999999999996: ([4 * 3 * 43 * 691, 983, 3943, 723589], 1),
        -999999999999999988: ([4 * 11], 22727272727272727),
    }

    def test_character_matches_symbol(self):
        # (D/p) = (p/m) prod t[p mod len(t)].  Every fundamental |D| < 1000
        # has one table, of (D/r) at every residue r, and m = 1
        for D in range(-999, 1000):
            if verifier.is_fundamental_discriminant(D):
                tables, m = verifier._character_tables(D)
                assert ([len(t) for t in tables], m) == ([abs(D)], 1), D
                want = [kronecker_symbol(D, r) for r in range(abs(D))]
                assert verifier._chi(np.arange(abs(D)), tables, m).tolist() == want, D
        # the others at every prime below 10^6, 2 included, and 300 near the
        # sieve cap
        rng = random.Random(20261018)
        cap = verifier.MAX_SIEVE_LIMIT
        near_cap = set()
        while len(near_cap) < 300:
            n = rng.randrange(cap - 10**9, cap) | 1
            if is_prime(n):
                near_cap.add(n)
        primes = np.concatenate([primes_up_to(10**6), np.array(sorted(near_cap))])
        for D, data in self.CHARACTER_DISCS.items():
            assert verifier.is_fundamental_discriminant(D), D
            tables, m = verifier._character_tables(D)
            assert ([len(t) for t in tables], m) == data, D
            assert all(t.dtype == np.int8 for t in tables), D
            want = [kronecker_symbol(D, p) for p in primes.tolist()]
            assert verifier._chi(primes, tables, m).tolist() == want, D

    def test_jacobi_up_to_int64(self):
        # odd n, prime or not, up to 2^63 - 1: no value leaves int64
        rng = random.Random(63)
        n = [rng.randrange(1, 2**bits, 2) for bits in (3, 20, 46, 62, 63) for _ in range(400)]
        a = [rng.randrange(v) for v in n]
        got = verifier._jacobi(np.array(a, dtype=np.int64), np.array(n, dtype=np.int64))
        assert got.tolist() == [kronecker_symbol(x, v) for x, v in zip(a, n)]


class TestPrimeInfrastructure:
    def test_primes_up_to_matches_trial_division(self):
        # every range end up to 200: 1, 2 and the wheel primes 3..13 included
        primes = trial_primes(1000)
        for n in [*range(1, 201), 1000]:
            assert primes_up_to(n).tolist() == [p for p in primes if p <= n], n

    def test_integral_float_counts_as_an_integer(self):
        assert primes_up_to(30.0).tolist() == primes_up_to(30).tolist()
        field = QuadraticField(5)
        assert psi_pair(field, 1e3, limit=2000.0) == psi_pair(field, 1e3, limit=2000)

    def test_primes_up_to_is_capped(self, monkeypatch):
        # the whole list is held at once: 10^11 would take about 33 GB
        def sieve(stops):
            raise AssertionError(f"sieved up to {stops}")

        monkeypatch.setattr(verifier, "_segments", sieve)
        for n in (verifier.DEFAULT_SIEVE_LIMIT + 1, 1e11):
            with pytest.raises(ResourceError):
                primes_up_to(n)

    def test_segmented_consistency(self, monkeypatch):
        # crossing a segment boundary changes nothing; grid points cut
        # segments narrower than some base primes (the range (24, 25]); the
        # wheel pattern repeats every 15015 odd numbers, so past 15015 and
        # 30030 segments start at every offset within its period.  Chunks
        # of 1, 2 and 7 flags list a segment of 7 numbers or more in several
        # arrays, some of them empty (a segment of 1 or 2 holds one flag at
        # most), and x = 2 and 3 end segments with no odd flags
        D = -4
        field = QuadraticField(D)
        grid = [12.999, 13.0, 24.0, 25.0, 20.0, 1.5, 25.0, 2209.0, 2208.0, 2.0, 3.0]
        oracle = [psi_oracle(D, x) for x in grid]
        primes = trial_primes(30_100)
        cases = [(segment, verifier._LIST_CHUNK) for segment in (1, 2, 7, 97, 15015, 15016)]
        cases += itertools.product((7, 97, 15016), (1, 2, 7))
        for segment, chunk in cases:
            monkeypatch.setattr(verifier, "_SEGMENT", segment)
            monkeypatch.setattr(verifier, "_LIST_CHUNK", chunk)
            assert primes_up_to(30_100).tolist() == primes
            rows = equidist_report(field, grid)
            assert [r.x for r in rows] == grid
            for r, (o_ident, o_non) in zip(rows, oracle):
                assert (r.psi_identity, r.psi_nontrivial) == psi_pair(field, r.x)
                assert abs(r.psi_identity - o_ident) < 1e-9
                assert abs(r.psi_nontrivial - o_non) < 1e-9

    def test_class_sums_stay_exact(self):
        # every prime swept is at most MAX_SIEVE_LIMIT < e^32, so its log in
        # units of 2^-53 is below 2^58 and each 29-bit half below 2^29.  A
        # segment holds at most (_SEGMENT + 1) // 2 odd numbers and the prime
        # 2, so each per-segment int64 sum of a half times chi^0, chi or chi^2
        # stays below 2^63: the largest such sums come out exact
        assert math.log(verifier.MAX_SIEVE_LIMIT) * verifier._UNIT < 2**58
        n = (verifier._SEGMENT + 1) // 2 + 1
        assert n * 2**29 < 2**63
        full = n * (2**29 - 1)
        for c, want in ((1, [full, full, full]), (-1, [full, -full, full]), (0, [full, 0, 0])):
            half = np.full(n, 2**29 - 1, dtype=np.int64)
            assert verifier._chi_moments(half, np.full(n, c, dtype=np.int8)) == want

    def test_import_builds_no_array(self):
        # numpy traces the data of every array it allocates in its own
        # tracemalloc domain: importing the CLI and the verifier adds none
        code = ("import tracemalloc\n"
                "import numpy as np\n"
                "tracemalloc.start()\n"
                "import chebotarev.cli\n"
                "from chebotarev import verifier\n"
                "arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)\n"
                "snap = tracemalloc.take_snapshot().filter_traces([arrays])\n"
                "print(len(snap.traces))\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0"

    @staticmethod
    def sweep_peak(x: float, segment: int, D: int = 5) -> int:
        """tracemalloc peak of one sweep of D to x, in a fresh process;
        tracemalloc sees numpy's array data."""
        code = ("import tracemalloc\n"
                "import numpy\n"
                "from chebotarev import verifier\n"
                f"verifier._SEGMENT = {segment}\n"
                "tracemalloc.start()\n"
                f"verifier._sweep({D}, [{x}], 10**9)\n"
                "print(tracemalloc.get_traced_memory()[1])\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return int(res.stdout)

    def test_sweep_peak_memory(self):
        # a sweep to 3e6, with everything it builds (wheel pattern, base
        # primes, residue table), peaks below 1.25 MiB: one segment's flags
        # plus one chunk.  The segment's 2^19 flags take 512 KiB; the first
        # chunk of 2^16 flags, the largest, holds 12 245 primes, their
        # character values and their logs as float64 and as int64.  Listing
        # the whole segment at once (82 025 primes) peaked at 2.05 MiB
        assert self.sweep_peak(3e6, 2**20) < 1.25 * 2**20
        # the sweep's state does not grow with the number of segments: four
        # times as many (128 -> 512) add only what grows with sqrt(x), the
        # base primes (97 -> 172).  Sums kept at every segment end would add
        # ~220 B a segment, 83 KiB
        small, large = self.sweep_peak(2**18, 2048), self.sweep_peak(2**20, 2048)
        assert large - small < 32 * 2**10
        # nor with the prime powers below x: 2^22 -> 2^24 adds 4 KiB of base
        # primes.  A queue of powers waiting for their segment would add
        # ~37 KiB more
        small, large = self.sweep_peak(2**22, 2**16), self.sweep_peak(2**24, 2**16)
        assert large - small < 16 * 2**10

    def test_sweep_peak_memory_with_character_data(self):
        # the same sweep holds, besides, its character's tables and, with a
        # Jacobi cofactor, that symbol's working arrays for one chunk.
        # 4 * 999 983 has the tables 4 and 999 983 (0.95 MiB); one table
        # mod |D| would take 3.8 MiB
        tables = 4 + 999983
        assert self.sweep_peak(3e6, 2**20, 4 * 999983) < 1.25 * 2**20 + tables
        # -26 908 631 is prime and all cofactor: while its Jacobi symbol
        # runs it holds at most ten int64 arrays of the first chunk's 12 245
        # primes (0.93 MiB; 9.5 measured)
        jacobi = 10 * 12245 * 8
        assert self.sweep_peak(3e6, 2**20, -26908631) < 1.25 * 2**20 + 1 + jacobi

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
    def test_strike_near_the_cap(self):
        # a segment ending at MAX_SIEVE_LIMIT - 1 strikes with the 564 157
        # base primes from 17 to 2^23.  Turned into Python ints a chunk at a
        # time they raise the peak RSS of a fresh process by under 16 MiB; as
        # one list a segment, by about 35 MiB.  The window is 2^16
        # numbers, so that is_prime can check every number emitted: the
        # strike visits every base prime whatever the window's length.
        # (tracemalloc would see the same, but slows the strike loop 15-fold)
        hi = verifier.MAX_SIEVE_LIMIT - 1
        lo = hi - 2**16
        code = ("import json, resource\n"
                "from chebotarev import verifier\n"
                "base = verifier.primes_up_to(2**23)\n"
                f"ps = base[(base > 13) & (base * base <= {hi})]\n"
                "pattern = verifier._wheel_pattern()\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                f"chunks = list(verifier._sieve_segment({lo}, {hi}, ps, pattern))\n"
                "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
                "print(json.dumps([len(ps), grown, [p for c in chunks for p in c.tolist()]]))\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        strikers, grown_kib, primes = json.loads(res.stdout)
        assert strikers == 564_157
        assert grown_kib < 16 * 2**10
        assert len(primes) > 1000 and all(is_prime(p) for p in primes)
        assert lo < primes[0] and primes[-1] <= hi
        emitted = set(primes)
        rest = [n for n in range((lo + 1) | 1, hi + 1, 2) if n not in emitted]
        assert not any(is_prime(n) for n in random.Random(46).sample(rest, 500))

    def test_miller_rabin(self):
        primes = set(trial_primes(2000))
        for n in range(2, 2000):
            assert is_prime(n) == (n in primes)
        assert not any(is_prime(n) for n in (1, 0, -7))
        assert is_prime(2**31 - 1)
        assert not is_prime(2**31)
        assert is_prime(verifier.MAX_SIEVE_LIMIT - 21)  # the largest prime below the sieve cap
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59)  # a Mersenne prime; the largest below 2^64
        # psi_k, the least strong pseudoprime to the first k prime bases
        # (OEIS A014233), k = 1..12 (psi_7 = psi_8, psi_9 = psi_10 = psi_11);
        # psi_4 = 151 * 751 * 28351, and psi_12 passes all twelve bases 2..37
        psi = [2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
               3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
               318_665_857_834_031_151_167_461]
        assert not any(is_prime(n) for n in psi)
        assert psi[-1] == 399_165_290_221 * 798_330_580_441
        with pytest.raises(DomainError):
            kronecker(5, psi[-1])
        # psi_13: no base set is proven from here on
        with pytest.raises(DomainError):
            is_prime(3_317_044_064_679_887_385_961_981)


class TestPsiExact:
    def test_below_first_prime_power(self):
        field = QuadraticField(-4)
        for cls in ConjugacyClass:
            assert psi_C_exact(field, 1.5, cls).psi == 0.0

    def test_gaussian_field_at_twenty(self):
        # identity: split 5, 13, 17 plus 3^2; nontrivial: 3, 7, 11, 19
        field = QuadraticField(-4)
        ident = psi_C_exact(field, 20.0, ConjugacyClass.IDENTITY)
        nontriv = psi_C_exact(field, 20.0, ConjugacyClass.NONTRIVIAL)
        want_ident = math.fsum(math.log(p) for p in (5, 13, 17, 3))
        want_non = math.fsum(math.log(p) for p in (3, 7, 11, 19))
        assert abs(ident.psi - want_ident) < 1e-12
        assert abs(nontriv.psi - want_non) < 1e-12
        assert math.isclose(ident.psi, 8.1062, rel_tol=1e-4)
        assert math.isclose(nontriv.psi, 8.3868, rel_tol=1e-4)

    def test_normalized_error_definition(self):
        field = QuadraticField(5)
        cc = psi_C_exact(field, 100.0, ConjugacyClass.IDENTITY)
        assert math.isclose(cc.ec, abs(cc.psi - 50.0) / 50.0, rel_tol=1e-15)

    @pytest.mark.parametrize("D", [-4, -3, 5, 8, 12, -7])
    def test_oracle_equivalence(self, D):
        field = QuadraticField(D)
        rng = np.random.default_rng(abs(D))
        xs = [float(x) for x in rng.integers(10, 3000, size=6)]
        for x in xs + [20.0, 1000.0]:
            ident, nontriv = psi_pair(field, x)
            o_ident, o_non = psi_oracle(D, x)
            assert abs(ident - o_ident) < 1e-9
            assert abs(nontriv - o_non) < 1e-9

    def test_step_at_split_prime(self):
        # 13 splits in Q(i): identity count jumps by log 13 across it
        field = QuadraticField(-4)
        before = psi_C_exact(field, 12.999, ConjugacyClass.IDENTITY).psi
        after = psi_C_exact(field, 13.0, ConjugacyClass.IDENTITY).psi
        assert math.isclose(after - before, math.log(13), rel_tol=1e-12)

    def test_resource_limit(self):
        field = QuadraticField(-4)
        with pytest.raises(ResourceError):
            psi_C_exact(field, 1e7, ConjugacyClass.IDENTITY, limit=10**6)


class TestEquidistReport:
    def test_partition_identity(self):
        field = QuadraticField(-4)
        rows = equidist_report(field, [20.0, 500.0, 12345.0])
        for r in rows:
            assert abs(r.psi_identity + r.psi_nontrivial - r.unramified_total) < 1e-9
        assert equidist_report(field, []) == []

    def test_grid_is_read_once(self):
        # an array, a tuple and a generator give the list's rows
        field = QuadraticField(5)
        grid = [10.0, 100.0, 1000.0]
        want = equidist_report(field, grid)
        for xs in (np.array(grid), tuple(grid), (x for x in grid)):
            assert equidist_report(field, xs) == want

    def test_read_outs_are_the_rows(self):
        # psi_pair and psi_C_exact give their row's psi and E_C bit for bit,
        # an unsorted grid with a repeated x included
        field = QuadraticField(-7)
        grid = [1e4, 20.0, 999.5, 20.0, 1.0]
        for r in equidist_report(field, grid):
            assert psi_pair(field, r.x) == (r.psi_identity, r.psi_nontrivial)
            ident = psi_C_exact(field, r.x, ConjugacyClass.IDENTITY)
            nontriv = psi_C_exact(field, r.x, ConjugacyClass.NONTRIVIAL)
            assert (ident.psi, ident.ec) == (r.psi_identity, r.ec_identity)
            assert (nontriv.psi, nontriv.ec) == (r.psi_nontrivial, r.ec_nontrivial)
            assert r.ec_identity == abs(r.psi_identity - r.x / 2) / (r.x / 2)

    def test_partition_against_chebyshev_psi(self):
        # independent check: full Chebyshev psi minus the p = 2 powers
        field = QuadraticField(-4)
        x = 20.0
        rows = equidist_report(field, [x])
        all_powers = []
        for p in trial_primes(int(x)):
            pm = p
            while pm <= x:
                all_powers.append(math.log(p))
                pm *= p
        chebyshev = math.fsum(all_powers)
        two_part = math.fsum(math.log(2) for m in (2, 4, 8, 16))
        assert abs(rows[0].unramified_total - (chebyshev - two_part)) < 1e-12
        assert math.isclose(rows[0].unramified_total, 16.4930, rel_tol=1e-4)

    def test_sums_are_exactly_rounded(self, monkeypatch):
        # reference: fsum of the first powers plus fsum of the higher powers
        monkeypatch.setattr(verifier, "_SEGMENT", 1000)
        for D in (-4, 5, -1447):
            primes = primes_up_to(20_000)
            chi = np.array([kronecker_symbol(D, int(p)) for p in primes])
            logs = np.log(primes.astype(np.float64))
            # stops on prime powers (2^10, 3^7, 3^9, 7^5) and one below each
            # go to neighbouring ledger slots
            grid = [20_000.0, 3_000.5, 1_000.0, 1024.0, 1023.0, 2187.0, 2186.0, 19683.0,
                    16807.0, 16806.0, 1024.0, 4.0, 3.0, 1.5]
            for x, r in zip(grid, equidist_report(QuadraticField(D), grid)):
                assert (r.psi_identity, r.psi_nontrivial, r.unramified_total) == \
                    fsum_reference(primes, chi, logs, x)

    def test_sums_are_exactly_rounded_at_full_segments(self):
        # the sweep at its own 2^20-number segments against a reference that
        # shares none of its code: a plain sieve, the character by Euler's
        # criterion, np.log of the primes as floats and math.fsum.  |D| =
        # 999997 and 1000003 lie on each side of the residue table's cut-off
        N = 3_000_000
        flags = np.ones(N + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(N) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        primes = np.flatnonzero(flags)
        logs = np.log(primes.astype(np.float64))
        grid = [2.0**20, 2.0**20 + 1, 2.0**21 + 3, 3e6]
        assert verifier._SEGMENT == 2**20
        for D in (-4, 5, -4999, 999997, -1000003):
            chi = euler_chi(D, primes)
            for x, r in zip(grid, equidist_report(QuadraticField(D), grid)):
                assert (r.psi_identity, r.psi_nontrivial, r.unramified_total) == \
                    fsum_reference(primes, chi, logs, x), (D, x)

    def test_error_decays_statistically(self):
        rng = np.random.default_rng(1)
        for D in (-4, -3, 5, 8):
            field = QuadraticField(D)
            lo_grid = list(np.geomspace(1e3, 1e4, 12))
            hi_grid = list(np.geomspace(1e5, 1e6, 12))
            lo = equidist_report(field, lo_grid)
            hi = equidist_report(field, hi_grid)
            med = lambda rows: float(
                np.median([max(r.ec_identity, r.ec_nontrivial) for r in rows])
            )
            assert med(hi) < med(lo)
