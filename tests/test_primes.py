import contextlib
import functools
import itertools
import math
import re
import signal
import tracemalloc

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restricta import digit_systems
from restricta import primes as P
from restricta.digit_systems import DigitSystem, census
from restricta.errors import FactorizationTooHard, LimitExceeded, OutOfRange, UsageError

from tests.oracles import (
    enumerate_list,
    euler_phi,
    frac_exact,
    jacobi,
    prime_exp_sum_exact,
    prime_spectrum_direct,
    selfridge,
    strong_lucas_probable_prime,
)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def pi(x: int) -> int:
    return P.prime_sums(P.sieve_primes(x))[0]


def walk_primes(table) -> np.ndarray:
    """The primes of a table, decoded from its walk segment by segment: odd
    slot i of the segment at lo holds 2*(lo + i) + 1, and 2 comes first."""
    odd = [2 * (lo + np.flatnonzero(flags)) + 1 for lo, flags in table.slots()]
    return np.concatenate([np.array([2], dtype=np.int64), *odd])


def mobius_oracle(n: int) -> int:
    res, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    return -res if m > 1 else res


class TestSieve:
    def test_agrees_with_trial_division(self, table_1e4):
        primes = set(walk_primes(table_1e4).tolist())
        for n in range(10**4 + 1):
            assert (n in primes) == trial_division_is_prime(n), n

    def test_pi_values(self, table_1e6):
        assert pi(100) == 25
        assert pi(2) == 1
        assert P.prime_sums(table_1e6)[0] == 78498

    def test_pi_matches_independent_sieve(self):
        flags = np.ones(10**6 + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, 1001):
            if flags[p]:
                flags[p * p :: p] = False
        counts = np.cumsum(flags)
        for x in (10, 97, 5000, 524_288, 999_983, 10**6):
            assert pi(x) == int(counts[x])

    def test_segment_boundaries(self, table_1e6):
        # limits straddling the 2^20 segment edge
        reference = P.prime_sums(table_1e6)[0]
        for lim in (2**20 - 1, 2**20, 2**20 + 1):
            t = P.sieve_primes(lim)
            ps = walk_primes(t)
            assert int(np.count_nonzero(ps <= 10**6)) == reference
            assert P.prime_sums(t)[0] == len(ps)
            assert 1_048_573 in ps  # prime just below 2^20
        ps = walk_primes(P.sieve_primes(2**20 + 100))
        assert int(ps[-1]) <= 2**20 + 100
        assert all(trial_division_is_prime(int(p)) for p in ps[-5:])

    def test_limits(self):
        with pytest.raises(LimitExceeded):
            P.sieve_primes(2**40 + 1)


# Edges of the first few segments (2^20 odd slots cover 2^21 integers), of
# the 2^20 mark, and the smallest limits.
EDGE_X = (2, 3, 2**20 - 1, 2**20, 2**20 + 1, 2**21 - 1, 2**21, 2**21 + 1, 3 * 2**20 + 7)

# Digit sets without 0 (interior zeros are refused, e.g. 101 in base 10),
# with only 0 missing, of a single digit, and with a high digit missing.
FILTER_SYSTEMS = (
    DigitSystem.of(2, (1,)),
    DigitSystem.of(3, (1, 2)),
    DigitSystem.of(3, (0, 2)),
    DigitSystem.of(7, (1, 3, 5)),
    DigitSystem.excluding(7, {5}),
    DigitSystem.excluding(10, {0}),
    DigitSystem.excluding(10, {7}),
    DigitSystem.of(10, (1,)),
    DigitSystem.of(10, (1, 3, 7, 9)),
    DigitSystem.excluding(16, {15}),
    DigitSystem.excluding(16, {0}),
    DigitSystem.of(16, (11,)),
)


@pytest.fixture(scope="module")
def edge_oracle():
    """Plain-sieve primes up to the largest edge."""
    return P._simple_sieve(max(EDGE_X))


class TestStreamedLayer:
    @pytest.mark.parametrize("x", EDGE_X)
    def test_table_at_edge_limit(self, x, edge_oracle):
        ref = edge_oracle[edge_oracle <= x]
        t = P.sieve_primes(x)
        assert np.array_equal(walk_primes(t), ref)
        assert walk_primes(t).dtype == np.int64
        assert P.prime_sums(t)[0] == len(ref)
        flags = np.zeros(x + 1, dtype=bool)
        flags[ref] = True
        # the walk: whole segments from slot 0, cut at the last odd integer <= x
        walk = list(t.slots())
        assert [lo for lo, _ in walk] == list(range(0, (x + 1) // 2, P.SEGMENT))
        assert np.array_equal(np.concatenate([f for _, f in walk]), flags[1::2])
        primes = set(walk_primes(t).tolist())
        for n in {*range(min(x, 400) + 1), *range(max(0, x - 400), x + 1)}:
            assert (n in primes) == flags[n], n

    def test_walk_holds_one_segment(self):
        # the loop drops each segment's flags before the walk sieves the
        # next: held across the step, a bare pi(10^7) peaked at 2.04 MiB
        t = P.sieve_primes(10**7)
        tracemalloc.start()
        try:
            assert P.prime_sums(t)[0] == 664579
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * P.SEGMENT, peak / 2**20  # one bool flag per slot

    def test_walk_over_runs(self):
        # runs that cross a segment edge, one slot, and one that ends at the
        # last slot: each is cut SEGMENT slots at a time from its start, with
        # the full walk's flags at those slots
        x = 3 * 2**21 + 7
        t = P.sieve_primes(x)
        full = np.concatenate([f for _, f in t.slots()])
        S = P.SEGMENT
        runs = [(0, 3), (10, S + 20), (S + 100, S + 101), (2 * S - 7, 2 * S + 5), (2 * S + 9, (x + 1) // 2)]
        walk = list(t.slots(runs))
        assert [lo for lo, _ in walk] == [lo for a, b in runs for lo in range(a, b, S)]
        for lo, flags in walk:
            assert np.array_equal(flags, full[lo : lo + len(flags)]), lo
        assert np.array_equal(np.concatenate([f for _, f in walk]), np.concatenate([full[a:b] for a, b in runs]))

    def test_queries_below_limit(self, edge_oracle):
        # a table answers at its limit only: each x is sieved apart
        ref = edge_oracle
        for x in EDGE_X:
            below = ref[ref <= x]
            t = P.sieve_primes(x)
            assert P.prime_sums(t)[0] == len(below)
            assert np.array_equal(walk_primes(t), below)
        for x in (0, 1):
            with pytest.raises(UsageError):
                P.sieve_primes(x)

    @pytest.mark.parametrize("sys", FILTER_SYSTEMS, ids=lambda s: f"q={s.q},D=" + ".".join(map(str, s.digits)))
    def test_digit_filter_against_contains(self, sys, edge_oracle):
        ref = edge_oracle
        member = np.array([sys.contains(int(p)) for p in ref])
        for x in EDGE_X:
            expected = int(np.count_nonzero(member[ref <= x]))
            assert P.count_primes_digit_filtered(P.sieve_primes(x), sys) == expected, x

    @pytest.mark.parametrize("q", (1, 2, 3, 4, 7, 10, 12, 30))
    def test_ap_counts_partition_pi(self, q, edge_oracle):
        ref = edge_oracle
        for x in EDGE_X:
            below = ref[ref <= x]
            t = P.sieve_primes(x)
            sums = [P.prime_sums(t, (q, a)) for a in range(q)]
            counts = [count for _, count, _ in sums]
            assert counts == [int(np.count_nonzero(below % q == a)) for a in range(q)]
            assert {pi for pi, _, _ in sums} == {sum(counts)}

    def test_exp_sum_against_direct_fsum(self):
        N = 10**5
        t = P.sieve_primes(N)
        for theta in (0.1234567, 1 / 3, math.sqrt(2) - 1):
            phases = [2 * math.pi * frac_exact(p, theta) for p in P._simple_sieve(N).tolist()]
            direct = complex(math.fsum(map(math.cos, phases)), math.fsum(map(math.sin, phases)))
            assert abs(P.prime_sums(t, theta=theta)[2] - direct) < 1e-9


# Even blocks q^j (q = 2, 10, 16) and odd ones (q = 3, 7), with one and two
# digits missing and with 0 missing.
BLOCK_SYSTEMS = (
    DigitSystem.excluding(2, {1}),
    DigitSystem.excluding(2, {0}),
    DigitSystem.excluding(3, {2}),
    DigitSystem.excluding(3, {0}),
    DigitSystem.excluding(3, {0, 2}),
    DigitSystem.excluding(7, {1}),
    DigitSystem.excluding(7, {0}),
    DigitSystem.excluding(7, {1, 5}),
    DigitSystem.excluding(10, {7}),
    DigitSystem.excluding(10, {0}),
    DigitSystem.excluding(10, {3, 8}),
    DigitSystem.excluding(16, {15}),
    DigitSystem.excluding(16, {0}),
    DigitSystem.excluding(16, {0, 9}),
)


def _block(q: int) -> int:
    """The largest power of q with at most 2*SEGMENT integers."""
    Q = 1
    while Q * q <= 2 * P.SEGMENT:
        Q *= q
    return Q


def _digit_members(ps: np.ndarray, q: int, digits) -> np.ndarray:
    """Brute force: every base-q digit of each element is allowed."""
    allowed = np.zeros(q, dtype=bool)
    allowed[list(digits)] = True
    ok = np.ones(ps.size, dtype=bool)
    t = ps.copy()
    while t.any():
        ok &= allowed[t % q] | (t == 0)
        t //= q
    return ok


@pytest.fixture(scope="module")
def block_oracle():
    """Plain-sieve primes past three blocks of the largest Q."""
    return P._simple_sieve(3 * max(_block(q) for q in (2, 3, 7, 10, 16)) + 1)


class TestAdmissibleBlocks:
    @pytest.mark.parametrize("sys", BLOCK_SYSTEMS, ids=lambda s: f"q={s.q},D=" + ".".join(map(str, s.digits)))
    def test_counts_at_block_edges(self, sys, block_oracle):
        ref = block_oracle
        Q = _block(sys.q)
        assert P._digit_patterns(sys)[0] == Q
        below = np.cumsum(_digit_members(ref, sys.q, sys.digits))
        for x in (2, 3, Q - 1, Q, Q + 1, 2 * Q - 1, 2 * Q + 1, 3 * Q - 1, 3 * Q, 3 * Q + 1):
            expected = int(below[np.searchsorted(ref, x, side="right") - 1])
            assert P.count_primes_digit_filtered(P.sieve_primes(x), sys) == expected, x

    @pytest.mark.parametrize("sys,x", [
        (DigitSystem.excluding(3, {1}), 200_003),
        (DigitSystem.of(7, (1, 2, 4)), 7**7 + 5),
        # Q = q: q^2 is above 2*SEGMENT; x below q holds block 0 only
        (DigitSystem.of(1_000_003, range(1, 700_000, 97)), 600_001),
        (DigitSystem.excluding(1500, {0, 7, 1499}), 3_000_000),
    ], ids=("q=3", "q=7", "q>x", "q=1500"))
    def test_counts_match_contains(self, sys, x):
        ref = P._simple_sieve(x).tolist()
        expected = sum(1 for p in ref if sys.contains(p))
        assert P.count_primes_digit_filtered(P.sieve_primes(x), sys) == expected

    @pytest.mark.parametrize("digits,x", [
        # the runs merge across prefixes, where both 0 and q - 1 are allowed
        ((*range(1000), *range(2**21 - 999, 2**21 + 1)), 5_000_000),
        (range(1, 30_000, 7), 2_000_000),
    ], ids=("x>q", "x<q"))
    def test_single_integer_blocks(self, digits, x):
        # q above 2*SEGMENT: Q = 1, and the blocks are the members themselves
        sys = DigitSystem.of(2**21 + 1, digits)
        assert P._digit_patterns(sys)[0] == 1
        ref = P._simple_sieve(x)
        members = _digit_members(ref, sys.q, sys.digits)
        expected = int(np.count_nonzero(members))
        assert P.count_primes_digit_filtered(P.sieve_primes(x), sys) == expected
        # one set lookup per digit, so a q-bit base costs no more per prime
        assert [sys.contains(p) for p in ref.tolist()] == members.tolist()

    @pytest.mark.parametrize("sys", BLOCK_SYSTEMS, ids=lambda s: f"q={s.q},D=" + ".".join(map(str, s.digits)))
    def test_block_runs_are_maximal(self, sys):
        for m in (0, 1, sys.q - 1, sys.q, sys.q**2 + 3, 1000):
            runs = []
            for n in [0, *(n for n in range(1, m + 1) if sys.contains(n))]:
                if runs and runs[-1][1] == n:
                    runs[-1][1] = n + 1
                else:
                    runs.append([n, n + 1])
            assert P._block_runs(sys, m) == runs, m

    def test_refuses_x_above_sieve_limit(self):
        # the census takes the sieve route there, and sieve_primes refuses x
        with pytest.raises(LimitExceeded, match=r"sieve limit 1099511627777 above 2\^40"):
            census(DigitSystem.excluding(10, {7}), 2**40 + 1)

    def test_enumerates_a_sparse_set_above_sieve_limit(self, monkeypatch):
        # 12286 members at 2^41: above ENUM_ROUTE_MAX here, but the sieve route could never take x
        def refuse(limit):
            raise AssertionError(f"sieved to {limit}")

        monkeypatch.setattr(digit_systems, "ENUM_ROUTE_MAX", 1000)
        monkeypatch.setattr(P, "sieve_primes", refuse)
        sys = DigitSystem.of(10, (1, 3))
        rep = census(sys, 2**41)
        assert rep.count == 12286
        assert rep.prime_count == sum(1 for n in enumerate_list(sys, 2**41) if sympy.isprime(n))

    def test_small_x(self):
        # below 2 no table is built: the census enumerates A(x)
        for x in (0, 1, 2, 3, 4, 5, 11, 12, 13, 22, 23, 29, 31):
            for sys in (DigitSystem.excluding(10, {2}), DigitSystem.excluding(2, {0})):
                expected = sum(1 for p in range(2, x + 1) if trial_division_is_prime(p) and sys.contains(p))
                if x < 2:
                    assert census(sys, x).prime_count == expected
                else:
                    assert P.count_primes_digit_filtered(P.sieve_primes(x), sys) == expected


class TestCountAp:
    def test_examples(self):
        t = P.sieve_primes(100)
        assert P.prime_sums(t, (4, 1))[1] == 11
        assert P.prime_sums(t, (4, 0))[1] == 0
        assert P.prime_sums(t, (2, 0))[1] == 1

    def test_refused_before_the_walk(self, monkeypatch):
        t = P.sieve_primes(100)
        monkeypatch.setattr(t, "slots", lambda: pytest.fail("walked before the checks"))
        for ap, theta in (((0, 0), None), ((4, 4), None), ((4, -1), None), (None, math.nan),
                          (None, math.inf), ((4, 1), -math.inf)):
            with pytest.raises(UsageError):
                P.prime_sums(t, ap, theta)

    @given(st.integers(1, 12), st.integers(10, 5000))
    @settings(max_examples=30, deadline=None)
    def test_partition_over_residues(self, q, x):
        table = P.sieve_primes(x)
        total = sum(P.prime_sums(table, (q, a))[1] for a in range(q))
        assert total == P.prime_sums(table)[0]

    @pytest.mark.parametrize("q", (10**20, 2**63, 2**64 + 2, 7 * 10**399 + 1))
    def test_modulus_past_int64(self, q, table_1e4):
        ps = P._simple_sieve(10**4).tolist()
        for a in (0, 1, 2, 3, 9973, 9974, q - 1):
            assert P.prime_sums(table_1e4, (q, a))[1] == sum(1 for p in ps if p % q == a)


class TestRamanujan:
    def test_examples(self):
        assert P.ramanujan_sum(1).real == pytest.approx(1)
        assert abs(P.ramanujan_sum(4)) < 1e-12
        assert P.ramanujan_sum(6).real == pytest.approx(1)

    def test_equals_mobius_up_to_500(self):
        for s in range(1, 501):
            val = P.ramanujan_sum(s)
            assert abs(val.imag) < 1e-9
            assert abs(val.real - mobius_oracle(s)) < 1e-6, s
            assert round(val.real) == P.mobius(s)


@pytest.fixture(scope="module")
def primes_to_edge():
    """The primes up to 2^21 + 1, from a plain sieve over every integer."""
    flags = np.ones(2**21 + 2, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(2**21 + 1) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


class TestPrimeExpSum:
    def test_at_zero(self):
        assert P.prime_sums(P.sieve_primes(100), theta=0.0)[2] == pytest.approx(25 + 0j)

    def test_at_half(self):
        # e(p/2) = -1 for odd p, +1 for p = 2
        v = P.prime_sums(P.sieve_primes(100), theta=0.5)[2]
        assert v.real == pytest.approx(2 - 25)
        assert abs(v.imag) < 1e-12
        assert v.imag == 0

    def test_near_ramanujan_prediction(self, table_1e6):
        pi, _, v = P.prime_sums(table_1e6, theta=1.0 / 3.0)
        target = -pi / 2
        assert abs(v - target) / abs(target) < 0.05

    def test_magnitude_bound(self, table_1e4):
        for theta in (0.123, 0.618, 0.95):
            pi, _, v = P.prime_sums(table_1e4, theta=theta)
            assert abs(v) <= pi

    @given(st.integers(0, 2**20 - 1))
    @settings(max_examples=25, deadline=None)
    def test_period_one(self, num):
        # dyadic theta so that theta + 1 is exactly representable
        table = _SHARED["t"]
        theta = num / 2**20
        a = P.prime_sums(table, theta=theta)[2]
        b = P.prime_sums(table, theta=theta + 1.0)[2]
        assert abs(a - b) < 1e-9

    @given(st.integers(-(2**20), 2**20))
    @settings(max_examples=25, deadline=None)
    def test_conjugate_symmetry(self, num):
        table = _SHARED["t"]
        theta = num / 2**20
        a = P.prime_sums(table, theta=theta)[2]
        b = P.prime_sums(table, theta=-theta)[2]
        assert abs(a.conjugate() - b) < 1e-9

    def test_against_mpmath_witness(self, table_1e6):
        # S_P(0.123) over the 78498 primes up to 10^6, theta the float 0.123,
        # summed at 30 digits with mpmath
        v = P.prime_sums(table_1e6, theta=0.123)[2]
        assert abs(v - complex(120.65510833947569396, 42.345067053272483438)) < 1e-11

    @pytest.mark.parametrize("N,theta", [
        *((10**6, theta) for theta in (0.123, 0.6180339887498949, 1e-7, 0.5)),
        (2**21 + 1, 0.3333),  # one slot past the first segment
    ])
    def test_against_mpmath(self, N, theta, primes_to_edge):
        # every term is a product of three table roots: measured errors are at
        # most 5.3e-13, or 3.4e-18 * pi(N)
        ps = primes_to_edge[primes_to_edge <= N].tolist()
        re_, im_ = prime_exp_sum_exact(ps, theta)
        v = P.prime_sums(P.sieve_primes(N), theta=theta)[2]
        assert abs(mpmath.mpc(v) - mpmath.mpc(re_, im_)) < 1e-15 * len(ps)

    def test_walk_peak_is_one_chunk_over_the_sieve(self):
        # S_P works SP_CHUNK slots at a time: at 10^7 the walk's traced peak
        # is 1.04 MiB without theta (the flags of one segment) and 0.16 MiB
        # more with it; whole segments of gathered roots add 4.8 MiB
        peaks = {}
        for theta in (None, 0.41421356237309515):
            tracemalloc.start()
            try:
                table = P.sieve_primes(10**7)
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                P.prime_sums(table, (10, 3), theta)
                peaks[theta] = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        assert peaks[None] < 2.5 * 2**20
        assert peaks[0.41421356237309515] - peaks[None] < 2**18

    def test_memory(self):
        # one segment of flags, the one being sieved and one chunk's
        # temporaries at a time, the table included: 2.2 MB traced at both
        # limits
        peaks = []
        for x in (10**7, 10**8):
            tracemalloc.start()
            try:
                table = P.sieve_primes(x)
                held = tracemalloc.get_traced_memory()[0]
                P.prime_sums(table, (10, 3), 0.41421356237309515)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert held < 2**16  # the base primes only
        assert peaks[0] < 6 * 2**20
        assert peaks[1] - peaks[0] < 2**20


def _strong_probable_prime(n: int, a: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**j, n) == n - 1 for j in range(1, r))


_SHARED = {}


def setup_module():
    _SHARED["t"] = P.sieve_primes(5000)


class TestSpectrum:
    def test_direct_and_fft_paths_agree(self):
        for N in (720, 997):  # composite, and prime: p = N wraps onto j = 0
            table = P.sieve_primes(N)
            direct = prime_spectrum_direct(P._simple_sieve(N).tolist(), N)
            fft = P.prime_spectrum(table)
            assert len(fft) == N // 2 + 1, N  # j <= N/2: the rest is the conjugate mirror
            assert np.max(np.abs(direct[: N // 2 + 1] - fft)) < 1e-8, N

    def test_value_at_zero_is_pi(self):
        table = P.sieve_primes(1000)
        spec = P.prime_spectrum(table)
        assert len(spec) == 501
        assert spec[0].real == pytest.approx(P.prime_sums(table)[0])


class TestFactorization:
    @given(st.integers(1, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_recomposition(self, n):
        fac = P.factorize(n)
        prod = 1
        for p, e in fac.items():
            assert P.is_prime_int(p)
            prod *= p**e
        assert prod == n

    @given(st.integers(1, 10**12))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_sympy(self, n):
        assert P.factorize(n) == sympy.factorint(n)

    @pytest.mark.parametrize("p", [2, 3, 31, 997, 1009, 65521, 999_983])
    def test_prime_squares(self, p):
        assert P.factorize(p * p) == sympy.factorint(p * p) == {p: 2}

    def test_prime_square_above_trial_limit_refused(self):
        # both factors of 1000003^2 lie above the default trial limit 10^6
        with pytest.raises(FactorizationTooHard):
            P.factorize(1_000_003**2)

    @pytest.mark.parametrize("p", [997, 1009, 1013])  # below, at and above the limit
    @pytest.mark.parametrize("q", [1019, 1_000_003])
    def test_factor_near_trial_limit(self, p, q, monkeypatch):
        monkeypatch.setattr(P, "TRIAL_LIMIT", 1009)
        n = p * q
        if p <= 1009:
            assert P.factorize(n) == sympy.factorint(n) == {p: 1, q: 1}
        else:
            with pytest.raises(FactorizationTooHard):
                P.factorize(n)
        _factorize_agrees([4 * n, n, 1019 * 1019, 1_000_003])

    def test_cofactor_below_square_of_next_prime_needs_no_test(self, monkeypatch):
        # trial division up to sqrt(n) leaves 1 or a prime: Miller-Rabin is
        # reached only when the trial limit stops the division first
        def refuse(n):
            raise AssertionError(f"Miller-Rabin called on {n}")

        monkeypatch.setattr(P, "is_prime_int", refuse)
        n = 2 * 3 * 999_999_000_001  # the cofactor is a prime near 10^12
        assert P.factorize(n) == {2: 1, 3: 1, 999_999_000_001: 1}
        assert P.factorize(1_000_003) == {1_000_003: 1}
        monkeypatch.setattr(P, "TRIAL_LIMIT", 100)
        with pytest.raises(AssertionError):
            P.factorize(1_000_003)

    def test_interleaved_prime_walks(self):
        # one walk grows the shared list while another is paused at its end
        n = len(P._TRIAL_PRIMES)
        a, b = P._trial_primes(), P._trial_primes()
        head = list(itertools.islice(b, n))
        list(itertools.islice(a, n + 10))
        tail = list(itertools.islice(b, 10))
        assert head + tail == list(sympy.primerange(2, tail[-1] + 1))
        grown = P._TRIAL_PRIMES
        assert all(x < y for x, y in zip(grown, grown[1:]))

    def test_hard_composite_refused(self, monkeypatch):
        monkeypatch.setattr(P, "TRIAL_LIMIT", 10**3)
        p1, p2 = 1_000_003, 1_000_033
        assert P.is_prime_int(p1) and P.is_prime_int(p2)
        with pytest.raises(FactorizationTooHard):
            P.factorize(p1 * p2)

    def test_strong_pseudoprime_to_twelve_bases(self):
        # psi_12, the first strong pseudoprime to the prime bases 2..37
        p1, p2 = 399_165_290_221, 798_330_580_441
        assert P.is_prime_int(p1) and P.is_prime_int(p2)
        assert not P.is_prime_int(p1 * p2)
        with pytest.raises(FactorizationTooHard):
            P.factorize(p1 * p2)

    @pytest.mark.parametrize("psi,k", P._MR_TABLE)
    def test_each_psi_needs_its_row(self, psi, k):
        # psi_k passes Miller-Rabin for the first k bases, so the row for
        # n < psi_k is as high as it can go; the next row catches it
        assert not sympy.isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in P._MR_BASES[:k])
        assert P.is_prime_int(sympy.prevprime(psi))
        if psi < P._PSI13:
            assert not P.is_prime_int(psi)
        else:
            with pytest.raises(OutOfRange):
                P.is_prime_int(psi)

    def test_refused_beyond_psi13(self):
        assert P.is_prime_int(P._PSI13 - 2) == sympy.isprime(P._PSI13 - 2)
        for n in (P._PSI13, P._PSI13 + 2, 10**39 + 7):
            with pytest.raises(OutOfRange):
                P.is_prime_int(n)

    @given(
        st.sampled_from(list(zip((2,) + tuple(psi for psi, _ in P._MR_TABLE), P._MR_TABLE))).flatmap(
            lambda row: st.integers(row[0], row[1][0] - 1)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_mr_agrees_with_sympy(self, n):
        # n is drawn from one row of the psi_k table, so every row is exercised
        assert P.is_prime_int(n) == sympy.isprime(n)

    def test_mr_agrees_with_table(self, table_1e4):
        primes = set(walk_primes(table_1e4).tolist())
        for n in range(2, 2000):
            assert P.is_prime_int(n) == (n in primes)

    def test_phi_sieve_matches_euler_phi(self):
        phi = P.phi_sieve(500)
        for n in range(1, 501):
            assert int(phi[n]) == sympy.totient(n)

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 10, 97, 1000, 65537, 10**6])
    def test_phi_sieve_matches_every_prime_strike_out(self, N):
        # reference: strike out every prime p <= N from phi(n) = n
        phi = np.arange(N + 1, dtype=np.int64)
        for p in P._simple_sieve(N).tolist():
            phi[p::p] -= phi[p::p] // p
        assert np.array_equal(P.phi_sieve(N), phi)

    @given(
        lo=st.one_of(st.sampled_from([0, 1]), st.integers(0, 2 * 10**6)),
        width=st.integers(-1, 150),
        shared=st.booleans(),
    )
    @example(lo=0, width=1000, shared=False)  # sqrt(N) inside the window
    @example(lo=1, width=2000, shared=True)
    @example(lo=1409**2 - 150, width=150, shared=False)  # N = 1409^2: r = 1409 is struck as a small prime
    @example(lo=1409**2 - 150, width=149, shared=True)  # N = 1409^2 - 1: 1409 is above r
    @example(lo=1409**2 - 40, width=80, shared=False)  # a prime square inside
    @example(lo=2 * 10**6 - 150, width=150, shared=True)
    @example(lo=7, width=-1, shared=False)  # empty
    @settings(max_examples=60, deadline=None)
    def test_phi_sieve_window_matches_trial_division(self, lo, width, shared):
        # phi over [lo, N] alone, with the primes sieved here or a longer
        # list shared by a caller that walks windows up to 2 * 10^6
        N = min(lo + width, 2 * 10**6)
        got = P.phi_sieve(N, lo, _primes_to_2e6() if shared else None)
        assert got.dtype == np.float64
        assert got.tolist() == [euler_phi(n) for n in range(lo, N + 1)]


@functools.cache
def _primes_to_2e6() -> np.ndarray:
    return P._simple_sieve(2 * 10**6)


def _factorize_agrees(values):
    """The int64 array path of factorize against the scalar path: the same
    dicts, the order of their factors included, or the same refusal."""
    arr = np.array(values, dtype=np.int64)
    try:
        want = [P.factorize(v) for v in values]
    except FactorizationTooHard as exc:
        with pytest.raises(FactorizationTooHard, match=f"^{re.escape(str(exc))}$"):
            P.factorize(arr)
        return
    got = P.factorize(arr)
    assert got == want
    assert [list(f.items()) for f in got] == [list(f.items()) for f in want]


# primes on either side of the trial limit 10^6
_BELOW_LIMIT = (999_953, 999_959, 999_961, 999_979, 999_983)
_ABOVE_LIMIT = (1_000_003, 1_000_033, 1_000_037, 1_000_039)


class TestFactorizationArray:
    @given(st.lists(st.one_of(st.integers(1, 2**20), st.integers(1, 10**12), st.integers(2**62, 2**63 - 1)),
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_scalar(self, values):
        _factorize_agrees(values)

    def test_edges(self):
        _factorize_agrees([1, 2, 3, 4, 8, 9, 2**62, 2**63 - 1, 2**63 - 2, 2**63 - 25, 3**39, 7**22, 251**7])
        _factorize_agrees([p**3 for p in _BELOW_LIMIT] + [p * p for p in _BELOW_LIMIT])
        _factorize_agrees(list(_ABOVE_LIMIT) + [2 * 3 * p for p in _ABOVE_LIMIT] + [p * 999_983 for p in _ABOVE_LIMIT])
        _factorize_agrees([2**40 * 1_000_003, 3**20 * 999_983, 6 * 999_999_000_001])

    def test_empty_and_shape(self):
        assert P.factorize(np.empty(0, dtype=np.int64)) == []
        got = P.factorize(np.arange(1, 13, dtype=np.int64).reshape(3, 4))
        assert got == [P.factorize(v) for v in range(1, 13)]

    @pytest.mark.parametrize("pair", [(1_000_003, 1_000_033), (1_000_003, 1_000_003), (2**31 - 1, 1_000_003)])
    def test_refuses_the_first_hard_element(self, pair):
        hard = pair[0] * pair[1]
        later = 1_000_037 * 1_000_039
        for values in ([12, 6 * hard, 5, later], [later * 2, hard, 9]):
            _factorize_agrees(values)
        with pytest.raises(FactorizationTooHard, match=f"^composite cofactor {hard} of {6 * hard}$"):
            P.factorize(np.array([12, 6 * hard, 5, later], dtype=np.int64))

    def test_miller_rabin_only_past_the_trial_limit(self, monkeypatch):
        # as in the scalar path, a cofactor below the square of the next
        # prime is 1 or prime with no test
        calls = []
        monkeypatch.setattr(P, "is_prime_int", lambda n: calls.append(n.tolist()) or P._is_prime_array(n))
        assert P.factorize(np.array([6 * 999_999_000_001, 1_000_003], dtype=np.int64)) == [
            {2: 1, 3: 1, 999_999_000_001: 1}, {1_000_003: 1}]
        assert calls == []
        # past a trial limit of 100 only the cofactors from 101^2 on are tested
        monkeypatch.setattr(P, "TRIAL_LIMIT", 100)
        assert P.factorize(np.array([97 * 20_011, 6 * 10_007, 1_000_003], dtype=np.int64)) == [
            {97: 1, 20_011: 1}, {2: 1, 3: 1, 10_007: 1}, {1_000_003: 1}]
        assert calls == [[20_011, 1_000_003]]

    def test_refuses_other_dtypes_and_nonpositive(self):
        for arr in (np.array([7], dtype=np.int32), np.array([7], dtype=np.uint64), np.array([7.0])):
            with pytest.raises(UsageError):
                P.factorize(arr)
        for values in ([0], [5, -3], [-(2**63)]):
            with pytest.raises(UsageError, match="n >= 1"):
                P.factorize(np.array(values, dtype=np.int64))


# the rows of the psi_k table that the int64 array path reads, and the bands
# [psi_{k-1}, psi_k) they decide, the last one ending at 2^63
_INT64_PSI = tuple(psi for psi, _ in P._MR_TABLE if psi < 2**63)
_INT64_BANDS = tuple(zip((2,) + _INT64_PSI, _INT64_PSI + (2**63,)))


def _array_agrees(values):
    """The int64 array path against the scalar path and sympy, elementwise."""
    got = P.is_prime_int(np.array(values, dtype=np.int64))
    assert got.dtype == bool and got.shape == (len(values),)
    for n, g in zip(values, got.tolist()):
        assert g == P.is_prime_int(n) == sympy.isprime(n), n


class TestPrimalityArray:
    def test_psi_k_and_the_prime_below(self):
        _array_agrees([v for psi in _INT64_PSI for v in (psi, int(sympy.prevprime(psi)))])

    def test_pseudoprimes_and_carmichael_numbers(self):
        spsp2 = [2047, 3277, 4033, 4681, 8321]
        # strong pseudoprimes to base 2 with no prime factor below 256: trial
        # division passes them, and only a later Miller-Rabin base rejects them
        deep = [280601, 390937, 458989, 514447]
        assert all(_strong_probable_prime(n, 2) for n in spsp2 + deep)
        assert math.gcd(math.prod(deep), math.prod(sympy.primerange(256))) == 1
        carmichael = [561, 1105, 1729, 2465, 41041, 825265]
        _array_agrees(spsp2 + deep + carmichael)

    def test_edges(self):
        _array_agrees([0, 1, 2, 3, *P._MR_BASES, -1, -2, -3, -7, -(2**63), 2**63 - 25, 2**63 - 1])
        assert P.is_prime_int(np.array([2**63 - 25]))[0]  # the largest prime below 2^63
        empty = P.is_prime_int(np.empty(0, dtype=np.int64))
        assert empty.dtype == bool and empty.shape == (0,)

    def test_matches_sieve_across_blocks(self):
        # every n below 2*10^5, in a 2-D shape: the table below 256, trial
        # division up to 2^16 and Miller-Rabin above, over many blocks
        n = np.arange(200_000, dtype=np.int64).reshape(400, 500)
        want = np.zeros(200_000, dtype=bool)
        want[P._simple_sieve(199_999)] = True
        assert np.array_equal(P.is_prime_int(n), want.reshape(400, 500))

    def test_refuses_other_dtypes(self):
        for arr in (np.array([7], dtype=np.int32), np.array([7], dtype=np.uint64), np.array([7.0])):
            with pytest.raises(UsageError):
                P.is_prime_int(arr)

    @given(st.sampled_from(_INT64_BANDS).flatmap(
        lambda band: st.lists(st.integers(band[0], band[1] - 1), min_size=1, max_size=20)))
    @settings(max_examples=150, deadline=None)
    def test_array_agrees_with_sympy(self, values):
        # each draw is a batch from one band of the psi_k table, so every row is exercised
        _array_agrees(values)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in the main thread after seconds, so that a search
    that never ends fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _lucas_kernel(values) -> np.ndarray:
    """The array strong Lucas test at Selfridge's D, on odd n with a nonzero D."""
    n = np.array(values, dtype=np.uint64)
    D = P._selfridge(n)
    assert D.all()
    return P._strong_lucas_probable_prime(n, 0 - P._inverse(n), (0 - n) % n, D)


def _base2_strong_pseudoprimes(lo: int, hi: int) -> list[int]:
    """The odd composite n in [lo, hi] that are strong probable primes to base
    2, by brute force: a plain sieve names the composites, and each gets
    2^d mod n and its squarings in int64 (hi^2 < 2^63), n - 1 = d*2^s."""
    flags = np.ones(hi + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    odd = np.arange(lo | 1, hi + 1, 2, dtype=np.int64)
    odd = odd[~flags[odd]]
    found = []
    for i in range(0, odd.size, 1 << 18):
        n = odd[i : i + (1 << 18)]
        low = (n - 1) & (1 - n)  # 2^s
        e = (n - 1) // low
        x, b = np.ones_like(n), np.full_like(n, 2)
        while e.any():
            x = np.where(e & 1 == 1, x * b % n, x)
            b = b * b % n
            e >>= 1
        ok = (x == 1) | (x == n - 1)
        for r in range(1, int(low.max()).bit_length() - 1):
            x = x * x % n
            ok |= (x == n - 1) & (low > 1 << r)
        found.extend(n[ok].tolist())
    return found


# the strong Lucas pseudoprimes below 10^5 with Selfridge's parameters (OEIS A217255)
_SLPSP = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]


class TestBPSW:
    def test_jacobi_against_sympy(self):
        a, n = np.meshgrid(np.arange(301, dtype=np.uint64), np.arange(1, 302, 2, dtype=np.uint64))
        keep = a < n
        a, n = a[keep], n[keep]
        got = P._jacobi(a, n).tolist()
        assert got == [sympy.jacobi_symbol(int(x), int(y)) for x, y in zip(a, n)]
        assert got == [jacobi(int(x), int(y)) for x, y in zip(a, n)]

    @given(st.lists(st.tuples(st.integers(1, 2**62 - 1), st.integers(0, 2**63)), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_jacobi_large(self, pairs):
        n = [2 * k + 1 for k, _ in pairs]
        a = [r % m for (_, r), m in zip(pairs, n)]
        got = P._jacobi(np.array(a, dtype=np.uint64), np.array(n, dtype=np.uint64)).tolist()
        assert got == [sympy.jacobi_symbol(x, m) for x, m in zip(a, n)]

    def test_selfridge_against_oracle(self):
        # every odd non-square n in [1001, 30001): each D the search reaches
        # is far below n, where the kernel and the oracle agree
        n = [v for v in range(1001, 30001, 2) if math.isqrt(v) ** 2 != v]
        assert P._selfridge(np.array(n, dtype=np.uint64)).tolist() == [selfridge(v) for v in n]

    def test_selfridge_ends_on_squares(self):
        # a square has no D with (D/n) = -1; without the square check the
        # search would run until |D| met a factor, past 10^9 steps here
        big = [65537, 2**31 - 1, 3037000493]  # the last is the largest prime below 2^31.5
        squares = [p * p for p in (*sympy.primerange(257, 400), *big)] + [1093**2, 3511**2, (1093 * 3511) ** 2]
        with _deadline(10):
            assert not P._selfridge(np.array(squares, dtype=np.uint64)).any()
        _array_agrees(squares)

    def test_lucas_kernel_against_oracle(self):
        n = [v for v in range(1001, 30001, 2) if math.isqrt(v) ** 2 != v and selfridge(v)]
        assert _lucas_kernel(n).tolist() == [strong_lucas_probable_prime(v) for v in n]

    @given(st.lists(st.one_of(st.integers(2**15, 2**62 - 1).map(lambda k: 2 * k + 1),
                              st.integers(2**16, 2**63 - 26).map(sympy.nextprime)), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_lucas_kernel_large(self, values):
        n = [v for v in values if math.isqrt(v) ** 2 != v and selfridge(v)]
        if n:
            assert _lucas_kernel(n).tolist() == [strong_lucas_probable_prime(v) for v in n]

    def test_strong_lucas_pseudoprimes(self):
        # the oracle finds exactly the known list below 10^5; the kernel
        # passes each of them, and the base-2 test rejects each
        found = [n for n in range(3, 10**5, 2)
                 if math.isqrt(n) ** 2 != n and not sympy.isprime(n) and strong_lucas_probable_prime(n)]
        assert found == _SLPSP
        assert _lucas_kernel(found).all()
        assert not P.is_prime_int(np.array(found, dtype=np.int64)).any()
        assert not any(P.is_prime_int(n) for n in found)

    def test_base2_strong_pseudoprimes(self):
        # every base-2 strong pseudoprime in [2^16, 10^7] passes the base-2
        # test and only the Lucas test rejects it
        spsp = _base2_strong_pseudoprimes(2**16, 10**7)
        assert len(spsp) == 151 and spsp[:3] == [74665, 80581, 85489]
        n = np.array(spsp, dtype=np.uint64)
        assert P._strong_probable_prime(n, 0 - P._inverse(n), (0 - n) % n).all()
        _array_agrees(spsp)


def _trial_reference(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(prime, live) of ``_trial_division`` from int64 remainders n % p by
    every prime p below 256: prime for the primes below 2^16, live for the
    n >= 2^16 with no such factor."""
    free = np.ones(n.shape, dtype=bool)
    for p in sympy.primerange(256):
        free &= n % p != 0
    prime = np.isin(n, np.array(list(sympy.primerange(2**16)), dtype=np.int64))
    return prime, free & (n >= 2**16)


def _trial_agrees(n: np.ndarray):
    got, want = P._trial_division(n), _trial_reference(n)
    for g, w in zip(got, want):
        assert g.dtype == bool and np.array_equal(g, w)


class TestTrialDivision:
    def test_every_n_around_zero(self):
        _trial_agrees(np.arange(-(2**16), 2**16 + 1, dtype=np.int64))

    @given(st.lists(st.one_of(st.integers(2**63 - 2**32, 2**63 - 1), st.integers(-(2**63), -(2**63) + 2**32)),
                    min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_near_the_ends_of_int64(self, values):
        _trial_agrees(np.array(values, dtype=np.int64))

    def test_exact_multiples_up_to_the_top(self):
        # p*k for small k and up to the largest k with p*k < 2^63, with the
        # neighbours p*k - 1 and p*k + 1
        values = []
        for p in sympy.primerange(3, 256):
            top = (2**63 - 1) // p
            for k in (*range(1, 300), *range(top - 300, top + 1), 2**62 // p, 2**31 - 1, 2**32 + 1):
                values.extend((p * k - 1, p * k, min(p * k + 1, 2**63 - 1)))
        _trial_agrees(np.array(values, dtype=np.int64))

