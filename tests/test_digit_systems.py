import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from restricta import digit_systems
from restricta import primes as _primes
from restricta.digit_systems import (
    CensusReport,
    DigitSystem,
    census,
    count_restricted,
    enumerate_restricted,
    prediction_constant,
)
from restricta.errors import CapExceeded, LimitExceeded, UsageError

from tests.oracles import enumerate_list


def brute_member(n: int, q: int, digits: set[int]) -> bool:
    """Independent digit predicate via the string of base-q digits."""
    if n == 0:
        return 0 in digits
    ds = []
    while n:
        ds.append(n % q)
        n //= q
    return all(d in digits for d in ds)


def brute_count(q, digits, x):
    return sum(1 for n in range(x + 1) if brute_member(n, q, set(digits)))


systems = st.integers(2, 12).flatmap(
    lambda q: st.sets(st.integers(0, q - 1), min_size=1, max_size=q).map(
        lambda d: DigitSystem.of(q, d)
    )
)


class TestCounting:
    def test_examples(self):
        assert count_restricted(DigitSystem.of(10, (7, 8, 9)), 1000) == 39
        assert count_restricted(DigitSystem.of(10, range(10)), 500) == 501
        assert count_restricted(DigitSystem.excluding(10, {7}), 100) == 82

    @given(systems, st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_oracle(self, sys, x):
        assert count_restricted(sys, x) == brute_count(sys.q, sys.digits, x)

    @given(systems.filter(lambda s: 0 in s.digits), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_padding_bijection(self, sys, k):
        # with 0 allowed, leading-zero padding makes |A(q^k - 1)| = |D|^k
        assert count_restricted(sys, sys.q**k - 1) == sys.size**k


class TestEnumeration:
    def test_examples(self):
        assert enumerate_restricted(DigitSystem.of(10, (7, 8, 9)), 100).tolist() == [
            7, 8, 9, 77, 78, 79, 87, 88, 89, 97, 98, 99,
        ]
        assert enumerate_restricted(DigitSystem.of(2, (1,)), 40).tolist() == [1, 3, 7, 15, 31]
        assert enumerate_restricted(DigitSystem.of(10, (1, 3, 4)), 50).tolist() == [
            1, 3, 4, 11, 13, 14, 31, 33, 34, 41, 43, 44,
        ]

    @given(systems, st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_length_equals_count_and_sorted(self, sys, x):
        members = enumerate_restricted(sys, x).tolist()
        assert len(members) == count_restricted(sys, x)
        assert members == sorted(members)
        assert all(brute_member(n, sys.q, set(sys.digits)) for n in members)

    @given(systems, st.sampled_from((0, 1, 2000, 2**63 - 1, 2**63, 10**21)))
    @settings(max_examples=60, deadline=None)
    def test_matches_list_oracle(self, sys, x):
        assume(count_restricted(sys, x) <= 20_000)
        members = enumerate_restricted(sys, x)
        assert members.dtype == (np.int64 if x < 2**63 else object)
        assert members.tolist() == enumerate_list(sys, x)

    @pytest.mark.parametrize("x", (2**63 - 1, 2**63, 10**21))
    @pytest.mark.parametrize("sys", (
        DigitSystem.of(2**21, (0, 1)),  # 2^63 = q^3 is a member
        DigitSystem.of(2**21, (1, 2**21 - 1)),
        DigitSystem.of(2, (1,)),  # 2^63 - 1 is a member
        DigitSystem.of(1000, (0, 1, 7)),
        DigitSystem.of(10, (1,)),
        DigitSystem.of(2**64, (0, 1, 2**63)),  # a one-digit member above int64
        DigitSystem.of(10**20, (3, 10**19)),
    ), ids=lambda s: f"q={s.q},D=" + ".".join(map(str, s.digits)))
    def test_int64_edge(self, sys, x):
        members = enumerate_restricted(sys, x)
        assert members.dtype == (np.int64 if x < 2**63 else object)
        assert members.tolist() == enumerate_list(sys, x)
        assert len(members) == count_restricted(sys, x)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(digit_systems, "ENUM_CAP", 1000)
        with pytest.raises(CapExceeded):
            enumerate_restricted(DigitSystem.of(10, range(10)), 10**6)


class TestPrediction:
    def test_examples(self):
        assert prediction_constant(DigitSystem.of(10, (1, 3, 4))) == Fraction(5, 3)
        assert prediction_constant(DigitSystem.excluding(10, {7})) == Fraction(5, 6)
        assert prediction_constant(DigitSystem.of(2, (1,))) == Fraction(2)

    def test_full_set_is_one(self):
        for q in (2, 6, 10, 30):
            assert prediction_constant(DigitSystem.of(q, range(q))) == 1

    def test_no_coprime_digits(self):
        assert prediction_constant(DigitSystem.of(10, (0, 2, 4))) == 0

    @given(systems)
    @settings(max_examples=40, deadline=None)
    def test_definition_consistency(self, sys):
        # recompute (|D_q|/|D|)*(q/phi(q)) with an independent phi
        phi = sum(1 for a in range(1, sys.q + 1) if _gcd(a, sys.q) == 1)
        dq = sum(1 for d in sys.digits if _gcd(d, sys.q) == 1)
        expect = Fraction(dq, sys.size) * Fraction(sys.q, phi) if dq else Fraction(0)
        assert prediction_constant(sys) == expect


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestDigitSystem:
    def test_invariants(self):
        sys = DigitSystem.of(10, (1, 3, 4))
        assert sys.coprime_digits == (1, 3)
        assert 0 < sys.alpha < 1
        # |D| = q^alpha up to float roundoff
        assert abs(sys.size - sys.q**sys.alpha) < 1e-9
        assert DigitSystem.of(10, range(10)).alpha == 1.0

    def test_parse_forms(self):
        assert DigitSystem.parse("q=10,D=0-6.8-9").digits == tuple(
            d for d in range(10) if d != 7
        )
        assert DigitSystem.parse("q=10,exclude=7") == DigitSystem.excluding(10, {7})
        assert DigitSystem.parse("q=2,D=1").digits == (1,)

    def test_parse_errors(self):
        for bad in ("q=10", "D=1-2", "q=10,D=11", "q=1,D=0", "q=10,zap=1"):
            with pytest.raises(UsageError):
                DigitSystem.parse(bad)

    def test_spec_string_roundtrip(self):
        sys = DigitSystem.of(12, (0, 5, 7, 11))
        spec = f"q={sys.q},D=" + ".".join(map(str, sys.digits))
        assert DigitSystem.parse(spec) == sys

    def test_contains(self):
        sys = DigitSystem.of(10, (7, 8, 9))
        assert sys.contains(789) and not sys.contains(780) and not sys.contains(0)
        assert DigitSystem.of(10, (0, 1)).contains(0)


class TestCensus:
    def test_small_census_vs_brute(self):
        sys = DigitSystem.of(10, (1, 3, 4))
        rep = census(sys, 500)
        primes = {2, 3, 5, 7, 11, 13, 31, 41, 43, 113, 131, 311, 313, 331, 431, 433, 443}
        expected = sum(1 for p in primes if p <= 500 and brute_member(p, 10, {1, 3, 4}))
        assert rep.prime_count == expected
        assert rep.count == brute_count(10, (1, 3, 4), 500)
        assert isinstance(rep, CensusReport)
        assert rep.ratio == pytest.approx(rep.prime_count / rep.predicted)

    @pytest.mark.parametrize("x,count,primes", [(10**7, 4782970, 266823), (10**8, 43046722, 2079512),
                                                (10**9, 387420490, 16503238)])
    def test_missing_seven_pinned(self, x, count, primes):
        rep = census(DigitSystem.excluding(10, {7}), x)
        assert (rep.count, rep.prime_count) == (count, primes)

    @pytest.mark.parametrize("digits,primes", [((1, 3), 18915), ((1, 9), 18530)])
    def test_enumerate_route_pinned(self, digits, primes):
        rep = census(DigitSystem.of(10, digits), 10**17)
        assert (rep.count, rep.prime_count) == (262142, primes)

    def test_repunits_past_int64(self):
        # the repunits R_1..R_19 (R_19 < 2^63) go to the array path, R_20 and
        # R_21 to the scalar one; the primes are R_2 = 11 and R_19
        rep = census(DigitSystem.of(10, (1,)), 10**21)
        assert (rep.count, rep.prime_count) == (21, 2)

    def test_enumerate_route_memory(self):
        # the 262142 members as int64 arrays, not Python ints: 4.8 MB traced
        tracemalloc.start()
        try:
            rep = census(DigitSystem.of(10, (1, 9)), 10**17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.prime_count == 18530
        assert peak < 8 * 2**20

    def test_sieve_route_matches_enum_route(self, monkeypatch):
        sys = DigitSystem.excluding(10, {7})
        monkeypatch.setattr(digit_systems, "ENUM_ROUTE_MAX", 10**9)
        a = census(sys, 30_000)  # enumeration route
        monkeypatch.setattr(digit_systems, "ENUM_ROUTE_MAX", 0)
        b = census(sys, 30_000)  # sieve route
        assert (a.count, a.prime_count) == (b.count, b.prime_count)
