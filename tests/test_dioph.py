import itertools
import math
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restricta import dioph as D
from restricta.dioph import IntervalUnion, PsiFunction
from restricta.errors import CapExceeded, FactorizationTooHard, NotReached, Unsupported, UsageError
from restricta.numutil import SUM_CHUNK, fsum_chunks
from restricta.primes import factorize, phi_sieve

from tests.oracles import FareyPoint, _dirichlet_witness


def sweep_measure(union: IntervalUnion, grid: int) -> float:
    """Membership sweep at grid midpoints: measure to within
    (number of intervals + 1) / grid."""
    pts = (np.arange(grid) + 0.5) / grid
    ends = union.endpoints_float()
    if len(ends) == 0:
        return 0.0
    idx = np.searchsorted(ends, pts)
    return float(np.count_nonzero(idx % 2 == 1)) / grid


fractions_01 = st.fractions(min_value=0, max_value=1)

# one psi per family and kind of value: non-integer and integer powers, a
# zero constant, khinchin at n = 1, both primorial families, and a table
# with entries on the edges of the SUM_CHUNK windows
EVERY_FAMILY = {
    "ds_spread": PsiFunction.ds_spread(),
    "constant:1/3": PsiFunction.constant(Fraction(1, 3)),
    "power:1": PsiFunction.power(1),
    "power:1.5": PsiFunction.power(1.5),
    "power:0.5": PsiFunction.power(0.5),
    "constant:0": PsiFunction.constant(0),
    "khinchin:0.1": PsiFunction.khinchin_threshold(0.1),
    "ds_base": PsiFunction.ds_base(),
    "table": PsiFunction.from_pairs([(3, Fraction(1, 2)), (30030, 2), (65536, 5), (65537, Fraction(1, 7)), (10**6, 3)]),
}


def union_of(pairs) -> IntervalUnion:
    """The union of Fraction pairs, over the lcm of their denominators."""
    pairs = [(Fraction(lo), Fraction(hi)) for lo, hi in pairs]
    den = math.lcm(*(x.denominator for pair in pairs for x in pair))
    return IntervalUnion(den, [(int(lo * den), int(hi * den)) for lo, hi in pairs])


def joined(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    """The union of two unions, both rescaled to the lcm of their denominators."""
    den = math.lcm(u.den, v.den)
    return IntervalUnion(den, [*u._scaled(den), *v._scaled(den)])


def fraction_pairs(u: IntervalUnion) -> tuple:
    return tuple((Fraction(lo, u.den), Fraction(hi, u.den)) for lo, hi in u.ends)


class TestIntervalUnion:
    @given(st.lists(st.tuples(fractions_01, fractions_01), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_normalisation_invariants(self, pairs):
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
        u = union_of(pairs)
        got = fraction_pairs(u)
        # disjoint, sorted, non-touching after merge
        for (lo1, hi1), (lo2, hi2) in zip(got, got[1:]):
            assert hi1 < lo2
        # idempotent
        assert fraction_pairs(union_of(got)) == got
        # insertion order independent
        assert fraction_pairs(union_of(reversed(pairs))) == got
        # measure is the sum of lengths, bounded by the covering interval
        assert u.measure == sum((hi - lo for lo, hi in got), Fraction(0))

    @given(
        st.lists(st.tuples(fractions_01, fractions_01), max_size=8),
        st.lists(st.tuples(fractions_01, fractions_01), max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_union_intersect_measures(self, p1, p2):
        u = union_of([(min(a, b), max(a, b)) for a, b in p1])
        v = union_of([(min(a, b), max(a, b)) for a, b in p2])
        inter = u.intersect(v)
        join = joined(u, v)
        assert inter.measure <= min(u.measure, v.measure)
        assert join.measure <= u.measure + v.measure
        # inclusion-exclusion holds exactly for interval unions
        assert join.measure == u.measure + v.measure - inter.measure


def frac_normalize(pairs) -> tuple:
    """Reference merge in Fractions: the representation before integer
    numerators over one denominator."""
    items = sorted((Fraction(lo), Fraction(hi)) for lo, hi in pairs if Fraction(hi) > Fraction(lo))
    merged = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def frac_intersect(a, b) -> tuple:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return frac_normalize(out)


def frac_event(q, psi, reduced=True) -> tuple:
    delta = psi.exact(q) / (q * q)
    if delta <= 0:
        return ()
    return frac_normalize(
        (max(Fraction(0), Fraction(a, q) - delta), min(Fraction(1), Fraction(a, q) + delta))
        for a in range(q + 1)
        if not reduced or math.gcd(a, q) == 1
    )


def frac_measure(intervals) -> Fraction:
    return sum((hi - lo for lo, hi in intervals), Fraction(0))


psi_families = st.one_of(
    st.fractions(min_value=0, max_value=5, max_denominator=50).map(PsiFunction.constant),
    st.lists(
        st.tuples(st.integers(1, 60), st.fractions(min_value=0, max_value=40, max_denominator=30)),
        max_size=20,
        unique_by=lambda pair: pair[0],
    ).map(PsiFunction.from_pairs),
    st.floats(0, 2).map(PsiFunction.khinchin_threshold),
    st.just(PsiFunction.ds_spread()),
)
pair_lists = st.lists(st.tuples(fractions_01, fractions_01).map(sorted), max_size=10)


class TestFractionOracle:
    """Integer numerators over one denominator against the Fraction merge."""

    @given(pair_lists, pair_lists)
    @settings(max_examples=80, deadline=None)
    def test_random_unions(self, p1, p2):
        u, v = union_of(p1), union_of(p2)
        a, b = frac_normalize(p1), frac_normalize(p2)
        assert fraction_pairs(u) == a and fraction_pairs(v) == b
        assert u.measure == frac_measure(a)
        assert fraction_pairs(u.intersect(v)) == frac_intersect(a, b)
        # int / int is correctly rounded, as float(Fraction) is
        assert u.endpoints_float().tolist() == [float(e) for pair in a for e in pair]

    @given(psi_families, st.integers(1, 60), st.integers(1, 60), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_events_and_overlaps(self, psi, q, r, reduced):
        eq, er = D.event_union(q, psi, reduced), D.event_union(r, psi, reduced)
        a, b = frac_event(q, psi, reduced), frac_event(r, psi, reduced)
        assert fraction_pairs(eq) == a and fraction_pairs(er) == b
        assert eq.measure == frac_measure(a)
        inter = frac_intersect(a, b)
        assert fraction_pairs(eq.intersect(er)) == inter
        assert eq.intersect(er).measure == frac_measure(inter)
        if q != r and reduced:
            assert D.pair_overlap(q, r, psi)[0] == frac_measure(inter)
        assert fraction_pairs(joined(eq, er)) == frac_normalize(a + b)

    @given(psi_families, st.integers(1, 30), st.integers(0, 12), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_truncated_measure(self, psi, Q, span, reduced):
        joined = frac_normalize(pair for q in range(Q, Q + span) for pair in frac_event(q, psi, reduced))
        assert D.truncated_limsup_measure(psi, Q, Q + span, reduced) == frac_measure(joined)

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(5, 7), Fraction(31, 2), Fraction(3600), Fraction(10**4)])
    def test_edge_cases(self, c):
        # clipping at 0 and 1, self-overlap once psi(q) > q/2 (unreduced),
        # and psi >= q^2, where every event covers [0, 1]
        psi = PsiFunction.constant(c)
        for q, reduced in itertools.product((1, 2, 3, 7, 12, 60), (True, False)):
            ev = D.event_union(q, psi, reduced)
            assert fraction_pairs(ev) == frac_event(q, psi, reduced)
            if c >= q * q:
                assert fraction_pairs(ev) == ((0, 1),)
            if c > Fraction(q, 2) and not reduced:
                assert len(ev) == 1


class TestRepresentation:
    def test_equal_sets_over_different_denominators(self):
        u = union_of([(Fraction(1, 4), Fraction(1, 2))])
        v = IntervalUnion(8, [(2, 4)])
        assert (u.den, v.den) == (4, 8)
        assert fraction_pairs(u) == fraction_pairs(v)
        assert fraction_pairs(IntervalUnion(8, [(2, 3)])) != fraction_pairs(u)

    @pytest.mark.parametrize("psi", [PsiFunction.constant(Fraction(2, 5)), PsiFunction.khinchin_threshold(0.3)])
    def test_event_over_lcm_of_q_and_delta(self, psi):
        # the numerators are exact integers: int64 below 2^53 (every den of
        # 2/5; khinchin's at q = 2), Python ints above (khinchin's at 6 and 35)
        for q in (2, 6, 35):
            ev = D.event_union(q, psi)
            assert ev.den == math.lcm(q, (psi.exact(q) / q**2).denominator)
            assert ev.ends.dtype == (np.int64 if ev.den < 2**53 else object)
            assert ev.ends.dtype == np.int64 or all(type(e) is int for e in ev.ends.flat)
            assert len(ev) == len(ev.ends)

    def test_event_holds_its_numerator_array(self):
        # 400000 intervals as one int64 array, 16 B each (128 B as a tuple of Python-int pairs)
        tracemalloc.start()
        try:
            ev = D.event_union(10**6, PsiFunction.constant(Fraction(1, 3)))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ev) == 400000 and held <= 24 * len(ev)


class TestPsiFamilies:
    def test_parse_and_values(self):
        psi = PsiFunction.parse("power:1")
        assert psi(4) == pytest.approx(0.25)
        assert psi.exact(4) == Fraction(1, 4)
        psi = PsiFunction.parse("constant:1/2")
        assert psi.exact(7) == Fraction(1, 2)
        psi = PsiFunction.parse("khinchin:0.5")
        assert psi(10) == pytest.approx(1 / math.log(10) ** 1.5)
        assert psi(1) == 0.0

    def test_ds_definitional_values(self):
        # primorial q_3 = 6: psi0(6) = 6/(3 log 3); spread psi(3) = 9/(6*3*log 3)
        psi0 = PsiFunction.ds_base()
        psi = PsiFunction.ds_spread()
        assert psi0(6) == pytest.approx(6 / (3 * math.log(3)))
        assert psi0(5) == 0.0
        assert psi(3) == pytest.approx(9 / (6 * 3 * math.log(3)))
        assert psi(4) == 0.0  # not squarefree
        assert psi(6) == pytest.approx(36 / (6 * 3 * math.log(3)))

    def test_vectorised_matches_scalar(self):
        # one float per psi(n): ``series`` reads values, ``measure`` and ``pairs`` read exact
        U = 20000
        for psi in (
            *(PsiFunction.power(a) for a in (1.5, 0.7, 0.5)),
            PsiFunction.constant(Fraction(2, 3)),
            *(PsiFunction.khinchin_threshold(eps) for eps in (0.0, 0.1, 0.3, 0.5)),
            PsiFunction.ds_base(),
            PsiFunction.ds_spread(),
            PsiFunction.from_pairs([(3, Fraction(1, 2)), (10, 2), (U, Fraction(1, 7))]),
        ):
            vec = psi.values(U)
            scalar = np.array([float(psi.exact(n)) for n in range(1, U + 1)])
            assert np.array_equal(vec, scalar), (psi, np.flatnonzero(vec != scalar)[:5] + 1)
        # an integer power's exact value is a true rational, within an ulp of the array's float
        for a in (1, 2, 3):
            vec = PsiFunction.power(a).values(U)
            scalar = np.array([float(Fraction(1, n**a)) for n in range(1, U + 1)])
            assert np.all(np.abs(vec - scalar) <= np.spacing(scalar))

    def test_ds_spread_huge_prime_factor_underflows_without_sieve(self, monkeypatch):
        # primorial(53) + 1 = 73 * 139 * 173 * 18564761860301: theta of that
        # largest factor forces psi below exp(-745), which is 0 as a float;
        # the walk stops near ell = 850, far below it
        real = D._log_primorial

        def small_sieve(ell):
            assert ell < 10**4, f"sieved up to {ell}"
            return real(ell)

        monkeypatch.setattr(D, "_log_primorial", small_sieve)
        assert PsiFunction.ds_spread().exact(D.primorial(53) + 1) == 0

    def test_ds_spread_exact_matches_factorizing_rule(self):
        # the rule before the prime walk: factorize, take the largest prime,
        # skip by the Rosser-Schoenfeld bound theta(x) > x(1 - 1/log x), x >= 41
        def by_factors(n):
            try:
                fac = factorize(n)
            except FactorizationTooHard:  # two primes above 10^6: theta far past the limit
                return Fraction(0)
            if n == 1 or max(fac.values()) > 1:
                return Fraction(0)
            ell = max(fac)
            two_log_n, log_ell_log = 2.0 * math.log(n), math.log(ell * math.log(ell))
            if ell >= 41 and ell * (1.0 - 1.0 / math.log(ell)) * (1.0 - 1e-9) > two_log_n - log_ell_log + 746.0:
                return Fraction(0)
            log_val = two_log_n - D._log_primorial(ell) - log_ell_log
            v = math.exp(log_val) if log_val > -745.0 else 0.0
            return Fraction(v) if v > 0 else Fraction(0)

        rng = random.Random(35)
        primes = D._simple_sieve(811).tolist()
        ns = [rng.randrange(1, 10**12) for _ in range(2000)]
        ns += [D.primorial(p) + d for p in primes if p <= 53 for d in (-1, 0, 1)]
        ns += [p * p * rng.randrange(1, 10**6) for p in primes]
        ns += [math.prod(rng.sample(primes, rng.randrange(1, 8))) for _ in range(500)]  # squarefree, ell near the cut
        psi = PsiFunction.ds_spread()
        assert [n for n in ns if psi.exact(n) != by_factors(n)] == []
        assert sum(psi.exact(n) > 0 for n in ns) > 20  # not all zero

    def test_ds_spread_values_traced_peak(self):
        tracemalloc.start()
        try:
            D._ds_spread_values(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20, peak / 2**20

    @pytest.mark.parametrize("family", list(EVERY_FAMILY))
    def test_values_on_a_window_are_the_slice(self, family):
        # every float keeps its bits: a window reads what 1..hi reads there,
        # across the primorials 30030 and 510510 and the SUM_CHUNK edges
        psi = EVERY_FAMILY[family]
        for lo, hi in ((1, 1), (1, 9), (2, 3), (5, 4), (29000, 31000), (30030, 30030),
                       (65536, 131073), (500001, 510510), (999001, 10**6)):
            for read in (psi.values, psi.support):
                got, whole = read(hi, lo), read(hi)[lo - 1 :]
                assert got.dtype == whole.dtype and got.tobytes() == whole.tobytes(), (lo, hi, read.__name__)
        with pytest.raises(UsageError, match="n >= 1"):
            psi.values(5, 0)

    def test_exact_past_the_float_range_is_refused(self):
        # primorial(751) is above the largest float, and so are ds_base and
        # ds_spread there; the OverflowError of the float step is refused typed
        n = D.primorial(751)
        for psi in (PsiFunction.ds_base(), PsiFunction.ds_spread(), PsiFunction.power(0.5), PsiFunction.khinchin_threshold(0)):
            with pytest.raises(CapExceeded, match="past the float range"):
                psi.exact(n)
        # a value the float range holds stands: ds_spread at primorial(743),
        # about e^704, and these families at primorial(739), of 1019 bits
        assert 0 < PsiFunction.ds_spread()(D.primorial(743)) < math.inf
        for psi in (PsiFunction.ds_base(), PsiFunction.ds_spread(), PsiFunction.power(0.5)):
            assert psi.exact(D.primorial(739)) > 0

    def test_ds_base_is_zero_off_the_primorials_at_any_size(self):
        # only power and khinchin form a float n, so ds_base is 0 off the
        # primorials at any size; ds_base at a primorial past the float range,
        # and power and khinchin at an n past it, are refused typed
        p743 = D.primorial(743)
        for n in (10**400, p743 - 1, p743 + 1):
            assert PsiFunction.ds_base().exact(n) == 0
        for psi, n in ((PsiFunction.ds_base(), p743), (PsiFunction.power(0.5), 10**400),
                       (PsiFunction.khinchin_threshold(0.5), 10**400)):
            with pytest.raises(CapExceeded, match="past the float range"):
                psi.exact(n)

    @pytest.mark.parametrize("psi", [PsiFunction.power(0.5), PsiFunction.power(2.5), PsiFunction.khinchin_threshold(0),
                                     PsiFunction.khinchin_threshold(0.3), PsiFunction.ds_base()], ids=repr)
    def test_exact_is_the_float_of_values(self, psi):
        rng = random.Random(37)
        sample = [1, 2, 3, 6, 30, 30030, 2**53 + 1, 2**63, 10**18 + 9, D.primorial(47), 10**300]
        sample += [rng.randrange(1, 10**12) for _ in range(200)]
        assert [n for n in sample if psi.exact(n) != Fraction(psi.values(n, n)[0])] == []

    def test_ds_spread_theta_cap(self, monkeypatch):
        monkeypatch.setattr(D, "THETA_SIEVE_CAP", 100)
        D._log_primorial.cache_clear()
        psi = PsiFunction.ds_spread()
        assert psi(97) > 0
        with pytest.raises(CapExceeded):
            psi(D.primorial(103))
        D._log_primorial.cache_clear()

    # cut points of the divided primes: theta(797) meets the limit
    # 2 log(upto) + 746 at upto = 698 and theta(809) at 19836; every prime
    # up to 773 meets it at any upto, so there ell <= upto is the cut
    @pytest.mark.parametrize("upto", [1, 2, 3, 4, 48, 49, 50, 697, 698, 772, 773, 960, 961, 962, 10**3,
                                      19835, 19836, 2 * 10**5])
    def test_ds_spread_values_match_unpruned_loop(self, upto):
        # every squarefree m, whatever the size of theta of its largest prime
        gpf = np.zeros(upto + 1, dtype=np.int64)
        sqfree = np.ones(upto + 1, dtype=bool)
        primes = D._simple_sieve(upto).tolist() if upto >= 2 else []
        for p in primes:
            gpf[p::p] = p
            sqfree[p * p :: p * p] = False
        # theta(p) is the exact sum of the float logs rounded once, which is
        # what math.fsum returns (checked on a sample of prefixes)
        logs = [math.log(p) for p in primes]
        log_theta = dict(zip(primes, map(float, itertools.accumulate(map(Fraction, logs)))))
        for i in range(0, len(primes), 97):
            assert log_theta[primes[i]] == math.fsum(logs[: i + 1])
        want = np.zeros(upto)
        for m in (np.flatnonzero((sqfree & (gpf > 0))[1:]) + 1).tolist():
            ell = int(gpf[m])
            log_val = 2.0 * math.log(m) - log_theta[ell] - math.log(ell * math.log(ell))
            want[m - 1] = math.exp(log_val) if log_val > -745.0 else 0.0
        assert np.array_equal(D._ds_spread_values(upto), want)

    def test_ds_spread_values_equal_exact(self):
        # the vectorised and the scalar path share one theta(ell)
        psi = PsiFunction.ds_spread()
        vec = psi.values(20000)
        assert [n for n in range(1, 20001) if vec[n - 1] != float(psi.exact(n))] == []

    def test_table_zero_off_table(self):
        psi = PsiFunction.from_pairs([(5, 1)])
        assert psi(4) == 0.0 and psi(5) == 1.0
        # n below, on, between and above the entries, and an empty table
        table = {2: Fraction(1, 3), 5: Fraction(0), 6: Fraction(7, 2), 40: Fraction(1, 10**400)}
        for psi, want in ((PsiFunction.from_pairs(table.items()), table), (PsiFunction.from_pairs([]), {})):
            assert [psi.exact(n) for n in range(1, 60)] == [want.get(n, 0) for n in range(1, 60)]

    @pytest.mark.parametrize("pairs", [
        [(3, Fraction(1, 2)), (3, Fraction(1, 4))],  # two values of psi(3)
        [(3, Fraction(1, 2)), (5, 1), (3, Fraction(1, 2))],
        [(3, -1)],
        [(0, Fraction(1, 2)), (3, Fraction(1, 4))],
        [(-2, 1)],
    ], ids=("repeated", "repeated-equal", "negative", "n=0", "n<0"))
    def test_table_refuses_bad_rows(self, pairs):
        with pytest.raises(UsageError):
            PsiFunction.from_pairs(pairs)

    def test_parse_errors(self):
        with pytest.raises(UsageError):
            PsiFunction.parse("nope:1")


class TestEvents:
    def test_q2_half(self):
        ev = D.event_union(2, PsiFunction.constant(Fraction(1, 2)))
        assert fraction_pairs(ev) == ((Fraction(3, 8), Fraction(5, 8)),)
        assert ev.measure == Fraction(1, 4)

    def test_covering_psi(self):
        ev = D.event_union(5, PsiFunction.constant(3), reduced=False)
        assert ev.measure == 1

    def test_q6_reduced(self):
        ev = D.event_union(6, PsiFunction.constant(Fraction(1, 2)))
        assert ev.measure == Fraction(1, 18)
        assert len(ev) == 2  # windows at 1/6 and 5/6 only

    def test_q1_convention(self):
        # a = 0 and a = 1 both admitted at q = 1, clipped at the ends
        ev = D.event_union(1, PsiFunction.constant(Fraction(1, 4)))
        assert ev.measure == Fraction(1, 2)

    @given(st.integers(1, 40), st.fractions(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_reduced_below_full_below_cap(self, q, c):
        psi = PsiFunction.constant(c)
        reduced = D.event_union(q, psi, reduced=True).measure
        full = D.event_union(q, psi, reduced=False).measure
        assert reduced <= full <= min(Fraction(1), 2 * c / q**2 * (q + 1))

    def test_exact_measure_when_disjoint_interior(self):
        q = 7
        psi = PsiFunction.constant(Fraction(1, 100))
        ev = D.event_union(q, psi)
        phi_q = 6
        assert ev.measure == Fraction(2, 100 * 49) * phi_q

    def test_sweep_oracle_agreement(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            q = int(rng.integers(2, 50))
            c = Fraction(int(rng.integers(1, 8)), int(rng.integers(2, 30)))
            ev = D.event_union(q, PsiFunction.constant(c))
            grid = 200_000
            approx = sweep_measure(ev, grid)
            assert abs(approx - float(ev.measure)) <= (len(ev) + 1) / grid


class TestTruncatedMeasure:
    def test_empty_range(self):
        assert D.truncated_limsup_measure(PsiFunction.constant(1), 5, 5) == 0

    def test_join_holds_no_scaled_copy_of_the_events(self):
        # a copy of the events scaled to the lcm of their dens holds each end
        # as a Python int of the lcm's size (426 bits, 84 B), beyond the
        # events themselves (a joined, sorted list of them took 116 B per
        # end); the sweep's float keys, order, depth and int64 coefficients
        # take about 26 B per end, under the half of a scaled end allowed here
        psi = PsiFunction.constant(Fraction(1, 4))
        tracemalloc.start()
        try:
            events = [D.event_union(q, psi) for q in range(2, 150)]
            events_peak = tracemalloc.get_traced_memory()[1]
            ends = 2 * sum(len(ev) for ev in events)
            scaled_end = sys.getsizeof(math.lcm(*(ev.den for ev in events)))
            del events
            tracemalloc.reset_peak()
            D.truncated_limsup_measure(psi, 2, 150)
            join_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert join_peak < events_peak + ends * scaled_end / 2

    def test_monotone_and_subadditive(self):
        psi = PsiFunction.constant(Fraction(1, 2))
        m_34 = D.truncated_limsup_measure(psi, 2, 4)
        m_35 = D.truncated_limsup_measure(psi, 2, 5)
        assert m_35 >= m_34 >= D.event_union(2, psi).measure == Fraction(1, 4)
        total = sum((D.event_union(q, psi).measure for q in range(2, 5)), Fraction(0))
        assert m_34 <= total

    def test_select_r_example(self):
        # running exact measures: 1/2 (q=2), +4/9, +1/4 crosses 1 at q = 4
        assert D.select_R(PsiFunction.constant(1), 2) == 5

    def test_select_r_minimality_and_bound(self):
        psi = PsiFunction.constant(Fraction(3, 4))
        R = D.select_R(psi, 2)
        total = sum((D.event_union(q, psi).measure for q in range(2, R)), Fraction(0))
        prev = sum((D.event_union(q, psi).measure for q in range(2, R - 1)), Fraction(0))
        assert total >= 1 > prev
        assert total < 2  # < 1 + max single event <= 2

    def test_select_r_not_reached(self):
        with pytest.raises(NotReached):
            D.select_R(PsiFunction.constant(0), 2, cap=100)

    def test_select_r_refused_past_interval_cap(self, monkeypatch):
        # psi = 1/q^2: the event measures sum to less than 1, so only the
        # interval count stops the walk before the q cap
        monkeypatch.setattr(D, "INTERVAL_CAP", 5000)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded):
            D.select_R(PsiFunction.power(2), 2)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("held", [D.truncated_limsup_measure, D.quasi_independence_ratio])
    def test_held_events_refused_past_held_cap(self, monkeypatch, held):
        # the events of q in [2, 200) hold 12k intervals, all at once
        monkeypatch.setattr(D, "HELD_INTERVAL_CAP", 5000)
        with pytest.raises(CapExceeded, match="above 5000"):
            held(PsiFunction.constant(Fraction(1, 3)), 2, 200)

    def test_disjoint_events_refused_before_any_is_built(self, monkeypatch):
        # psi = 1/3 < q/2: event q holds phi(q) disjoint intervals, whose sum
        # passes the held cap over 2 <= q < 2570 (building them first took
        # 3.5 s and 296 MB) and over 5000 <= q < 7000 (7.29M, 3.8 s)
        def built(*args):
            raise AssertionError("an event was built")

        monkeypatch.setattr(D, "_event_pairs", built)
        for held, Q, R in ((D.truncated_limsup_measure, 2, 2570), (D.quasi_independence_ratio, 5000, 7000)):
            t0 = time.perf_counter()
            with pytest.raises(CapExceeded, match="above 2000000"):
                held(PsiFunction.constant(Fraction(1, 3)), Q, R)
            assert time.perf_counter() - t0 < 0.5

    @pytest.mark.parametrize("psi", [PsiFunction.constant(Fraction(1, 3)), PsiFunction.ds_spread()])
    def test_held_count_walks_prefixes_not_r(self, monkeypatch, psi):
        # the held count passes the cap near q = 2570, so the refusal at
        # R = 10^7 needs psi and phi only on the first windows, [2, 2^16]
        # and at most [2^16 + 1, 2^17] (the whole range took 1.2 s and
        # 229 MB for 1/3, 2.0 s and 306 MB for ds_spread)
        seen = []
        values, sieve = PsiFunction.values, D.phi_sieve
        monkeypatch.setattr(
            PsiFunction, "values", lambda self, upto, lo=1: seen.append((lo, upto)) or values(self, upto, lo)
        )
        monkeypatch.setattr(D, "phi_sieve", lambda n, lo=0: seen.append((lo, n)) or sieve(n, lo))
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="above 2000000"):
            D.truncated_limsup_measure(psi, 2, 10**7)
        assert time.perf_counter() - t0 < 0.5
        assert seen and set(seen) <= {(2, 2**16), (2**16 + 1, 2**17)}

    def test_held_count_prefixes_cover_the_window(self, monkeypatch):
        # psi = 1/q^2 is 0 nowhere: a cap of the phi(q) summed over
        # 2 <= q <= 2^17 + 3 is passed only by q = 2^17 + 4, on the third prefix
        per = phi_sieve(2**17 + 4)
        monkeypatch.setattr(D, "HELD_INTERVAL_CAP", int(per[2:-1].sum()))
        monkeypatch.setattr(D, "_events", lambda *args: iter(()))
        seen = []
        sieve = D.phi_sieve
        monkeypatch.setattr(D, "phi_sieve", lambda n, lo=0: seen.append((lo, n)) or sieve(n, lo))
        assert D._held_events(PsiFunction.power(2), 2, 2**17 + 4, True) == []
        with pytest.raises(CapExceeded):
            D._held_events(PsiFunction.power(2), 2, 2**17 + 5, True)
        windows = [(2, 2**16), (2**16 + 1, 2**17)]
        assert seen == [*windows, (2**17 + 1, 2**17 + 3), *windows, (2**17 + 1, 2**17 + 4)]

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(3, 4)])
    @pytest.mark.parametrize("reduced", [True, False])
    def test_held_count_known_before_building(self, monkeypatch, reduced, c):
        # the lower bound is the count the built events hold: the last R
        # below the cap is answered, and the first above it builds nothing
        monkeypatch.setattr(D, "HELD_INTERVAL_CAP", 5000)
        per = phi_sieve(400) if reduced else np.arange(401) + 1
        R = 3 + int(np.argmax(np.cumsum(per[2:]) > 5000))
        psi = PsiFunction.constant(c)
        assert D.truncated_limsup_measure(psi, 2, R - 1, reduced) > 0

        def built(*args):
            raise AssertionError("an event was built")

        monkeypatch.setattr(D, "_event_pairs", built)
        with pytest.raises(CapExceeded, match="above 5000"):
            D.truncated_limsup_measure(psi, 2, R, reduced)

    def test_select_r_answers_past_held_cap(self):
        # select_R holds one event at a time, so it keeps INTERVAL_CAP: psi =
        # 11/100 walks past more intervals than the held cap before it answers
        R = D.select_R(PsiFunction.constant(Fraction(11, 100)), 2)
        assert R == 2908
        assert sum(phi_sieve(R - 1)[2:].tolist()) > D.HELD_INTERVAL_CAP


    def test_zero_psi_builds_no_event(self, monkeypatch):
        # ds_base is 0 off the primorials: [30000, 600000) builds the events
        # at 30030 and 510510 only, and the measure is the one that building
        # all 570000 events gave (10.1 s against 0.47 s)
        built = []
        build = D._event_pairs
        monkeypatch.setattr(D, "_event_pairs", lambda q, *args: built.append(q) or build(q, *args))
        m = D.truncated_limsup_measure(PsiFunction.ds_base(), 30000, 600000)
        assert m == Fraction(1890555281625666489, 99498342470930923520)
        assert built == [30030, 510510]

    def test_zero_psi_skipped_against_every_event(self):
        # a table with zeros, an explicit 0 and entries below the smallest
        # float, and a constant below it: the union of every q's event
        tiny = Fraction(1, 10**400)
        table = PsiFunction.from_pairs([(2, Fraction(1, 3)), (5, Fraction(2, 7)), (7, 0), (30, tiny), (400, Fraction(1, 5))])
        for psi, Q, R in ((table, 1, 500), (PsiFunction.constant(tiny), 2, 40), (PsiFunction.ds_base(), 2, 300)):
            for reduced in (True, False):
                every = frac_normalize(pair for q in range(Q, R) for pair in frac_event(q, psi, reduced))
                assert D.truncated_limsup_measure(psi, Q, R, reduced) == frac_measure(every), (psi.family, reduced)
        # select_R steps over the zeros and still counts the tiny entry's measure
        psi = PsiFunction.from_pairs([(3, 1), (50, tiny), (700, 2), (7000, 7000**2)])
        assert D.select_R(psi, 2, cap=10000) == 7001
        with pytest.raises(NotReached):
            D.select_R(psi, 2, cap=6999)

    def test_support_is_where_exact_psi_is_positive(self):
        tiny = Fraction(1, 10**400)
        for psi in (
            PsiFunction.power(2), PsiFunction.power(400), PsiFunction.power(Fraction(801, 2)),
            PsiFunction.constant(0), PsiFunction.constant(tiny), PsiFunction.khinchin_threshold(0.5),
            PsiFunction.ds_base(), PsiFunction.ds_spread(),
            PsiFunction.from_pairs([(3, tiny), (4, 0), (9, Fraction(1, 2)), (300, 1)]),
        ):
            want = [psi.exact(n) > 0 for n in range(1, 241)]
            assert psi.support(240).tolist() == want, psi


class TestPairOverlap:
    def test_disjoint_windows(self):
        exact, pv = D.pair_overlap(3, 6, PsiFunction.constant(Fraction(1, 2)))
        assert exact == 0

    def test_tiny_psi_disjoint(self):
        exact, _ = D.pair_overlap(11, 13, PsiFunction.constant(Fraction(1, 1000)))
        assert exact == 0

    def test_exact_value_2_3(self):
        exact, pv = D.pair_overlap(2, 3, PsiFunction.constant(Fraction(1, 2)))
        assert exact == Fraction(1, 36)
        assert pv > 0

    def test_symmetry(self):
        psi = PsiFunction.constant(Fraction(2, 3))
        for (q, r) in ((2, 3), (4, 6), (5, 7), (9, 12)):
            a, _ = D.pair_overlap(q, r, psi)
            b, _ = D.pair_overlap(r, q, psi)
            assert a == b

    def test_sweep_oracle(self):
        psi = PsiFunction.constant(Fraction(1, 2))
        exact, _ = D.pair_overlap(2, 3, psi)
        inter = D.event_union(2, psi).intersect(D.event_union(3, psi))
        assert abs(sweep_measure(inter, 200_000) - float(exact)) < 5e-5

    def test_same_q_rejected(self):
        with pytest.raises(UsageError):
            D.pair_overlap(3, 3, PsiFunction.constant(1))


# quasi_independence_ratio(constant:c, 2, 120)
PINNED_RATIOS = [
    ("1/3", 0.6057643357503142),
    ("1/4", 0.5018066642518434),
    ("1/5", 0.43018035901718393),
    ("2/5", 0.6830880670328259),
    ("1/6", 0.3756177641653919),
]


def pairwise_ratio(psi: PsiFunction, Q: int, R: int) -> float:
    """The quasi-independence ratio from the exact intersection of every
    pair of events, as a Fraction sum."""
    events = [D.event_union(q, psi) for q in range(Q, R)]
    lhs = sum((u.intersect(v).measure for u, v in itertools.combinations(events, 2)), Fraction(0))
    total = sum((ev.measure for ev in events), Fraction(0))
    return float(2 * lhs) / float(total) ** 2 if total else 0.0


class TestQuasiIndependence:
    def test_no_pairs(self):
        assert D.quasi_independence_ratio(PsiFunction.constant(Fraction(1, 2)), 2, 3) == 0.0

    def test_finite_ratio(self):
        ratio = D.quasi_independence_ratio(PsiFunction.constant(Fraction(1, 2)), 2, 50)
        assert 0 < ratio < 10**6

    def test_matches_direct_computation(self):
        psi = PsiFunction.constant(Fraction(1, 2))
        assert D.quasi_independence_ratio(psi, 2, 8) == pairwise_ratio(psi, 2, 8)

    # each n is 0, small, self-overlapping (psi(n) > n/2, the reduced
    # windows of E_n meet), clipped at 0 and 1 (psi(n) > n, and n = 1), or
    # at least n^2 (E_n covers [0, 1])
    @given(st.lists(st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=12),
        st.fractions(min_value=1, max_value=100, max_denominator=5),
    ), min_size=1, max_size=9), st.integers(1, 4))
    # psi(2) = 4/9, psi(3) = 1/2: E_2 = [7/18, 11/18] touches both
    # windows of E_3, [5/18, 7/18] and [11/18, 13/18], at one endpoint
    @example([Fraction(0), Fraction(4, 9), Fraction(1, 2)], 1)
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_pairwise_intersections(self, values, Q):
        psi = PsiFunction.from_pairs(enumerate(values, 1))
        R = len(values) + 1
        Q = min(Q, R)
        assert D.quasi_independence_ratio(psi, Q, R) == pairwise_ratio(psi, Q, R)

    def test_ds_spread_ratio_is_diagnostic(self):
        # the primorial-block ratio is finite and well below the 10^6 slack
        ratio = D.quasi_independence_ratio(PsiFunction.ds_spread(), 2, 32)
        assert 0 <= ratio < 10**6

    @pytest.mark.parametrize("c, ratio", PINNED_RATIOS)
    def test_pinned_ratio(self, c, ratio):
        assert repr(D.quasi_independence_ratio(PsiFunction.constant(Fraction(c)), 2, 120)) == repr(ratio)

    def test_range_cap(self):
        with pytest.raises(CapExceeded):
            D.quasi_independence_ratio(PsiFunction.constant(1), 2, 5000)


class TestSweep:
    """The float-keyed sweep where floats cannot order the ends."""

    def test_ties_ordered_exactly(self):
        # E_2 = [5/12 - e, 7/12 + e] with e = 2^-70, and E_3 = [1/4, 5/12] u
        # [7/12, 3/4]: 5/12 - e and 5/12, 7/12 and 7/12 + e have one float
        # each, so only the exact order of those runs gives the union
        # [1/4, 3/4] and the overlaps of length e on both sides
        psi = PsiFunction.from_pairs([(2, Fraction(1, 3) + Fraction(1, 2**68)), (3, Fraction(3, 4))])
        assert D.truncated_limsup_measure(psi, 2, 4) == Fraction(1, 2)
        assert D.quasi_independence_ratio(psi, 2, 4) == pairwise_ratio(psi, 2, 4)

    @pytest.mark.parametrize("K", [2**51 - 1, 2**51 + 1])
    @pytest.mark.parametrize("m", [1, 2**49 + 3, 3 * 2**51 + 1, 5 * 2**51 + 1])
    def test_numerators_either_side_of_2_53(self, K, m):
        # psi(2) = m/K puts event 2 over den = 4K = 2^53 -+ 4, int64
        # numerators below 2^53 and Python ints above; m gives a tiny event,
        # psi near 1/4, self-overlap past q/2 and psi past q^2 (all of [0, 1]);
        # psi(5) = 3m/K reaches past 5/2, where the reduced windows of E_5 meet
        psi = PsiFunction.from_pairs([(2, Fraction(m, K)), (3, Fraction(1, 3)), (5, Fraction(3 * m, K))])
        den, pairs = D._event_pairs(2, psi)
        assert den == 4 * K and pairs.dtype == (np.int64 if den < 2**53 else object)
        for reduced in (True, False):
            for q in (2, 3, 5):
                assert fraction_pairs(D.event_union(q, psi, reduced)) == frac_event(q, psi, reduced)
            every = frac_normalize(pair for q in (2, 3, 5) for pair in frac_event(q, psi, reduced))
            assert D.truncated_limsup_measure(psi, 2, 6, reduced) == frac_measure(every)
        assert D.quasi_independence_ratio(psi, 2, 6) == pairwise_ratio(psi, 2, 6)


def dirichlet_approx(alpha, N: int) -> FareyPoint:
    """Reduced m/n with n <= N and |alpha - m/n| < 1/(nN), from the
    continued-fraction witness of the classify oracle."""
    x = Fraction(alpha)
    m, n = _dirichlet_witness(x.numerator, x.denominator, N)
    return FareyPoint(m, n, 1.0 / (n * N))


class TestClassicalApproximation:
    def test_half(self):
        fp = dirichlet_approx(Fraction(1, 2), 10)
        assert (fp.r, fp.s) == (1, 2)

    def test_pi_minus_three(self):
        fp = dirichlet_approx(math.pi - 3, 100)
        assert (fp.r, fp.s) == (1, 7)
        assert abs((math.pi - 3) - 1 / 7) < 1 / (7 * 100)

    def test_dirichlet_quality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            alpha = float(rng.random())
            N = int(rng.integers(2, 10**4))
            fp = dirichlet_approx(alpha, N)
            assert fp.s <= N
            assert abs(alpha - fp.r / fp.s) < 1.0 / (fp.s * N) + 1e-15

    def test_golden_returns_fibonacci(self):
        fib = [1, 1]
        while fib[-1] < 1000:
            fib.append(fib[-1] + fib[-2])
        golden = (math.sqrt(5) - 1) / 2
        for N in (55, 89, 144, 987):
            fp = dirichlet_approx(golden, N)
            assert fp.s in fib and fp.r in fib
            assert fib[fib.index(fp.s) - 1] == fp.r

    def test_golden_gap_values(self):
        assert D.golden_gap(2) == pytest.approx(math.sqrt(5) * (2 - (1 + math.sqrt(5)) / 2))
        assert abs(D.golden_gap(20) - 1) < 1e-3
        # strictly closer to 1 as n grows (alternating around 1)
        assert abs(D.golden_gap(40) - 1) < abs(D.golden_gap(20) - 1)

    def test_golden_gap_range(self):
        with pytest.raises(UsageError):
            D.golden_gap(1)


class TestSeries:
    def test_harmonic(self):
        kh, _ = D.series_partial(PsiFunction.constant(1), 10**6)
        assert kh == pytest.approx(math.log(10**6) + 0.5772156649, abs=5e-4)

    def test_zeta2(self):
        kh, _ = D.series_partial(PsiFunction.power(1), 10**6)
        assert abs(kh - math.pi**2 / 6) < 1e-5

    def test_ds_weighting_reduces(self):
        # phi(n)/n < 1: the reduced series never exceeds the plain series
        for fam in (PsiFunction.constant(1), PsiFunction.ds_spread()):
            kh, ds = D.series_partial(fam, 20000)
            assert ds <= kh

    def test_ds_spread_trend(self):
        kh_small, _ = D.series_partial(PsiFunction.ds_spread(), 10**3)
        kh_large, _ = D.series_partial(PsiFunction.ds_spread(), 10**5)
        assert kh_large > kh_small  # Mertens-type growth continues

    @pytest.mark.parametrize("family", list(EVERY_FAMILY))
    @pytest.mark.parametrize("Q", [1, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1, 10**6])
    def test_chunked_terms_match_whole_array(self, family, Q):
        # the whole-array formula that terms formed window by window replace
        psi = EVERY_FAMILY[family]
        vals = psi.values(Q)
        n = np.arange(1, Q + 1, dtype=np.float64)
        phi = phi_sieve(Q)[1:].astype(np.float64)
        assert D.series_partial(psi, Q) == (fsum_chunks(vals / n), fsum_chunks(vals * phi / n**2))

    def test_series_at_its_cap_holds_no_q_long_array(self):
        # psi and phi one SUM_CHUNK window at a time: the series at Q = 10^7
        # peaked at 237 MB with both as Q-long arrays, and at 49 MB in
        # windows.  A small interpreter runs the command, so its
        # RUSAGE_CHILDREN is that one child's peak: read here, it would be
        # the largest child the suite has run, and a child of this process
        # counts the pages it shared with the suite before its exec
        argv = ["-m", "restricta", "dioph", "--psi", "ds_spread", "--cmd", "series", "--Q", "10000000"]
        peak = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        env = {"PYTHONPATH": str(Path(D.__file__).parents[1]), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-c", peak, sys.executable, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100 * 1024, int(proc.stdout) / 1024  # KiB on Linux


class TestDsCounterexample:
    def test_report(self):
        rep = D.ds_counterexample(10**4)
        assert rep.base_series < 3
        assert rep.spread_series > 1.5 * rep.base_series
        assert rep.still_growing
        assert rep.containment_ok
        assert rep.containments_verified > 10

    def test_small_ell(self):
        rep = D.ds_counterexample(5)
        assert rep.base_series == pytest.approx(
            1 / (2 * math.log(2)) + 1 / (3 * math.log(3)) + 1 / (5 * math.log(5))
        )
        # spread inherits prod_{p<ell}(1+1/p)
        expect = (
            1 / (2 * math.log(2))
            + (3 / 2) / (3 * math.log(3))
            + (3 / 2) * (4 / 3) / (5 * math.log(5))
        )
        assert rep.spread_series == pytest.approx(expect)

    def test_containment_reads_psi(self, monkeypatch):
        assert D.ds_counterexample(50).containment_ok
        # a spread family whose windows are not the base windows must fail
        monkeypatch.setattr(PsiFunction, "ds_spread", classmethod(lambda cls: cls.power(1)))
        assert not D.ds_counterexample(50).containment_ok

    def test_containment_is_exact_equality(self):
        # interval around a/q coincides with the one around (a q_l / q)/q_l
        q, ell = 15, 5
        q_ell = D.primorial(ell)
        assert q_ell % q == 0
        a = 2
        A = a * (q_ell // q)
        assert Fraction(a, q) == Fraction(A, q_ell)


class TestHausdorff:
    def test_analytic_values(self):
        assert D.hausdorff_exponent(PsiFunction.power(2)) == pytest.approx(0.5)
        assert D.hausdorff_exponent(PsiFunction.power(1)) == pytest.approx(2 / 3)
        assert D.hausdorff_exponent(PsiFunction.power(1e-9)) == pytest.approx(1.0, abs=1e-8)

    def test_slope_sign_change(self):
        for a in (0.5, 1.0, 2.0):
            psi = PsiFunction.power(a)
            beta = D.hausdorff_exponent(psi)
            below = D.hausdorff_slope(psi, beta - 0.05)
            above = D.hausdorff_slope(psi, beta + 0.05)
            assert below > 10 * above > 0

    def test_unsupported(self):
        for psi in (PsiFunction.constant(1), PsiFunction.khinchin_threshold(0.5)):
            with pytest.raises(Unsupported):
                D.hausdorff_exponent(psi)
            with pytest.raises(Unsupported):
                D.hausdorff_slope(psi, 0.5)
        # a <= 0 is refused by the family's constructor, before any diagnostic runs
        for a in (0, -1):
            with pytest.raises(UsageError, match="a > 0"):
                PsiFunction.power(a)
