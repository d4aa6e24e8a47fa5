import math
import time

import numpy as np
import pytest

from restricta import arcs as A
from restricta.digit_systems import DigitSystem
from restricta.errors import CapExceeded, UsageError
from restricta.primes import prime_sums, sieve_primes

from tests.oracles import FareyPoint, circle_grid_unfolded, classify_point, primary_term_direct


class TestDirichletCover:
    def test_farey_point_validation(self):
        with pytest.raises(UsageError):
            FareyPoint(2, 4)


class TestClassify:
    def setup_method(self):
        self.sys = DigitSystem.excluding(10, {7})

    def test_primary_examples(self):
        ac = classify_point(300000, self.sys, 6, 3.0)
        assert ac.kind == A.PRIMARY_MAJOR
        assert (ac.witness.r, ac.witness.s) == (3, 10)
        ac = classify_point(1, self.sys, 6, 3.0)
        assert ac.kind == A.PRIMARY_MAJOR
        assert (ac.witness.r, ac.witness.s) == (0, 1)

    def test_nonsmooth_example(self):
        ac = classify_point(142857, self.sys, 6, 3.0)
        assert ac.kind == A.NONSMOOTH_MAJOR
        assert (ac.witness.r, ac.witness.s) == (1, 7)

    def test_smooth_example(self):
        # j = N/4: witness 1/4, 4 does not divide 10 but 2 | 10
        ac = classify_point(250000, self.sys, 6, 3.0)
        assert ac.kind == A.SMOOTH_MAJOR
        assert (ac.witness.r, ac.witness.s) == (1, 4)

    def test_default_A_blankets(self):
        # (log N)^51 >> N: the s = 1 window catches everything
        ac = classify_point(271828, self.sys, 6)
        assert ac.kind == A.PRIMARY_MAJOR

    def test_agrees_with_bruteforce_search(self):
        k, Aexp = 6, 3.0
        N = 10**6
        C = math.log(N) ** Aexp
        M = int(C)
        rng = np.random.default_rng(2)
        for j in rng.integers(0, N, 300).tolist():
            got = classify_point(j, self.sys, k, Aexp)
            expect = None
            for s in range(1, M + 1):
                r = round(j * s / N)
                if abs(j * s - r * N) <= C * s:
                    g = math.gcd(r, s)
                    expect = (r // g, s // g)
                    break
            if expect is None:
                assert got.kind == A.MINOR
            else:
                assert (got.witness.r, got.witness.s) == expect

    def test_partition_and_scan_agreement(self):
        sys = self.sys
        k, Aexp = 5, 1.5
        classes = A.classify_all(sys, k, Aexp)
        assert len(classes) == 10**5
        names = [A.PRIMARY_MAJOR, A.SMOOTH_MAJOR, A.NONSMOOTH_MAJOR, A.MINOR]
        rng = np.random.default_rng(3)
        for j in rng.integers(0, 10**5, 200).tolist():
            assert names[classes[j]] == classify_point(j, sys, k, Aexp).kind

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            classify_point(10**6, self.sys, 6, 3.0)

    @pytest.mark.parametrize("k, Aexp", [(6, 2.8), (7, 2.6), (7, 4.0)])
    def test_full_scan_refused_by_its_work(self, k, Aexp):
        # k = 6, A = 2.8 (M = 1559) took 11.9 s; M <= 20000 never bounded it
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded, match="window points"):
            A.classify_all(self.sys, k, Aexp)
        assert time.perf_counter() - t0 < 1.0

    def test_full_scan_cap_admits_the_documented_widths(self):
        # A = 1.5 (the circle workload) and A = 2.0 at k = 6 stay accepted
        for Aexp in (1.5, 2.0):
            assert len(A.classify_all(self.sys, 6, Aexp)) == 10**6


class TestMainTerm:
    def test_identity_small(self):
        rep = A.main_term_assembly(DigitSystem.excluding(10, {7}), 3)
        assert abs(rep.identity_sum - rep.exact_count) < 1e-6

    def test_full_digit_set_gives_pi(self):
        rep = A.main_term_assembly(DigitSystem.of(10, range(10)), 3)
        pi = prime_sums(sieve_primes(1000))[0]
        assert round(rep.identity_sum) == pi
        assert rep.exact_count == pi

    def test_primary_term_tracks_prediction(self):
        rep = A.main_term_assembly(DigitSystem.excluding(10, {7}), 4)
        # loose at k = 4: same order of magnitude, reported not asserted tightly
        assert 0.5 < rep.primary_term / rep.prediction < 2.0

    @pytest.mark.parametrize("spec, k", [
        # the systems of the pinned and compared `arcs` assembly argv
        ("q=10,exclude=7", 4), ("q=7,exclude=3", 1), ("q=10,exclude=7", 6),
        ("q=10,D=0-4", 6), ("q=2,D=1", 10), ("q=6,exclude=1", 6),
    ])
    def test_primary_term_matches_direct_sum(self, spec, k):
        sys = DigitSystem.parse(spec)
        got = A.main_term_assembly(sys, k).primary_term
        assert got == pytest.approx(primary_term_direct(sys, k), rel=1e-12, abs=0)

    def test_identity_at_fft_scale(self):
        # sparse digit set at N = 10^6 exercises the spectrum FFT path
        sys = DigitSystem.of(10, (0, 1, 2, 3, 4))
        rep = A.main_term_assembly(sys, 6)
        assert abs(rep.identity_sum - rep.exact_count) < 1e-3


class TestMinorArcMass:
    def test_full_digit_set_mass_vanishes(self):
        sys = DigitSystem.of(10, range(10))
        mass = A.arc_mass_breakdown(sys, 3, 1.5)["mass"]["non-primary"]
        assert mass < 1e-6 * 10**3

    def test_positive_and_below_zero_term(self):
        sys = DigitSystem.excluding(10, {7})
        breakdown = A.arc_mass_breakdown(sys, 5, 1.5)
        mass = breakdown["mass"]["non-primary"]
        zero_term = 9**5 * prime_sums(sieve_primes(10**5))[0] / 10**5
        assert 0 < mass < zero_term

    def test_mass_ratio_decreases_with_k(self):
        sys = DigitSystem.excluding(10, {7})
        m4 = A.arc_mass_breakdown(sys, 4, 1.5)["mass"]["non-primary"] / 9**4
        m5 = A.arc_mass_breakdown(sys, 5, 1.5)["mass"]["non-primary"] / 9**5
        assert m5 < m4


# an even N and two odd ones: the fold's self-mirrored points differ
FOLD_CASES = [
    (DigitSystem.excluding(10, {7}), 4),
    (DigitSystem.of(7, (0, 3, 6)), 5),
    (DigitSystem.of(3, (0, 2)), 9),
]


class TestFold:
    """The circle sums read j <= N/2 and count each mirror pair j, N - j twice."""

    @pytest.mark.parametrize("sys, k", [
        (DigitSystem.excluding(10, {7}), 5), (DigitSystem.excluding(10, {7}), 6),
        (DigitSystem.of(7, (0, 3, 6)), 6), (DigitSystem.of(3, (0, 2)), 11),
    ])
    def test_classes_are_mirror_symmetric(self, sys, k):
        # the breakdown reads the classes of j <= N/2 only
        classes = A.classify_all(sys, k, 1.5)
        assert len(np.unique(classes)) > 1
        assert np.array_equal(classes[1:], classes[:0:-1])

    @pytest.mark.parametrize("sys, k", FOLD_CASES)
    def test_sums_match_unfolded(self, sys, k):
        N = sys.q**k
        sp, sa = circle_grid_unfolded(sys, k)
        terms = (sp * np.conj(sa)).real
        rep = A.main_term_assembly(sys, k)
        assert rep.identity_sum == pytest.approx(math.fsum(terms) / N, rel=1e-12, abs=0)
        assert rep.primary_term == pytest.approx(math.fsum(terms[:: N // sys.q]) / N, rel=1e-12, abs=0)
        classes = A.classify_all(sys, k, 1.5)
        prod = np.abs(sp) * np.abs(sa)
        breakdown = A.arc_mass_breakdown(sys, k, 1.5)
        for c, name in enumerate(A.CLASS_NAMES):
            assert breakdown["count"][name] == np.count_nonzero(classes == c)
            want = math.fsum(prod[classes == c]) / N
            assert breakdown["mass"][name] == pytest.approx(want, rel=1e-12, abs=0), name

    @pytest.mark.parametrize("sys, k, parent, product, pinned", [
        # parent: the identity sum over the full grid from a complex FFT;
        # product: the folded grid from the product of the level windows;
        # pinned: the folded grid from one real FFT of the k-digit indicator
        (DigitSystem.excluding(10, {7}), 4, 679.9999999999964, 680.0000000000003, 680.0000000000001),
        (DigitSystem.excluding(10, {7}), 6, 34991.99999999425, 34991.999999999956, 34992.0),
        (DigitSystem.excluding(10, {5}), 6, 46548.99999999559, 46548.999999999876, 46549.00000000001),
        (DigitSystem.of(3, (0, 2)), 12, 0.9999999998303385, 0.9999999999625396, 1.000000000000028),
        (DigitSystem.of(6, (0, 2, 3, 5)), 7, 1036.9999999999102, 1037.0000000000143, 1036.9999999999998),
        (DigitSystem.of(7, (0, 3, 6)), 7, 1.0000000000000921, 0.9999999999999479, 0.9999999999999601),
    ])
    def test_folded_identity_sum_is_no_further_from_the_count(self, sys, k, parent, product, pinned):
        rep = A.main_term_assembly(sys, k)
        assert rep.identity_sum == pinned
        assert abs(pinned - rep.exact_count) <= abs(product - rep.exact_count) <= abs(parent - rep.exact_count)
