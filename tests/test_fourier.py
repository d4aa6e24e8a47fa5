import cmath
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restricta import fourier as F
from restricta.digit_systems import DigitSystem
from restricta.errors import CapExceeded, UsageError
from restricta.fourier import FourierProfile, _Window

from tests.oracles import (
    cell_sup_unfolded,
    circle_grid_unfolded,
    digit_window_sum,
    refined_cell_sups_unfolded,
    sin_bound,
)

TAU = F.TAU


def padded_members(sys, k):
    """The padded k-digit set (leading zeros allowed), by enumeration."""
    members = [0]
    for _ in range(k):
        members = [t * sys.q + d for t in members for d in sys.digits]
    return members


def brute_sa(sys, k, theta):
    """Direct sum over the padded k-digit set."""
    return sum(cmath.exp(2j * math.pi * ((n * theta) % 1.0)) for n in padded_members(sys, k))


def profiles_strategy():
    return (
        st.integers(2, 9)
        .flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.sets(st.integers(0, q - 1), min_size=2, max_size=q).filter(
                    lambda d: 0 in d
                ),
            )
        )
        .flatmap(
            lambda qd: st.tuples(
                st.just(DigitSystem.of(qd[0], qd[1])),
                st.integers(1, 4).filter(lambda k: len(qd[1]) ** k <= 3000),
            )
        )
        .map(lambda sk: FourierProfile(sk[0], sk[1]))
    )


class TestWindow:
    def test_cell_sup_memory_per_cell(self):
        # cells are capped chunk by chunk, and only the n/2 cells below 1/2
        # are evaluated, so once n/2 passes two chunks of rows (2^16 at
        # grid 2) the peak grows only by the 8-byte result
        win = _Window(DigitSystem.excluding(10, {7}))
        peaks = []
        for n in (3 * 10**5, 10**6):
            tracemalloc.start()
            try:
                win.cell_sup(n, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.25 * 8 * (10**6 - 3 * 10**5)

    def test_full_set_at_zero(self):
        assert digit_window_sum(DigitSystem.of(10, range(10)), 0.0) == pytest.approx(10)

    def test_binary_cancellation(self):
        assert digit_window_sum(DigitSystem.of(2, (0, 1)), 0.5) == pytest.approx(0, abs=1e-12)

    def test_missing_digit_matches_direct(self):
        sys = DigitSystem.excluding(10, {7})
        direct = abs(sum(cmath.exp(2j * math.pi * 0.3 * d) for d in sys.digits))
        assert digit_window_sum(sys, 0.3) == pytest.approx(direct, abs=1e-12)

    @given(
        st.integers(2, 11).flatmap(lambda q: st.tuples(st.just(q), st.sets(st.integers(0, q - 1), min_size=1, max_size=q))),
        # phi = m/2^53 over [1e-6, 1 - 1e-6]: the geometric ratio loses
        # eps/||phi|| accuracy inside a ~1e-6 sliver of the integers;
        # certified maxima cover that via analytic caps (guard test below)
        st.integers(math.ceil(1e-6 * 2**53), math.floor((1 - 1e-6) * 2**53)),
    )
    # the worst case met so far: the full set of base 11 just below 1 (3.9e-10)
    @example((11, frozenset(range(11))), int(0.9999989999999999 * 2**53))
    @settings(max_examples=80, deadline=None)
    def test_closed_forms_match_direct_sum(self, qd, m):
        q, digits = qd
        sys = DigitSystem.of(q, digits)
        win = _Window(sys)
        direct = sum(cmath.exp(2j * math.pi * (d * m % 2**53) / 2**53) for d in sys.digits)
        got = complex(win.values(np.array([m]), 2**53)[0])
        assert abs(got - direct) < 1e-9
        got2 = complex(win.values(np.array([3]), 7)[0])
        direct2 = sum(cmath.exp(2j * math.pi * d * 3 / 7) for d in sys.digits)
        assert abs(got2 - direct2) < 1e-9

    def test_closed_forms_at_integer_slivers(self):
        # exactly at 0 and 1 the limit value applies; phase noise just
        # outside must not produce garbage ratios (phi = m/2^53: 0, 1,
        # 1 - 2^-53, the nearest to 1e-12, and 1/2)
        for digits in ((0, 1), (0, 1, 2, 4)):
            sys = DigitSystem.of(5, digits)
            win = _Window(sys)
            for m in (0, 2**53, 2**53 - 1, round(1e-12 * 2**53), 2**52):
                direct = sum(cmath.exp(2j * math.pi * (d * m % 2**53) / 2**53) for d in sys.digits)
                got = complex(win.values(np.array([m]), 2**53)[0])
                assert abs(got - direct) < 1e-6

    @pytest.mark.parametrize("digits", [(0, 1, 2, 3), (0, 1, 2, 4, 5), (1, 2, 4, 5)])
    def test_ratio_limit_below_den_eps(self, digits, monkeypatch):
        N = 6**4
        win = _Window(DigitSystem.of(6, digits))
        m = np.array([0, 1, N - 1, 2, N - 2])
        ratio = win.values(m, N)
        # |e(1/N) - 1| = 0.00485: this eps puts m = 0, 1 and N - 1 in the limit branch, and m = 2 not
        monkeypatch.setattr(F, "_DEN_EPS", 0.006)
        limit = win.values(m, N) != ratio
        assert list(limit) == [False, True, True, False, False]  # at m = 0 the limit is the only value

    @given(st.integers(2, 11), st.data(), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_derivative_matches_direct(self, q, data, num):
        digits = data.draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=q))
        sys = DigitSystem.of(q, digits)
        win = _Window(sys)
        w, wp = win.values(np.array([num]), 301, deriv=True)
        assert complex(w[0]) == complex(win.values(np.array([num]), 301)[0])
        got = complex(wp[0])
        direct = sum(
            2j * math.pi * d * cmath.exp(2j * math.pi * d * num / 301) for d in sys.digits
        )
        assert abs(got - direct) < 1e-8 * max(1.0, abs(direct))


class TestRestrictedExpSum:
    def test_at_zero(self):
        prof = FourierProfile(DigitSystem.excluding(10, {7}), 3)
        assert F.restricted_exp_sum(prof, 0.0) == pytest.approx(9**3 + 0j)

    def test_matches_brute_force(self):
        prof = FourierProfile(DigitSystem.excluding(10, {7}), 3)
        got = F.restricted_exp_sum(prof, 0.123)
        want = brute_sa(prof.sys, 3, 0.123)
        assert abs(got - want) < 1e-9

    def test_hybrid_factorisation(self):
        # S^(k)(theta) = S^(k-l)(theta) * S^(l)(q^(k-l) * theta)
        sys = DigitSystem.excluding(10, {7})
        theta = Fraction(377, 1000)
        lhs = F.restricted_exp_sum(FourierProfile(sys, 4), theta)
        rhs = F.restricted_exp_sum(FourierProfile(sys, 2), theta) * F.restricted_exp_sum(
            FourierProfile(sys, 2), (theta * 10**2) % 1
        )
        assert abs(lhs - rhs) < 1e-9

    @given(profiles_strategy(), st.floats(0, 1, exclude_max=True, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_product_identity_oracle(self, prof, theta):
        got = F.restricted_exp_sum(prof, theta)
        want = brute_sa(prof.sys, prof.k, theta)
        assert abs(got - want) < 1e-9
        assert abs(got) <= prof.set_size + 1e-9

    def test_grid_matches_pointwise(self):
        # the grid is the half j <= N/2; S_A is conjugate-symmetric beyond it
        prof = FourierProfile(DigitSystem.of(6, (0, 2, 3, 5)), 3)
        grid = joined(F.sa_chunks(prof))
        N = prof.sys.q**prof.k
        assert len(grid) == N // 2 + 1
        for j in (0, 1, 17, N // 2):
            want = F.restricted_exp_sum(prof, Fraction(j, N))
            assert abs(grid[j] - want) < 1e-9

    @given(profiles_strategy())
    @settings(max_examples=20, deadline=None)
    def test_parseval(self, prof):
        total = F.power_sum(prof, 2.0)
        expect = prof.sys.q**prof.k * prof.set_size
        assert abs(total - expect) / expect < 1e-6


class TestSinBound:
    def test_examples(self):
        sys = DigitSystem.excluding(10, {7})
        assert sin_bound(sys, 0.5) == pytest.approx(2.0)
        assert sin_bound(sys, 0.0) == 9
        assert sin_bound(sys, 0.1) == pytest.approx(1 + 1 / math.sin(0.1 * math.pi))

    def test_wrong_shape(self):
        with pytest.raises(UsageError):
            sin_bound(DigitSystem.of(10, (1, 2, 3)), 0.3)

    def test_dominates_window_every_missing_digit(self):
        rng = np.random.default_rng(7)
        for b in range(10):
            sys = DigitSystem.excluding(10, {b})
            for phi in rng.random(200):
                assert sin_bound(sys, phi) >= digit_window_sum(sys, phi) - 1e-12
            # the cap of each certified cell sup is the sin bound at the cell's
            # point nearest the integers, rounded up; one subcell leaves it binding
            sups = _Window(sys).cell_sup(10, 1)
            for t in range(10):
                assert sups[t] <= sin_bound(sys, min(t, 9 - t) / 10) * (1 + 1e-11)

    def test_bound_chain_through_cells(self):
        # F_D(phi) <= certified cell sup covering phi <= sin cell bound
        q = 10
        rng = np.random.default_rng(11)
        for b in (0, 7):
            sys = DigitSystem.excluding(q, {b})
            sups = _Window(sys).cell_sup(q, 512)
            for phi in rng.random(2000):
                t = int(phi * q)
                assert digit_window_sum(sys, phi) <= sups[t] + 1e-9


class TestBoundSums:
    def test_sin_sum_101(self):
        rep = F.sin_bound_sum(101)
        assert 602.8 <= rep.value <= 602.9
        assert not rep.passes
        assert rep.details["asymptotic_reference"] == pytest.approx(
            (2 / math.pi) * 101 * math.log(101), rel=1e-12
        )

    def test_sin_sum_threshold_crossing(self):
        assert F.sin_bound_sum(133359).passes
        assert not F.sin_bound_sum(133358).passes
        assert not F.sin_bound_sum(10).passes

    def test_refined_101_band(self):
        rep = F.refined_digit_sum(101)
        assert 490 <= rep.value <= 502

    def test_refined_101_not_looser(self):
        # the value of the Lipschitz-grid kernel (513 points per cell) that
        # the Taylor kernel replaced
        assert F.refined_digit_sum(101).value <= 499.3234868989055

    def test_refined_below_sin_display(self):
        for q in (10, 47, 101):
            assert F.refined_digit_sum(q).value <= F.sin_display_value(q) + 1e-9

    def test_refined_per_digit_not_all_equal(self):
        per = F.refined_digit_sum(10).details["per_digit"]
        assert max(per) - min(per) > 1e-6

    def test_refined_certifies_each_cell(self):
        # every per-cell certified sup dominates sampled window values
        # (b = 13 above q/2 takes the bound of digit 3)
        q, grid = 17, 256
        per_digit = F.refined_digit_sum(q, grid=grid).details["per_digit"]
        rng = np.random.default_rng(3)
        for b in (5, 13):
            sys = DigitSystem.excluding(q, {b})
            total_true = 0.0
            for t in range(q):
                vals = [digit_window_sum(sys, (t + e) / q) for e in rng.random(400)]
                total_true += max(vals)
            assert per_digit[b] >= total_true - 1e-9

    def test_pairwise(self):
        assert F.pairwise_bound_sum(18647).passes
        assert F.pairwise_bound_sum(20000).passes
        assert not F.pairwise_bound_sum(1000).passes

    def test_scan_minimal_q(self):
        assert F.minimal_passing_q("pairwise", 18640, 18650) == 18647

    def test_prereq_errors(self):
        with pytest.raises(UsageError):
            F.sin_bound_sum(2)
        with pytest.raises(UsageError):
            F.pairwise_bound_sum(4)


class TestFold:
    """F(1 - phi) = F(phi) and |W_{q-1-D}| = |W_D|: the folded kernels
    against the unfolded loops of tests/oracles.py."""

    @pytest.mark.parametrize(
        "spec, n, grid",
        [("q=10,exclude=7", 10**4, 10), ("q=10,exclude=7", 10**5, 1), ("q=7,exclude=3", 7**5, 6), ("q=10,D=1.3.7", 10**4, 10)],
    )
    def test_cell_sup_matches_unfolded(self, spec, n, grid):
        win = _Window(DigitSystem.parse(spec))
        folded, unfolded = win.cell_sup(n, grid), cell_sup_unfolded(win, n, grid)
        half = (n + 1) // 2
        assert np.array_equal(folded, folded[::-1])
        assert np.allclose(folded[:half], unfolded[:half], rtol=1e-14, atol=0)
        # the unfolded cells near phi = 1 carry the larger phase rounding
        assert np.allclose(folded[half:], unfolded[half:], rtol=1e-10, atol=0)

    def test_cell_sup_evaluates_half_the_cells(self, monkeypatch):
        evaluated = []
        plain = _Window.values

        def counting(self, m, N, deriv=False):
            evaluated.append(np.size(m))
            return plain(self, m, N, deriv)

        monkeypatch.setattr(_Window, "values", counting)
        _Window(DigitSystem.excluding(7, {3})).cell_sup(7**5, 6)
        assert sum(evaluated) == (7**5 + 1) // 2 * 6

    @pytest.mark.parametrize("q", [10, 11, 17, 101])
    def test_refined_per_digit_matches_unfolded(self, q):
        rep = F.refined_digit_sum(q)
        per = rep.details["per_digit"]
        ref = [float(np.sum(s)) + F.SLACK * q for s in refined_cell_sups_unfolded(q, rep.details["grid"])]
        for b in range(q):
            assert per[b] == per[q - 1 - b]
            # b above (q-1)/2 is the bound of q-1-b, centred at its mirror
            mirror = min(b, q - 1 - b)
            assert per[b] == pytest.approx(ref[mirror], rel=1e-12, abs=0)
            assert per[b] == pytest.approx(ref[b], rel=1e-5, abs=0)


class TestThirdOrder:
    """The refined sum's third-order remainder and its default grid."""

    @pytest.mark.parametrize("spec", ["q=10,D=2-7", "q=12,D=1.2.3.5.6.9.10", "q=10,D=0.4.9"])
    def test_second_derivative_keeps_value_bits(self, spec):
        # a run, a hull with holes and the direct sum: W'' leaves W and W' alone
        win = _Window(DigitSystem.parse(spec))
        m = np.array([0, 1, 3, 4999, 5000, 5001, 9997, 9999])
        w, wp, wpp = win.values(m, 10**4, deriv=2)
        w1, wp1 = win.values(m, 10**4, deriv=1)
        assert same_bits(w, w1) and same_bits(wp, wp1) and same_bits(w, win.values(m, 10**4))

    def test_refined_never_looser_than_second_order(self):
        # every digit at the default grid against the second-order kernel at
        # 128 subcells per cell, each digit at its own median
        for q in [*range(3, 131), 501]:
            per = F.refined_digit_sum(q).details["per_digit"]
            ref = refined_cell_sups_unfolded(q, 128, third_order=False)
            for b in range(q):
                assert per[b] <= float(np.sum(ref[b])) + F.SLACK * q, (q, b)

    @pytest.mark.parametrize("q, grid", [(501, 64), (11, 373), (64, 64), (65, 64), (63, 66)])
    def test_refined_work_count(self, monkeypatch, q, grid):
        # one window pass over ceil(q/2) cells of grid subcells, then as many
        # subcells for each of the ceil(q/2) digits evaluated
        windows, steps = [], []
        plain_values, plain_sup = _Window.values, F._taylor_sup

        def values(self, m, N, deriv=0):
            windows.append(np.size(m))
            return plain_values(self, m, N, deriv)

        def taylor_sup(g, gp, r, rem):
            steps.append(np.size(g))
            return plain_sup(g, gp, r, rem)

        monkeypatch.setattr(_Window, "values", values)
        monkeypatch.setattr(F, "_taylor_sup", taylor_sup)
        half = (q + 1) // 2
        assert F.refined_digit_sum(q).details["grid"] == grid
        assert windows == [half * grid]
        assert sum(steps) == half * half * grid

    def test_explicit_grid_below_the_circle_floor_is_raised(self):
        assert F.refined_digit_sum(11, grid=8).details["grid"] == 373
        assert F.refined_digit_sum(101, grid=8).details["grid"] == 41
        assert F.refined_digit_sum(501, grid=8).details["grid"] == 9


class TestMeans:
    def test_full_set_orthogonality(self):
        # k = 1, full digit set: only j = 0 survives, sum = q
        prof = FourierProfile(DigitSystem.of(10, range(10)), 1)
        assert F.mean_l1(prof) == pytest.approx(10.0, abs=1e-9)

    def test_mean_l1_brute(self):
        sys = DigitSystem.excluding(10, {0})
        prof = FourierProfile(sys, 2)
        want = sum(abs(brute_sa(sys, 2, j / 100)) for j in range(100))
        assert F.mean_l1(prof) == pytest.approx(want, rel=1e-12)

    def test_submultiplicative_across_hybrid(self):
        sys = DigitSystem.excluding(10, {0})
        m2 = F.mean_l1(FourierProfile(sys, 2))
        m4 = F.mean_l1(FourierProfile(sys, 4))
        # sum over k digits <= (q-1)^(k-l) * q^(k-l) * sum over l digits
        assert m4 <= 9**2 * 10**2 * m2 * (1 + 1e-12)

    @pytest.mark.parametrize("b", [1, 4, 7])
    def test_mean_l1_is_first_power_sum(self, b):
        # mean_l1 streams through power_sum, and x**1.0 == x
        prof = FourierProfile(DigitSystem.excluding(10, {b}), 6)
        assert F.mean_l1(prof).hex() == F.power_sum(prof, 1.0).hex()

    def test_mean_l1_threshold_at_passing_q(self):
        q = 133359
        sys = DigitSystem.excluding(q, {1})
        prof = FourierProfile(sys, 1)
        assert F.mean_l1(prof) <= (q - 1) * q**TAU

    def test_finite_difference(self):
        sys = DigitSystem.excluding(10, {7})
        prof = FourierProfile(sys, 2)
        rng = np.random.default_rng(5)
        h = 1e-8
        for theta in rng.random(100):
            s0 = F.restricted_exp_sum(prof, theta)
            s1 = F.restricted_exp_sum(prof, theta + h)
            numeric = abs(s1 - s0) / h
            members = [t * 10 + d for t in sys.digits for d in sys.digits]
            exact = abs(
                sum(2j * math.pi * n * cmath.exp(2j * math.pi * ((n * theta) % 1.0)) for n in members)
            )
            assert numeric == pytest.approx(exact, rel=1e-4, abs=1e-3)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def pointwise_half_grid(prof):
    """The product of the W(q^i j/N), each evaluated at every point j <= N/2
    of the half grid at once."""
    q, k, N = prof.sys.q, prof.k, prof.sys.q**prof.k
    win = _Window(prof.sys)
    j = np.arange(N // 2 + 1)
    want = np.ones(len(j), dtype=np.complex128)
    for i in range(k):
        want *= win.values(j * pow(q, i, N) % N, N)
    return want


def joined(chunks):
    return np.concatenate([vals for _, vals in chunks])


# a hull minus one hole, a run off 0 and a direct-sum set, each with N > 6^4
TABULATED = [
    FourierProfile(DigitSystem.of(6, (0, 2, 3, 5)), 7),
    FourierProfile(DigitSystem.of(6, (1, 2, 3)), 6),
    FourierProfile(DigitSystem.of(6, (1, 4)), 6),
]

# the product form errs by up to 4.9e-8 against 40-digit mpmath at q = 10,
# k = 6 (j = 3..10, its phases near 0 uncentred) and the real FFT by 2e-11,
# so the two agree within twice the product form's error
POINTWISE_ATOL = 1e-7


class TestGridTabulation:
    """The half grid from one real FFT: the product of the level windows
    within that product's error, and the same floats at any chunk size."""

    @pytest.mark.parametrize("prof", TABULATED)
    def test_levels_match_pointwise(self, prof):
        # the closed form serves every set here but the direct sum D = {1, 4}
        assert _Window(prof.sys).closed == (prof.sys.digits != (1, 4))
        np.testing.assert_allclose(joined(F.sa_chunks(prof)), pointwise_half_grid(prof), rtol=0, atol=POINTWISE_ATOL)

    @pytest.mark.parametrize("digits", [(0, 2, 3, 5), (1, 2, 3), (1, 4)])
    def test_chunk_one_tabulates_nothing(self, digits, monkeypatch):
        # one point per chunk yields the floats of the default chunk
        prof = FourierProfile(DigitSystem.of(6, digits), 4)
        want = joined(F.sa_chunks(prof))
        monkeypatch.setattr(F, "_CHUNK", 1)
        assert same_bits(joined(F.sa_chunks(prof)), want)

    @pytest.mark.parametrize("prof", TABULATED)
    def test_split_levels_match_default_chunk(self, prof, monkeypatch):
        want = joined(F.sa_chunks(prof))
        monkeypatch.setattr(F, "_CHUNK", 6**4)
        assert same_bits(joined(F.sa_chunks(prof)), want)

    def test_multi_chunk_grid_is_pointwise_product(self, monkeypatch):
        prof = FourierProfile(DigitSystem.excluding(10, {7}), 6)
        assert prof.sys.q**prof.k // 2 > F._CHUNK
        got = joined(F.sa_chunks(prof))
        np.testing.assert_allclose(got, pointwise_half_grid(prof), rtol=0, atol=POINTWISE_ATOL)
        monkeypatch.setattr(F, "_CHUNK", 1000)
        assert same_bits(joined(F.sa_chunks(prof)), got)

    def test_window_derivative_independent_of_batch_size(self):
        win = _Window(DigitSystem.of(10, (1, 2, 3, 4)))
        m = np.arange(1 << 15)
        w, wp = win.values(m, 10**5, deriv=True)
        for lo in (0, 6, 1000):
            ws, wps = win.values(m[lo : lo + 10], 10**5, deriv=True)
            assert same_bits(ws, w[lo : lo + 10]) and same_bits(wps, wp[lo : lo + 10])

    def test_work_count(self, monkeypatch):
        # one real FFT of the N-point indicator per pass; no window sum is
        # evaluated
        sizes = []
        rfft = np.fft.rfft

        def counting(a, *args, **kwargs):
            sizes.append(np.size(a))
            return rfft(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("a window sum was evaluated")

        monkeypatch.setattr(np.fft, "rfft", counting)
        monkeypatch.setattr(_Window, "values", forbidden)
        chunks = list(F.sa_chunks(FourierProfile(DigitSystem.excluding(10, {7}), 6)))
        assert sizes == [10**6]
        assert [j0 for j0, _ in chunks] == list(range(0, 10**6 // 2 + 1, F._CHUNK))

    def test_one_exp_per_grid_point(self, monkeypatch):
        # the grid pass once read one exponential per grid point from a root
        # table; the real FFT needs none, so unit is never called
        phases = []
        plain = F.unit

        def counting(n, theta):
            phases.append(np.size(n))
            return plain(n, theta)

        monkeypatch.setattr(F, "unit", counting)
        for _ in F.sa_chunks(FourierProfile(DigitSystem.excluding(10, {7}), 6)):
            pass
        assert sum(phases) == 0


def mp_half_grid(prof, j: int) -> complex:
    """S_A(j/N) in 40-digit mpmath: the product over the levels i < k of
    the full window's geometric sum less the missing digits, each phase
    q^i*j/N reduced in integers."""
    q, k, N = prof.sys.q, prof.k, prof.sys.q**prof.k
    missing = prof.sys.missing()
    with mpmath.workdps(40):
        total = mpmath.mpc(1)
        for i in range(k):
            phi = mpmath.mpf(q**i * j % N) / N
            e = lambda n: mpmath.expjpi(2 * n * phi)  # noqa: E731
            w = mpmath.mpf(q) if phi == 0 else (e(q) - 1) / (e(1) - 1)
            total *= w - mpmath.fsum(e(h) for h in missing)
        return complex(total)


class TestGridAccuracy:
    """Each half-grid value within u*log2(N)*sqrt(N*|A|) of 40-digit mpmath:
    the 2-norm bound on the real FFT's error (Higham 2002, Thm 24.2) without
    its constant, since the indicator's DFT has 2-norm sqrt(N*|A|)."""

    @pytest.mark.parametrize(
        "prof",
        [
            FourierProfile(DigitSystem.excluding(10, {7}), 6),
            FourierProfile(DigitSystem.of(6, (0, 2, 3, 5)), 4),
            FourierProfile(DigitSystem.of(3, (0, 2)), 12),
            FourierProfile(DigitSystem.excluding(10007, {5}), 1),  # N prime: Bluestein
        ],
        ids=lambda p: f"q={p.sys.q},k={p.k}",
    )
    def test_within_fft_bound_of_mpmath(self, prof):
        q, k, N = prof.sys.q, prof.k, prof.sys.q**prof.k
        grid = joined(F.sa_chunks(prof))
        assert len(grid) == N // 2 + 1
        js = {*range(11), N // 2}
        js |= {m * (N // q**i) for i in range(1, k + 1) for m in (1, 3)}  # multiples of N/q^i
        js |= set(np.random.default_rng(N).integers(0, N // 2 + 1, 12).tolist())
        bound = 2.0**-53 * math.log2(N) * math.sqrt(N * prof.set_size)
        for j in sorted(x for x in js if x <= N // 2):
            assert abs(grid[j] - mp_half_grid(prof, j)) <= bound, j


class TestGeneralizedMargin:
    def test_degenerate_full_set(self):
        rep = F.generalized_margin(DigitSystem.of(10, range(10)))
        assert rep.threshold == 0 and not rep.passes and rep.details["degenerate"]

    def test_two_removed_reference_shape(self):
        q = 100
        rep = F.generalized_margin(DigitSystem.excluding(q, {3, 47}))
        ref = rep.details["removed_reference"]
        assert ref == pytest.approx((q - 1) * 2 + q * math.log(q))
        # certified value has the analytic shape: between the removed-digit
        # main term and the reference with a comfortable constant
        assert (q - 1) * 2 * 0.5 < rep.value < 3 * ref

    def test_consecutive_run_reference(self):
        q, r = 100, 50
        rep = F.generalized_margin(DigitSystem.of(q, range(r)))
        assert rep.details["consecutive_reference"] == pytest.approx(
            (q / r) * (q - r) * math.log(r)
        )

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_refused(self, grid):
        with pytest.raises(UsageError):
            F.generalized_margin(DigitSystem.excluding(10, {7}), grid=grid)
        with pytest.raises(UsageError):
            F.refined_digit_sum(10, grid=grid)

    def test_margin_value_certifies(self):
        q = 30
        sys = DigitSystem.excluding(q, {11})
        rep = F.generalized_margin(sys, grid=128)
        rng = np.random.default_rng(13)
        total = 0.0
        for t in range(q):
            total += max(digit_window_sum(sys, (t + e) / q) for e in rng.random(300))
        assert rep.value >= total - 1e-9


class TestMomentTail:
    @pytest.mark.parametrize("sigma, T", [(math.nan, 10.0), (1.5, math.nan), (math.inf, 10.0), (1.5, math.inf)])
    def test_refuses_non_finite_parameters(self, sigma, T):
        with pytest.raises(UsageError):
            F.moment_tail(FourierProfile(DigitSystem.excluding(10, {7}), 2), sigma, T)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_power_sum_refuses_non_finite_sigma(self, sigma):
        with pytest.raises(UsageError):
            F.power_sum(FourierProfile(DigitSystem.excluding(10, {7}), 2), sigma)

    @pytest.mark.parametrize(
        "sys_, k",
        [(DigitSystem.excluding(10, {7}), 10**5), (DigitSystem.excluding(10, {7}), 8), (DigitSystem.of(2 * 10**7, (1,)), 1)],
    )
    def test_refused_above_cap_before_q_k_is_formed(self, sys_, k):
        prof = FourierProfile(sys_, k)
        # a q^k of 10^5 digits cannot even be printed (the int-to-str limit)
        with pytest.raises(CapExceeded, match="above cap"):
            F.power_sum(prof, 1.0)
        with pytest.raises(CapExceeded, match="above cap"):
            F.moment_tail(prof, 1.0, 2.0)

    def test_maximum_only_at_zero(self):
        prof = FourierProfile(DigitSystem.excluding(10, {7}), 3)
        count, bound = F.moment_tail(prof, 1.0, 1.0)
        assert count == 1
        assert bound >= 1

    def test_parseval_bound_exact(self):
        prof = FourierProfile(DigitSystem.excluding(10, {0}), 3)
        T = 5.0
        count, bound = F.moment_tail(prof, 2.0, T)
        A = prof.set_size
        expect = (T / A) ** 2 * prof.sys.q**prof.k * A
        assert bound == pytest.approx(expect, rel=1e-6)
        assert count <= bound

    def test_count_against_brute(self):
        sys = DigitSystem.excluding(10, {0})
        prof = FourierProfile(sys, 3)
        T = 10.0
        count, bound = F.moment_tail(prof, 1.0, T)
        cut = prof.set_size / T
        brute = sum(1 for j in range(1000) if abs(brute_sa(sys, 3, j / 1000)) >= cut)
        assert count == brute
        assert count <= bound

    @pytest.mark.parametrize("sys_, k", [
        # an even N and two odd ones: the fold's self-mirrored points differ
        (DigitSystem.excluding(10, {7}), 4), (DigitSystem.of(7, (0, 3, 6)), 5), (DigitSystem.of(3, (0, 2)), 9),
    ])
    def test_folded_moments_match_unfolded(self, sys_, k):
        prof = FourierProfile(sys_, k)
        mags = np.abs(circle_grid_unfolded(sys_, k)[1])
        for sigma in (1.0, 1.5, 2.0):
            assert F.power_sum(prof, sigma) == pytest.approx(math.fsum(mags**sigma), rel=1e-12, abs=0)
        A = prof.set_size
        for sigma, T in ((1.5, 10.0), (2.0, 3.0)):
            count, bound = F.moment_tail(prof, sigma, T)
            assert count == np.count_nonzero(mags >= A / T)
            assert bound == pytest.approx((T / A) ** sigma * math.fsum(mags**sigma), rel=1e-12, abs=0)


class TestConstants:
    def test_catalan(self):
        assert F.catalan_constant() == pytest.approx(0.9159655941772190, abs=1e-10)

    def test_growth_constant(self):
        assert abs(F.typical_growth_constant() - 3.209912300) < 1e-6

    def test_profile_validation(self):
        with pytest.raises(UsageError):
            FourierProfile(DigitSystem.of(10, (1, 2)), 0)
