import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from restricta import fourier as F
from restricta.digit_systems import DigitSystem
from restricta.errors import OutOfRange
from restricta.numutil import ROOT_BITS, SUM_CHUNK, UNIT_BLOCK, fixed_phase, fixed_phases, fsum_chunks, unit, unit_fixed

from tests.oracles import frac_exact, frac_mul


@pytest.mark.parametrize("theta", [0.5, 0.41421356237309515, 0.6180339887498949, 1e-9])
def test_frac_mul_exact_up_to_2_53(theta):
    n = np.array([2**53, -(2**53), 2**53 - 1, 2**40 + 3], dtype=np.int64)
    for v, got in zip(n.tolist(), frac_mul(n, theta).tolist()):
        diff = abs(got - frac_exact(v, theta))
        assert min(diff, 1.0 - diff) < 1e-12, v


def test_frac_mul_refuses_integers_past_2_53():
    # 2^53 + 1 is the first integer float64 rounds; its true phase at 1/2 is 1/2
    assert frac_exact(2**53 + 1, 0.5) == 0.5
    for n in (2**53 + 1, -(2**53) - 1, 2**62):
        with pytest.raises(OutOfRange):
            frac_mul(np.array([1, n], dtype=np.int64), 0.5)
    assert frac_mul(np.array([2.0**54]), 0.25)[0] == 0.0  # float input is taken as it is


# Below 2^-11 the low word t_lo is nonzero; then negative, above 1, dyadic
# k/4096 (on the root table's own points) and 1/2.
THETAS = (
    1e-9,
    3.0e-4,
    2.0**-11 - 2.0**-70,
    -0.41421356237309515,
    -1e-9,
    1.6180339887498949,
    12345.678,
    5 / 4096,
    1 / 4,
    0.5,
    0.41421356237309515,
    0.6180339887498949,
)
EDGE_N = [1, 2, 3, 2**40 + 3, 2**40, 2**53 - 1, 2**53, int(sympy.prevprime(2**40))]


def _sample_n() -> list[int]:
    rng = np.random.default_rng(40)
    ps = [int(sympy.prevprime(int(v))) for v in rng.integers(3, 2**40, 24)]
    return EDGE_N + ps


def _exact_units(n: int, theta: float) -> Fraction:
    """(n*theta mod 1) * 2^64, exactly."""
    p, q2 = float(theta).as_integer_ratio()
    return Fraction((n * p) % q2, q2) * 2**64


@pytest.mark.parametrize("theta", THETAS)
def test_fixed_phase_reduces_theta_exactly(theta):
    t_hi, t_lo = fixed_phase(theta)
    T = (int(t_hi) << 64) | int(t_lo)
    f = Fraction(theta) % 1
    assert 0 <= f * 2**128 - T < 1
    assert (int(t_lo) != 0) == (f.denominator > 2**64)


@pytest.mark.parametrize("theta", THETAS)
def test_fixed_phases_below_exact_by_under_two_units(theta):
    n = _sample_n()
    got = fixed_phases(np.array(n, dtype=np.uint64), fixed_phase(theta))
    for v, ph in zip(n, got.tolist()):
        diff = (_exact_units(v, theta) - ph) % 2**64
        assert 0 <= diff < 2, (v, float(diff))


@pytest.mark.parametrize("theta", THETAS)
def test_unit_within_an_ulp_of_mpmath(theta):
    n = _sample_n()
    c, s = unit_fixed(fixed_phases(np.array(n, dtype=np.uint64), fixed_phase(theta)))
    with mpmath.workprec(120):
        for v, cv, sv in zip(n, c.tolist(), s.tolist()):
            f = _exact_units(v, theta) / 2**64
            ang = 2 * mpmath.pi * mpmath.mpf(f.numerator) / f.denominator
            assert abs(cv - mpmath.cos(ang)) < 2.5e-16, (v, theta)
            assert abs(sv - mpmath.sin(ang)) < 2.5e-16, (v, theta)


def test_root_table_points_are_exact_at_quarter_turns():
    k = np.arange(1 << ROOT_BITS, dtype=np.uint64) << np.uint64(64 - ROOT_BITS)
    c, s = unit_fixed(k)
    quarter = 1 << (ROOT_BITS - 2)
    assert c[::quarter].tolist() == [1.0, 0.0, -1.0, 0.0]
    assert s[::quarter].tolist() == [0.0, 1.0, 0.0, -1.0]
    # the octant symmetry: cos and sin swap about 1/8
    assert np.array_equal(c[1:quarter], s[quarter - 1 : 0 : -1])
    with mpmath.workprec(120):
        turns = [mpmath.mpf(2 * j) / len(c) for j in range(len(c))]
        assert max(abs(v - mpmath.cospi(a)) for v, a in zip(c.tolist(), turns)) < 1.2e-16
        assert max(abs(v - mpmath.sinpi(a)) for v, a in zip(s.tolist(), turns)) < 1.2e-16


def _mp_unit_error(rho, N: int, got: np.ndarray) -> float:
    """The largest error of either part of got against e(rho/N) in 40-digit
    mpmath."""
    worst = 0.0
    with mpmath.workdps(40):
        for r, z in zip(np.asarray(rho).tolist(), got.tolist()):
            turns = mpmath.mpf(2 * r) / N
            worst = max(worst, abs(z.real - mpmath.cospi(turns)), abs(z.imag - mpmath.sinpi(turns)))
    return float(worst)


class TestUnitMod:
    """unit on residues mod N: e(rho/N) at theta = 1/N through the fixed-point
    kernel, and its blocks at any theta."""

    @pytest.mark.parametrize("N", [7, 8206, 10**6 + 3, 2**53, 2**62 + 1])
    def test_dense_near_zero_half_and_one(self, N):
        w = min(N // 2, 1500)
        rho = sorted({*range(w), *range(N // 2 - w, N // 2 + w + 1), *range(N - w, N)})
        assert _mp_unit_error(rho, N, unit(np.array(rho, dtype=np.int64), Fraction(1, N))) < 2e-16

    def test_residues_of_q11_builds(self, monkeypatch):
        # every residue the refined sum and a Markov-size cell build of base 11 evaluate
        seen, plain = [], F.unit

        def record(rho, theta):
            seen.append((np.array(rho), theta))
            return plain(rho, theta)

        monkeypatch.setattr(F, "unit", record)
        F.refined_digit_sum(11)
        F._Window(DigitSystem.excluding(11, {7})).cell_sup(11**2, 8)
        assert {theta for _, theta in seen} == {Fraction(1, 2 * 11 * 373), Fraction(1, 2 * 11**2 * 8)}
        for rho, theta in seen:
            assert _mp_unit_error(rho, theta.denominator, plain(rho, theta)) < 2e-16

    def test_draw_at_2_53(self):
        # the closed-form window test's phases m/2^53, and its recorded draw
        N, m = 2**53, int(0.9999989999999999 * 2**53)
        rho = np.array([d * m % N for d in range(12)], dtype=np.int64)
        assert _mp_unit_error(rho, N, unit(rho, Fraction(1, N))) < 2e-16

    @pytest.mark.parametrize("n", [0, 1, UNIT_BLOCK - 1, UNIT_BLOCK, UNIT_BLOCK + 1, 3 * UNIT_BLOCK + 5])
    def test_blocks_equal_one_pass(self, n):
        # int64 residues at a Fraction, and the uint64 multipliers of S_P at a float
        rho = np.random.default_rng(n).integers(0, 10**9 + 7, n)
        for arr, theta in ((rho, Fraction(1, 10**9 + 7)), (rho.astype(np.uint64), 0.41421356237309515)):
            c, s = unit_fixed(fixed_phases(arr.view(np.uint64), fixed_phase(theta)))
            got = unit(arr, theta)
            assert got.shape == (n,)
            assert np.array_equal(got.real, c) and np.array_equal(got.imag, s)

    def test_memory_is_one_block(self):
        # the output, the residues, and block-sized work only: the 7-row
        # workspace and mul_hi's limb products; unblocked, the workspace
        # alone would be 7 rows of 10^6
        n, N = 10**6, 10**9 + 7
        unit(np.arange(4), Fraction(1, N))
        tracemalloc.start()
        try:
            rho = np.arange(n, dtype=np.int64) * 7919 % N
            unit(rho, Fraction(1, N))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n + 8 * n + 2 * 7 * 8 * UNIT_BLOCK


@pytest.mark.parametrize("n", [SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1])
def test_fsum_chunks_complex_is_the_part_by_part_recipe(n):
    # numpy's sum per SUM_CHUNK chunk, then an exact fsum of each part
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) + 1j * rng.standard_normal(n)
    res = [v[i : i + SUM_CHUNK].sum() for i in range(0, n, SUM_CHUNK)]
    want = complex(math.fsum(r.real for r in res), math.fsum(r.imag for r in res))
    got = fsum_chunks(v)
    assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag)


class TestRestrictedExpSum:
    """The digit product through unit."""

    @staticmethod
    def _mp_product(sys, k: int, theta: Fraction) -> complex:
        num, den = theta.numerator, theta.denominator
        with mpmath.workdps(40):
            total = mpmath.mpc(1)
            for i in range(k):
                total *= mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * (d * sys.q**i * num % den)) / den) for d in sys.digits)
            return complex(total)

    @pytest.mark.parametrize("spec, k", [("q=10,exclude=7", 4), ("q=3,D=0.2", 9), ("q=11,D=1.4.9", 5)])
    def test_denominator_past_2_64(self, spec, k):
        sys = DigitSystem.parse(spec)
        theta = Fraction(3**50 + 1, 2**70 + 37)
        assert theta.denominator > 2**64
        got = F.restricted_exp_sum(F.FourierProfile(sys, k), theta)
        assert abs(got - self._mp_product(sys, k, theta)) < 1e-14 * sys.size**k

    @pytest.mark.parametrize("theta", [0.123, 1 / 3, -0.41421356237309515, 12345.678, 2.0**-60])
    def test_float_is_its_exact_fraction(self, theta):
        prof = F.FourierProfile(DigitSystem.excluding(10, {7}), 6)
        assert F.restricted_exp_sum(prof, theta) == F.restricted_exp_sum(prof, Fraction(theta))
        assert abs(F.restricted_exp_sum(prof, theta) - self._mp_product(prof.sys, 6, Fraction(theta))) < 1e-14 * 9**6
