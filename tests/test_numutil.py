from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from restricta.errors import OutOfRange
from restricta.numutil import ROOT_BITS, fixed_phase, fixed_phases, frac_exact, unit_fixed

from tests.oracles import frac_mul


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
