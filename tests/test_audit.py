"""Independent audit of the certified cell suprema with interval arithmetic.

On seeded sample cells, the float supremum S the program claims is checked
against an enclosure of sup |F_D| over the cell computed with ``mpmath.iv``
and written from the definition alone: P = |F_D|^2 = |D| + 2 sum_k n_k cos(2 pi k phi),
where n_k counts the pairs of digits k apart.  On a piece [x - h, x + h],
Taylor's theorem gives P(x + s) <= P(x) + A|s| + u s^2/2 with A >= |P'(x)|
and u >= sup P'' over the piece, each enclosed in interval arithmetic, and
the enclosure is the maximum of that over |s| <= h.  A piece whose
enclosure is not below S^2 is bisected, and the test asserts that the
pieces close: the enclosure's upper end on the whole cell is at most S.
The trivial bound |F_D| <= |D| closes the cells next to the integers,
where the supremum is |D| itself.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv, mp

from restricta import fourier as F
from restricta import markov as M
from restricta.digit_systems import DigitSystem
from restricta.fourier import _Window

MAX_PIECES = 2000


def pair_counts(digits) -> list[tuple[int, int]]:
    """(k, n_k) with n_k = #{(d, e) in D^2 : d - e = k}, for k >= 1."""
    ds = sorted(digits)
    counts: dict[int, int] = {}
    for i, d in enumerate(ds):
        for e in ds[:i]:
            counts[d - e] = counts.get(d - e, 0) + 1
    return sorted(counts.items())


def _iv(x: Fraction):
    return iv.mpf(x.numerator) / x.denominator


def square_sup_upper(pairs, size: int, lo: Fraction, hi: Fraction):
    """Upper end of an interval enclosure of max |F_D|^2 over [lo, hi]."""
    x, h = _iv((lo + hi) / 2), _iv((hi - lo) / 2)
    piece = iv.mpf([_iv(lo).a, _iv(hi).b])
    p, dp, d2p = iv.mpf(size), iv.mpf(0), iv.mpf(0)
    for k, n in pairs:
        w = 2 * iv.pi * k
        p += 2 * n * iv.cos(w * x)
        dp -= 2 * n * w * iv.sin(w * x)
        d2p -= 2 * n * w * w * iv.cos(w * piece)
    A, u = iv.mpf(abs(dp).b), iv.mpf(d2p.b)
    # max over 0 <= t <= h of A t + u t^2 / 2
    if u.b >= 0:
        gain = (A * h + u * h * h / 2).b
    else:
        gain = min((A * A / (-2 * u)).b, (A * h).b)
    return (p + gain).b


def proves_below(digits, lo: Fraction, hi: Fraction, S) -> bool:
    """True when interval arithmetic proves |F_D| <= S on [lo, hi]; S is a
    float or an interval whose lower end counts."""
    s2 = (iv.mpf(S) ** 2).a
    size = len(digits)
    if size * size <= s2:
        return True
    pairs = pair_counts(digits)
    stack = [(lo, hi)]
    for _ in range(MAX_PIECES):
        if not stack:
            return True
        a, b = stack.pop()
        if square_sup_upper(pairs, size, a, b) > s2:
            mid = (a + b) / 2
            stack += [(a, mid), (mid, b)]
    return False


def sample_cells(n: int, count: int, seed: int) -> list[int]:
    """Seeded random cells plus the cells next to 0 and 1."""
    return sorted(set(random.Random(seed).sample(range(n), count)) | {0, 1, n - 2, n - 1})


@pytest.mark.parametrize("ell", [2, 4])
@pytest.mark.parametrize("b", [0, 4, 7, 9])
def test_build_matrix_entries(ell, b):
    sys_ = DigitSystem.excluding(10, {b})
    m = M.build_matrix(sys_, ell, 1.0)
    n = 10 ** (ell + 1)
    for j in sample_cells(n, 6, seed=1000 * ell + b):
        S = iv.mpf(m.entries[j]) * sys_.size  # the entry claims |F_D| <= entry * |D|
        assert proves_below(sys_.digits, Fraction(j, n), Fraction(j + 1, n), S), (ell, b, j, S)


def test_refined_digit_sum_cells():
    q = 101
    rep = F.refined_digit_sum(q)
    per_digit = rep.details["per_digit"]
    # the array of b = 0 bounds digit 0; the array of b = 23 bounds its mirror digit 77
    proved = {0: 0, 23: 77}
    for b, sups in F._refined_cell_sups(q, rep.details["grid"]):
        assert per_digit[b] == per_digit[q - 1 - b] == float(sups.sum()) + F.SLACK * q
        if b not in proved:
            continue
        missing = proved[b]
        digits = [d for d in range(q) if d != missing]
        # 75 > q/2: a cell bounded from its mirror, cell 25
        for t in sample_cells(q, 1, seed=missing) + [75]:
            assert proves_below(digits, Fraction(t, q), Fraction(t + 1, q), sups[t]), (missing, t, sups[t])


@pytest.mark.parametrize("spec", ["q=10,D=2-7", "q=12,D=1.2.3.5.6.9.10", "q=10,D=0.4.9"])
def test_second_derivative_against_mpmath(spec):
    # a run off 0, a hull with holes and the direct sum, at phases m/N near
    # 0, 1/2 and 1 (N = 2 q grid at the refined sum's default grid), held
    # against W'' = sum_d (2 pi i d)^2 e(d m/N) at 40 digits
    sys_ = DigitSystem.parse(spec)
    win = _Window(sys_)
    assert (win.closed, bool(win.holes)) == {"q=10,D=2-7": (True, False), "q=12,D=1.2.3.5.6.9.10": (True, True)}.get(
        spec, (False, True)
    )
    N = 2 * sys_.q * max(F.REFINED_GRID, -(-F.REFINED_SUBCELLS // sys_.q))
    ms = [0, 1, 2, 3, N // 2 - 1, N // 2, N // 2 + 1, N - 3, N - 2, N - 1]
    wpp = win.values(np.array(ms), N, deriv=2)[2]
    scale = (2 * math.pi) ** 2 * sum(d * d for d in sys_.digits)  # the largest |W''|
    with mp.workdps(40):
        for m, got in zip(ms, wpp):
            want = sum((2j * mp.pi * d) ** 2 * mp.expjpi(2 * mp.mpf(d * m) / N) for d in sys_.digits)
            # the hull ratio loses a factor 1/|e(phi) - 1| per derivative next
            # to the integers (1e-7 of the scale at m = N - 1); exact at m = 0
            tol = 1e-6 if 0 < min(m, N - m) <= 3 else 1e-12
            assert abs(mp.mpc(complex(got)) - want) < tol * scale, (m, complex(got), want)


@pytest.mark.parametrize(
    "spec, grid",
    [
        ("q=30,exclude=11", 128),
        ("q=10,D=1.3.7", 256),
        ("q=40,D=0-19", 64),
        ("q=100,exclude=3.47", 256),
        ("q=10,exclude=0.4.9", 128),
        ("q=10,D=0.2.4.6.8", 128),
    ],
)
def test_generalized_margin_cells(spec, grid):
    sys_ = DigitSystem.parse(spec)
    q = sys_.q
    sups = _Window(sys_).cell_sup(q, grid)
    assert F.generalized_margin(sys_, grid=grid).value == float(sups.sum()) + F.SLACK * q
    for t in sample_cells(q, 2, seed=q + grid):
        assert proves_below(sys_.digits, Fraction(t, q), Fraction(t + 1, q), sups[t]), (t, sups[t])
