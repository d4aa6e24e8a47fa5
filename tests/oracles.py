"""Scalar oracles that the tests hold the fast paths against.

Each one computes the same quantity as a vectorised routine of restricta
by the plain definition, one point or one term at a time, and uses no
private helper of the package, so a fault in a fast path cannot hide in
its oracle too:

* ``classify_point`` classifies one point j/N as ``arcs.classify_all``
  does for the whole grid;
* ``digit_window_sum`` sums e(d phi) over the digits, the quantity that
  ``fourier._Window`` evaluates in closed form and bounds cell by cell;
* ``prime_spectrum_direct`` sums e(p j/N) over the primes for every j,
  the spectrum that ``primes.prime_spectrum`` takes from one FFT;
* ``primary_term_direct`` sums the primary arcs l/q of the circle-method
  identity with S_P(l/q) summed over the primes and S_A(-l/q) from the
  digit product, where ``arcs.main_term_assembly`` reads both off the
  grid of its identity sum;
* ``sin_bound`` is the pointwise bound on F_D for one missing digit that
  ``fourier._Window.capped_sups`` applies to each cell;
* ``compression_step`` builds all four restrictions of a bipartite gcd
  graph at one prime, of which ``gcdgraph.compress_greedy`` scores all
  from counts and builds only the one it takes;
* ``frac_mul`` reduces n*theta mod 1 for a float array by an error-free
  two-product, the float phase path that ``numutil.unit`` replaced in the
  S_P(theta) of ``primes.prime_sums``;
* ``unit`` takes e(t) by libm's complex exp of a float phase, and
  ``frac_exact`` reduces n*theta mod 1 through the binary rational of a
  float: the route that ``numutil.unit``, the package's one entry into
  e(x) from exact 64-bit phases, replaced throughout the package, kept as
  an independent reference (test_acceptance.py sums its values with
  ``numutil.fsum_chunks``, the package's one chunked sum);
* ``enumerate_list`` lists A(x) one Python int at a time, where
  ``digit_systems.enumerate_restricted`` builds int64 outer products;
* ``euler_phi`` takes phi(n) from the primes of n found by trial division,
  where ``primes.phi_sieve`` strikes primes out of a window of n at once;
* ``jacobi``, ``selfridge`` and ``strong_lucas_probable_prime`` take the
  Jacobi symbol, Selfridge's D and the strong Lucas test on one Python int,
  the last from U_k and V_k by the binary method with halving mod n, where
  ``primes._jacobi``, ``primes._selfridge`` and
  ``primes._strong_lucas_probable_prime`` run uint64 arrays, the last
  through a Montgomery ladder of V alone;
* ``prime_exp_sum_exact`` sums e(p*theta) at 140 bits with mpmath from
  exact dyadic phases, where ``primes.prime_sums`` multiplies two float
  root tables at the sieve's slot indices.

Two oracles check a fold, not a kernel: ``cell_sup_unfolded`` and
``refined_cell_sups_unfolded`` evaluate every cell and every digit, where
``_Window.cell_sup`` and ``fourier._refined_cell_sups`` evaluate one of
each mirror pair.  They take the kernel's per-subcell step from the
package on purpose (the step itself is audited against mpmath intervals
in test_audit.py), so only the folding can differ.  A third,
``circle_grid_unfolded``, gives S_P and S_A at every j < N, where the
circle sums of ``arcs`` and ``fourier`` read only j <= N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp
from sympy import primefactors, primerange

from restricta.arcs import DEFAULT_A, MINOR, NONSMOOTH_MAJOR, PRIMARY_MAJOR, SMOOTH_MAJOR
from restricta.digit_systems import DigitSystem
from restricta.errors import OutOfRange, UsageError
from restricta.fourier import FourierProfile, _taylor_sup, _Window, restricted_exp_sum
from restricta.gcdgraph import BipartiteGcdGraph
from restricta.primes import is_prime_int


@dataclass(frozen=True)
class FareyPoint:
    """Reduced fraction r/s with the width of its covering interval."""

    r: int
    s: int
    width: float = 0.0

    def __post_init__(self):
        if self.s <= 0 or math.gcd(self.r, self.s) != 1:
            raise UsageError(f"{self.r}/{self.s} is not a reduced fraction")

    @property
    def value(self) -> Fraction:
        return Fraction(self.r, self.s)


@dataclass(frozen=True)
class ArcClass:
    """Classification of one point j/N with its rational witness and the
    dyadic-in-q scales: B = q^ell distance scale, S = q^i denominator scale."""

    kind: str
    witness: FareyPoint
    B: float
    S: float


def _smoothness(s: int, q: int) -> str:
    """primary if s | q, smooth if every prime of s divides q, else nonsmooth."""
    if q % s == 0:
        return PRIMARY_MAJOR
    if all(q % p == 0 for p in primefactors(s)):
        return SMOOTH_MAJOR
    return NONSMOOTH_MAJOR


def _scales(q: int, s: int, dist: float) -> tuple[float, float]:
    """B = q^ell covering the distance |j - (r/s)N|, S = q^i with s ~ S."""
    i = 0 if s <= 1 else int(math.floor(math.log(s) / math.log(q) + 1e-12))
    ell = 0 if dist <= 1.0 else int(math.ceil(math.log(dist) / math.log(q) - 1e-12))
    return float(q) ** ell, float(q) ** i


def _dirichlet_witness(j: int, N: int, M: int) -> tuple[int, int]:
    """Best reduced r/s with s <= M and |j/N - r/s| <= 1/(sM), via the
    continued fraction of j/N (exact integer arithmetic)."""
    a, b = j, N
    p0, q0, p1, q1 = 0, 1, 1, 0  # convergents p/q of j/N
    while b and q1 <= M:
        t = a // b
        a, b = b, a - t * b
        p0, p1 = p1, p0 + t * p1
        q0, q1 = q1, q0 + t * q1
    if q1 <= M:
        return p1, q1
    return p0, q0


def classify_point(j: int, sys, k: int, A: float = DEFAULT_A) -> ArcClass:
    """Classify j/N by its smallest-denominator qualifying window.

    A window qualifies when |j - (r/s)N| <= (log N)^A with s <= (log N)^A;
    the smallest such s wins (it is automatically reduced).  With no
    qualifying window the point is minor, with the Dirichlet witness at
    M = floor(sqrt(N)).
    """
    N = sys.q**k
    if not 0 <= j < N:
        raise UsageError("need 0 <= j < N")
    C = math.log(N) ** A
    M = min(int(C), N)
    # |j*s - r*N| <= C*s for the integer r nearest j*s/N
    for s in range(1, M + 1):
        js = j * s
        r = (js + N // 2) // N
        dist = abs(js - r * N)
        if dist <= C * s:
            g = math.gcd(r, s)
            r, s = r // g, s // g
            d = abs(j - r * N / s)
            B, S = _scales(sys.q, s, d)
            return ArcClass(_smoothness(s, sys.q), FareyPoint(r, s), B, S)
    M2 = math.isqrt(N)
    r, s = _dirichlet_witness(j, N, M2)
    d = abs(j - r * N / s)
    B, S = _scales(sys.q, s, d)
    return ArcClass(MINOR, FareyPoint(r, s), B, S)


def digit_window_sum(sys, phi: float) -> float:
    """F_D(phi) = |sum_{d in D} e(d*phi)| by direct summation, each phase
    d*phi reduced mod 1 exactly through the binary rational of phi."""
    num, den = float(phi).as_integer_ratio()
    acc = 0j
    for d in sys.digits:
        t = 2.0 * math.pi * ((d * num) % den) / den
        acc += complex(math.cos(t), math.sin(t))
    return abs(acc)


def sin_bound(sys, phi: float) -> float:
    """min{q-1, 1 + 1/sin(pi*||phi||)} for a one-missing-digit set."""
    if sys.size != sys.q - 1:
        raise UsageError("sin bound applies to exactly one missing digit")
    f = float(phi) % 1.0
    dist = min(f, 1.0 - f)
    if dist <= 0.0:
        return float(sys.q - 1)
    return min(float(sys.q - 1), 1.0 + 1.0 / math.sin(math.pi * dist))


def prime_spectrum_direct(primes, N: int) -> np.ndarray:
    """S_P(j/N) = sum_{p <= N} e(p*j/N) for all j in [0, N), one prime at a
    time, with the phase p*j mod N reduced in integers."""
    out = np.zeros(N, dtype=np.complex128)
    j = np.arange(N, dtype=np.int64)
    for p in primes:
        out += np.exp(2j * math.pi * ((p * j % N) / N))
    return out


def primary_term_direct(sys, k: int) -> float:
    """(1/N) sum_{l<q} Re S_P(l/q) S_A(-l/q) with N = q^k, S_P(l/q) summed
    over the primes p <= N and S_A(-l/q) taken from the digit product."""
    N = sys.q**k
    ps = np.fromiter(primerange(2, N + 1), dtype=np.int64)
    prof = FourierProfile(sys, k)
    total = 0.0
    for ell in range(sys.q):
        sp = complex(np.sum(unit(ps * ell % sys.q / sys.q)))
        total += (sp * restricted_exp_sum(prof, Fraction(-ell, sys.q))).real
    return total / N


def circle_grid_unfolded(sys, k: int) -> tuple[np.ndarray, np.ndarray]:
    """S_P(j/N) and S_A(j/N) at every j in [0, N), N = q^k, none taken from
    its mirror N - j: S_P as the conjugate complex FFT of the indicator of
    the primes p <= N (p = N wrapped onto 0), S_A as the product over the
    levels i < k of sum_d e(d q^i j/N), each phase reduced in integers."""
    N = sys.q**k
    ind = np.zeros(N + 1)
    ind[list(primerange(2, N + 1))] = 1.0
    ind[0] = ind[N]
    j = np.arange(N, dtype=np.int64)
    sa = np.ones(N, dtype=np.complex128)
    for i in range(k):
        sa *= sum(unit(d * sys.q**i * j % N / N) for d in sys.digits)
    return np.conj(np.fft.fft(ind[:N])), sa


def cell_sup_unfolded(win, n: int, grid: int) -> np.ndarray:
    """``win.cell_sup(n, grid)`` with every cell t < n evaluated at its own
    subcell midpoints, none taken from its mirror."""
    N = 2 * n * grid
    r = 1.0 / N
    t = np.arange(n, dtype=np.int64)
    m = 2 * np.arange(n * grid, dtype=np.int64) + 1
    w, wp = win.values(m, N, deriv=True)
    sups = _taylor_sup(w, wp - 2j * math.pi * win.center * w, r, 0.5 * win.m2 * r * r)
    return win.capped_sups(sups, t, n)


def refined_cell_sups_unfolded(q: int, grid: int, third_order: bool = True) -> list[np.ndarray]:
    """The cell bounds of ``fourier._refined_cell_sups`` for every digit
    b < q over every cell t < q, each digit recentred at its own median c.
    The remainder is min(M2 r^2/2, |G''| r^2/2 + M3 r^3/6), with G'' summed
    over the digits at each midpoint, or with ``third_order`` off the
    scalar M2 r^2/2 of the second-order kernel."""
    N = 2 * q * grid
    r = 1.0 / N
    t = np.arange(q, dtype=np.int64)
    m = 2 * np.arange(q * grid, dtype=np.int64) + 1
    g, gp, gpp = _Window(DigitSystem.of(q, range(q))).values(m, N, deriv=2)
    z1 = unit(m / N)
    tp = 2j * math.pi
    out = []
    eb = np.ones_like(g)
    for b in range(q):
        win = _Window(DigitSystem.excluding(q, {b}))
        c = win.center
        rem = 0.5 * win.m2 * r * r
        if third_order:
            m3 = (2 * math.pi) ** 3 * sum(abs(d - c) ** 3 for d in win.sys.digits)
            g2 = gpp - 2 * tp * c * gp + tp * tp * c * c * g - tp * tp * (b - c) ** 2 * eb
            rem = np.minimum(rem, 0.5 * r * r * np.abs(g2) + m3 * r**3 / 6)
        sups = _taylor_sup(g - eb, gp - tp * c * g - tp * (b - c) * eb, r, rem)
        out.append(win.capped_sups(sups, t, q))
        eb = eb * z1
    return out


@dataclass(frozen=True)
class CompressionCandidate:
    keep_v: bool  # True: restrict to p | v; False: restrict to p does not divide v
    keep_w: bool
    graph: BipartiteGcdGraph
    measure: float
    empty: bool


def compression_step(g: BipartiteGcdGraph, p: int) -> list[CompressionCandidate]:
    """The four restrictions (p | v or not) x (p | w or not), in the order
    TT, TF, FT, FF.  Their vertex sets tile V x W, so their edge sets
    partition the original edges.  A side restricted to p | v tracks the
    divisor a*p, or a when p already divides a."""
    if not is_prime_int(p):
        raise UsageError(f"{p} is not prime")
    out = []
    for keep_v, keep_w in ((True, True), (True, False), (False, True), (False, False)):
        vs = [i for i, v in enumerate(g.V) if (v % p == 0) == keep_v]
        ws = [j for j, w in enumerate(g.W) if (w % p == 0) == keep_w]
        edges = tuple((vs.index(i), ws.index(j)) for i, j in g.edges if i in vs and j in ws)
        a = g.a * p if keep_v and g.a % p else g.a
        b = g.b * p if keep_w and g.b % p else g.b
        sub = BipartiteGcdGraph(tuple(g.V[i] for i in vs), tuple(g.W[j] for j in ws), edges, a, b)
        out.append(CompressionCandidate(keep_v, keep_w, sub, sub.quality, not sub.V or not sub.W))
    return out


def unit(phases) -> np.ndarray:
    """e(t) = exp(2*pi*i*t) elementwise, from float phases t."""
    ph = np.asarray(phases, dtype=np.float64)
    return np.exp(2j * math.pi * ph)


def frac_exact(n: int, theta: float) -> float:
    """Exact (n*theta) mod 1 for integer n, via the rational value of theta."""
    p, q2 = float(theta).as_integer_ratio()  # q2 is a power of two
    return ((n * p) % q2) / q2


_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp splitting constant


def frac_mul(n, theta):
    """(n*theta) mod 1 in [0,1) for an int64/float array n and float theta.

    Error-free transformation of the product (Dekker two-product without
    fma), then exact fractional split; absolute error is a few ulp.
    Requires |n*theta| < 2^53, and |n| <= 2^53 for integer n: float64 holds
    every integer only up to 2^53, so a larger one is refused with
    OutOfRange rather than rounded.
    """
    a = np.asarray(n)
    if a.dtype.kind in "iu" and a.size and max(-int(a.min()), int(a.max())) > 1 << 53:
        raise OutOfRange("frac_mul needs integers n with |n| <= 2^53")
    a = a.astype(np.float64, copy=False)
    p = a * theta
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * theta
    b_hi = c - (c - theta)
    b_lo = theta - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    f = p - np.floor(p)  # exact: both operands share exponent range
    f = f + err
    f -= np.floor(f)
    return f


def enumerate_list(sys, x: int) -> list[int]:
    """The members of A(x) in increasing order, as Python ints: length by
    length, each prefix t extended by every allowed digit d with t*q + d
    <= x."""
    out = [0] if x >= 0 and 0 in sys.digits else []
    level = [d for d in sys.digits if 0 < d <= x]
    while level:
        out.extend(level)
        level = [t * sys.q + d for t in level if t * sys.q <= x for d in sys.digits if t * sys.q + d <= x]
    return out


def euler_phi(n: int) -> int:
    """phi(n) = n prod (1 - 1/p) over the primes p of n, found by trial
    division by every d up to the square root of what is left; phi(0) = 0."""
    phi, m, d = n, n, 2
    while d * d <= m:
        if m % d == 0:
            phi -= phi // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        phi -= phi // m
    return phi


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def selfridge(n: int) -> int:
    """Selfridge's D (Method A) for an odd n > 1 that is not a square: the
    first of 5, -7, 9, -11, ... with (D/n) = -1, or 0 when a D with |D| < n
    and (D/n) = 0 comes first (then gcd(D, n) > 1 shows n composite)."""
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0 and abs(D) < n:
            return 0
        D = -D - 2 if D > 0 else 2 - D
    return D


def strong_lucas_probable_prime(n: int) -> bool:
    """Selfridge's strong Lucas test for an odd n > 1 that is not a square:
    D from ``selfridge`` (n fails when that is 0), P = 1, Q = (1 - D)/4;
    with n + 1 = d*2^s, d odd, n passes when U_d = 0 or V_(d*2^r) = 0
    (mod n) for some 0 <= r < s.  (U, V) go from the top bit of d down by
    U_2k = U_k V_k, V_2k = V_k^2 - 2Q^k, and for a set bit U_(k+1) =
    (P U_k + V_k)/2, V_(k+1) = (D U_k + P V_k)/2, halving mod n."""
    D = selfridge(n)
    if D == 0:
        return False
    P, Q, half = 1, (1 - D) // 4, (n + 1) // 2
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 0, 2, 1
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (P * U + V) * half % n, (D * U + P * V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def prime_exp_sum_exact(primes, theta: float, prec: int = 140) -> tuple:
    """S_P(theta) = sum of e(p*theta) over the given primes as a pair of mpmath
    mpf values (re, im) at prec bits (140 bits: 42 digits).  theta is the
    dyadic a/2^k of its float, so each phase 2*(p*a mod 2^k)/2^k of
    cos_sin_pi is exact; each term and each partial sum is rounded at prec
    bits."""
    a, b = float(theta).as_integer_ratio()
    k = b.bit_length() - 1
    re = im = libmp.fzero
    for p in primes:
        c, s = libmp.mpf_cos_sin_pi(libmp.from_man_exp(2 * (p * a % b), -k), prec)
        re, im = libmp.mpf_add(re, c, prec), libmp.mpf_add(im, s, prec)
    return mpmath.mpf(re), mpmath.mpf(im)
