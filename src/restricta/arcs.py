"""Circle dissection: Farey covering, arc classification, main-term assembly.

Points j/N are classified by the smallest-denominator rational window
containing them: denominators dividing q carry the main term, q-smooth
denominators are secondary major arcs, denominators with a prime outside q
are non-smooth major arcs, and everything else is minor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digit_systems import DigitSystem, enumerate_restricted
from .errors import CapExceeded, UsageError
from .fourier import FourierProfile, restricted_exp_sum, sa_chunks
from .numutil import fsum_chunks, unit
from .primes import PrimeTable, factorize, prime_spectrum

COVER_CAP = 10**5
SCAN_CAP = 10**7
DEFAULT_A = 51.0

PRIMARY_MAJOR = "primary-major"
SMOOTH_MAJOR = "smooth-major"
NONSMOOTH_MAJOR = "nonsmooth-major"
MINOR = "minor"


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


def dirichlet_cover(M: int) -> list[FareyPoint]:
    """All reduced r/s with s <= M, 0 <= r <= s, width 1/(sM).

    The union of [r/s - 1/(sM), r/s + 1/(sM)] covers [0, 1].
    """
    if M < 1:
        raise UsageError("need M >= 1")
    if M > COVER_CAP:
        raise CapExceeded(f"M = {M} above cap {COVER_CAP} (quadratic point count)")
    pts = [FareyPoint(0, 1, 1.0 / M), FareyPoint(1, 1, 1.0 / M)]
    for s in range(2, M + 1):
        w = 1.0 / (s * M)
        for r in range(1, s):
            if math.gcd(r, s) == 1:
                pts.append(FareyPoint(r, s, w))
    return pts


def _smoothness(s: int, q: int) -> str:
    """primary if s | q, smooth if every prime of s divides q, else nonsmooth."""
    if q % s == 0:
        return PRIMARY_MAJOR
    if all(q % p == 0 for p in factorize(s, math.isqrt(s))):
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


def classify_point(j: int, sys: DigitSystem, k: int, A: float = DEFAULT_A) -> ArcClass:
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


def classify_all(sys: DigitSystem, k: int, A: float) -> np.ndarray:
    """Class index for every j in [0, N): 0 primary, 1 smooth, 2 nonsmooth,
    3 minor.  Window-marking in ascending s so the smallest-s witness wins;
    agrees with classify_point pointwise (same qualifying comparison)."""
    N = sys.q**k
    if N > SCAN_CAP:
        raise CapExceeded(f"N = {N} above scan cap {SCAN_CAP}")
    C = math.log(N) ** A
    if C >= N / 2:  # the s = 1 windows already blanket the whole circle
        return np.zeros(N, dtype=np.int8)
    M = min(int(C), N)
    if M > 20_000:
        raise CapExceeded(f"window count for (log N)^A = {C:.3g} too large for a full scan")
    out = np.full(N, -1, dtype=np.int8)
    kinds = {PRIMARY_MAJOR: 0, SMOOTH_MAJOR: 1, NONSMOOTH_MAJOR: 2}
    for s in range(1, M + 1):
        code = kinds[_smoothness(s, sys.q)]
        for r in range(s + 1):
            if math.gcd(r, s) != 1:
                continue
            lo = max(0, int(math.floor(r * N / s - C)) - 1)
            hi = min(N - 1, int(math.ceil(r * N / s + C)) + 1)
            if lo > hi:
                continue
            j = np.arange(lo, hi + 1, dtype=np.int64)
            ok = np.abs(j * s - r * N) <= C * s
            seg = out[lo : hi + 1]
            seg[ok & (seg < 0)] = code
    out[out < 0] = 3
    return out


_CLASS_NAMES = (PRIMARY_MAJOR, SMOOTH_MAJOR, NONSMOOTH_MAJOR, MINOR)


@dataclass(frozen=True)
class MainTermReport:
    """Exact prime count in A(N) against the circle-method pieces."""

    exact_count: int
    primary_term: float
    prediction: float
    identity_sum: float

    def to_json(self) -> dict:
        return {
            "exactCount": self.exact_count,
            "primaryTerm": self.primary_term,
            "prediction": self.prediction,
            "identitySum": self.identity_sum,
        }


def main_term_assembly(sys: DigitSystem, k: int, table: PrimeTable) -> MainTermReport:
    """pi_A(q^k) exactly, the primary-arc contribution, the heuristic
    prediction, and the full discrete identity sum (1/N) sum_j S_P S_A.

    The identity sum reproduces pi_A(N) exactly (up to roundoff) whenever
    0 is an allowed digit and N is composite.
    """
    from .digit_systems import prediction_constant

    N = sys.q**k
    if N > table.limit:
        raise CapExceeded(f"N = {N} beyond the prime table limit {table.limit}")
    if N > SCAN_CAP:
        raise CapExceeded(f"N = {N} above scan cap {SCAN_CAP}")
    members = enumerate_restricted(sys, N)
    ps = table.primes(N)
    m = np.fromiter(members, dtype=np.int64, count=len(members))
    # a member is prime when it has an equal entry in the increasing ps
    exact = int(np.sum(np.searchsorted(ps, m, "right") - np.searchsorted(ps, m)))
    # primary piece: q^{-k} sum_l S_P(l/q) S_A(-l/q)
    prof = FourierProfile(sys, k)
    primary = 0.0
    for ell in range(sys.q):
        sp = complex(np.sum(unit(ps * ell % sys.q / sys.q)))
        sa = restricted_exp_sum(prof, Fraction(-ell, sys.q))
        primary += (sp * sa).real
    primary /= N
    pred = float(prediction_constant(sys)) * len(members) / math.log(N)
    # full identity sum over all j
    spectrum = prime_spectrum(table, N)
    ident_parts = []
    for j0, sa_vals in sa_chunks(prof):
        sp_vals = spectrum[j0 : j0 + len(sa_vals)]
        ident_parts.append(complex(np.sum(sp_vals * np.conj(sa_vals))))
    ident = math.fsum(p.real for p in ident_parts) / N
    return MainTermReport(exact, primary, pred, ident)


def minor_arc_mass(sys: DigitSystem, k: int, table: PrimeTable, A: float) -> float:
    """(1/N) sum over non-primary j of |S_P(j/N)| |S_A(j/N)|."""
    return arc_mass_breakdown(sys, k, table, A)["mass"]["non-primary"]


def arc_mass_breakdown(sys: DigitSystem, k: int, table: PrimeTable, A: float) -> dict:
    """Per-class point counts and (1/N) sum |S_P| |S_A| masses."""
    N = sys.q**k
    if N > SCAN_CAP:
        raise CapExceeded(f"N = {N} above scan cap {SCAN_CAP}")
    if N > table.limit:
        raise CapExceeded(f"N = {N} beyond the prime table limit {table.limit}")
    classes = classify_all(sys, k, A)
    spectrum_abs = np.abs(prime_spectrum(table, N))
    prof = FourierProfile(sys, k)
    masses = np.zeros(4)
    for j0, sa_vals in sa_chunks(prof):
        prod = spectrum_abs[j0 : j0 + len(sa_vals)] * np.abs(sa_vals)
        cls = classes[j0 : j0 + len(sa_vals)]
        for c in range(4):
            sel = prod[cls == c]
            if sel.size:
                masses[c] += fsum_chunks(sel)
    masses /= N
    counts = {name: int(np.count_nonzero(classes == c)) for c, name in enumerate(_CLASS_NAMES)}
    mass = {name: float(masses[c]) for c, name in enumerate(_CLASS_NAMES)}
    mass["non-primary"] = float(masses[1:].sum())
    return {"count": counts, "mass": mass, "reference": len_members_over_logA(sys, k, A)}


def len_members_over_logA(sys: DigitSystem, k: int, A: float) -> float:
    """|A(N)| / (log N)^A, the diagnostic comparison scale."""
    N = sys.q**k
    return sys.size**k / math.log(N) ** A
