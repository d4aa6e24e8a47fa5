"""Circle dissection: arc classification, arc masses, main-term assembly.

Points j/N are classified by the smallest-denominator rational window
containing them: denominators dividing q carry the main term, q-smooth
denominators are secondary major arcs, denominators with a prime outside q
are non-smooth major arcs, and everything else is minor.

The circle sums read j <= N/2 only (``fourier.fold_weights``): S_P and
S_A have real coefficients, so the terms at N - j are the conjugates of
those at j.  The S_A values keep the full grid's bits; the sums, over half
as many terms, move in their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digit_systems import DigitSystem, census
from .errors import CapExceeded, UsageError
from .fourier import FourierProfile, fold_weights, sa_chunks
from .numutil import fsum_chunks
from .primes import factorize, phi_sieve, prime_spectrum, sieve_primes

SCAN_CAP = 10**7
FULL_SCAN_CAP = 3 * 10**8  # window points a full scan visits: k = 6, A = 2.5 visits 2.2e8 in 2.2 s
DEFAULT_A = 51.0

PRIMARY_MAJOR = "primary-major"
SMOOTH_MAJOR = "smooth-major"
NONSMOOTH_MAJOR = "nonsmooth-major"
MINOR = "minor"


def _smoothness(s: int, q: int) -> str:
    """primary if s | q, smooth if every prime of s divides q, else nonsmooth."""
    if q % s == 0:
        return PRIMARY_MAJOR
    if all(q % p == 0 for p in factorize(s)):
        return SMOOTH_MAJOR
    return NONSMOOTH_MAJOR


def classify_all(sys: DigitSystem, k: int, A: float) -> np.ndarray:
    """Class index for every j in [0, N): 0 primary, 1 smooth, 2 nonsmooth,
    3 minor.  Window-marking in ascending s so the smallest-s witness wins;
    agrees pointwise with the scalar ``classify_point`` of tests/oracles.py
    (same qualifying comparison).  The 1 + sum_{s <= M} phi(s) windows of
    2C + 3 points each are refused above FULL_SCAN_CAP points before any is
    built (phi is sieved only once M + 1 windows fit under the cap)."""
    if math.isnan(A):
        raise UsageError("need a number A, got nan")
    N = FourierProfile(sys, k).capped_points(SCAN_CAP, "scan cap")
    C = math.log(N) ** A
    if C >= N / 2:  # the s = 1 windows already blanket the whole circle
        return np.zeros(N, dtype=np.int8)
    M = min(int(C), N)
    width = 2 * C + 3
    if (M + 1) * width > FULL_SCAN_CAP or (1 + int(phi_sieve(M)[1:].sum())) * width > FULL_SCAN_CAP:
        raise CapExceeded(f"full scan at (log N)^A = {C:.3g} visits over {FULL_SCAN_CAP:.0e} window points")
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


CLASS_NAMES = (PRIMARY_MAJOR, SMOOTH_MAJOR, NONSMOOTH_MAJOR, MINOR)  # by class index


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


def main_term_assembly(sys: DigitSystem, k: int) -> MainTermReport:
    """pi_A(q^k) exactly and its heuristic prediction (both from ``census``),
    the full discrete identity sum (1/N) sum_j S_P(j/N) S_A(-j/N), and its
    primary-arc part: the terms at j/N = l/q, the j divisible by q^(k-1).

    The identity sum reproduces pi_A(N) exactly (up to roundoff) whenever
    0 is an allowed digit and N is composite.  S_P and S_A have real
    coefficients, so the terms at j and N - j are conjugates: both sums
    take the real parts over j <= N/2 under ``fold_weights``.
    """
    prof = FourierProfile(sys, k)
    N = prof.capped_points(SCAN_CAP, "scan cap")  # before anything is sieved
    spectrum = prime_spectrum(sieve_primes(N))
    counted = census(sys, N)
    step = N // sys.q
    ident_parts, primary_parts = [], []
    for j0, sa_vals in sa_chunks(prof):
        terms = (spectrum[j0 : j0 + len(sa_vals)] * np.conj(sa_vals)).real  # S_A(-x) = conj S_A(x)
        terms *= fold_weights(j0, len(sa_vals), N)
        ident_parts.append(fsum_chunks(terms))
        primary_parts.append(math.fsum(terms[-j0 % step :: step]))
    ident = math.fsum(ident_parts) / N
    return MainTermReport(counted.prime_count, math.fsum(primary_parts) / N, counted.predicted, ident)


def arc_mass_breakdown(sys: DigitSystem, k: int, A: float) -> dict:
    """Per-class point counts over the whole circle and (1/N) sum |S_P| |S_A|
    masses, read off j <= N/2 under ``fold_weights``: both moduli and the
    classes are even under j -> N - j."""
    prof = FourierProfile(sys, k)
    N = prof.capped_points(SCAN_CAP, "scan cap")  # before anything is sieved
    spectrum_abs = np.abs(prime_spectrum(sieve_primes(N)))
    classes = classify_all(sys, k, A)
    masses = np.zeros(4)
    for j0, sa_vals in sa_chunks(prof):
        prod = fold_weights(j0, len(sa_vals), N) * spectrum_abs[j0 : j0 + len(sa_vals)] * np.abs(sa_vals)
        cls = classes[j0 : j0 + len(sa_vals)]
        for c in range(4):
            sel = prod[cls == c]
            if sel.size:
                masses[c] += fsum_chunks(sel)
    masses /= N
    counts = {name: int(np.count_nonzero(classes == c)) for c, name in enumerate(CLASS_NAMES)}
    mass = {name: float(masses[c]) for c, name in enumerate(CLASS_NAMES)}
    mass["non-primary"] = float(masses[1:].sum())
    return {"count": counts, "mass": mass}
