"""Prime generation and the prime exponential sum S_P(theta).

Segmented sieve (2^20-element segments, bit-packed storage), exact prime
counting in arithmetic progressions, Ramanujan sums, and direct evaluation
of S_P(theta) = sum_{p<=N} e(p*theta) with exact phase reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import FactorizationTooHard, LimitExceeded, OutOfRange, UsageError
from .numutil import csum, frac_mul, unit

SEGMENT = 1 << 20
SIEVE_LIMIT = 1 << 40

# exact below psi_12, and below psi_13 with base 41 (Sorenson-Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI12 = 318_665_857_834_031_151_167_461
_PSI13 = 3_317_044_064_679_887_385_961_981


class PrimeTable:
    """Bit-packed primality table for [0, limit], built segment by segment."""

    def __init__(self, limit: int, packed: np.ndarray, seg_counts: np.ndarray):
        self.limit = limit
        self._packed = packed  # uint8, one bit per integer, big-endian per byte
        self._seg_counts = seg_counts  # primes per segment, for fast pi(x)

    def _segment_bits(self, seg: int) -> np.ndarray:
        lo = seg * (SEGMENT // 8)
        hi = min(lo + SEGMENT // 8, len(self._packed))
        return np.unpackbits(self._packed[lo:hi])

    def is_prime(self, n: int) -> bool:
        if n < 0 or n > self.limit:
            raise OutOfRange(f"{n} outside table limit {self.limit}")
        byte = self._packed[n >> 3]
        return bool((byte >> (7 - (n & 7))) & 1)

    def primes(self, x: int | None = None) -> np.ndarray:
        """All primes <= x (default: the full table), increasing, int64."""
        x = self.limit if x is None else x
        if x > self.limit:
            raise OutOfRange(f"{x} exceeds table limit {self.limit}")
        parts = []
        nseg = (x >> 20) + 1
        for seg in range(nseg):
            bits = self._segment_bits(seg)
            idx = np.flatnonzero(bits).astype(np.int64) + (seg << 20)
            if idx.size and idx[-1] > x:
                idx = idx[idx <= x]
            if idx.size:
                parts.append(idx)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes().tolist())

    def pi(self, x: int) -> int:
        """Exact prime count up to x."""
        if x > self.limit:
            raise OutOfRange(f"{x} exceeds table limit {self.limit}")
        if x < 2:
            return 0
        seg = x >> 20
        count = int(self._seg_counts[:seg].sum())
        bits = self._segment_bits(seg)
        count += int(bits[: (x - (seg << 20)) + 1].sum())
        return count


def _simple_sieve(n: int) -> np.ndarray:
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes up to limit (inclusive)."""
    if limit < 2:
        raise UsageError("sieve limit must be >= 2")
    if limit > SIEVE_LIMIT:
        raise LimitExceeded(f"sieve limit {limit} above 2^40")
    base = _simple_sieve(math.isqrt(limit))
    nseg = (limit >> 20) + 1
    packed_parts = []
    seg_counts = np.zeros(nseg, dtype=np.int64)
    for seg in range(nseg):
        lo = seg << 20
        hi = min(lo + SEGMENT, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        if seg == 0:
            flags[:2] = False
        for p in base:
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            flags[start - lo :: p] = False
            if lo <= p < hi:
                flags[p - lo] = True
        seg_counts[seg] = int(flags.sum())
        if len(flags) < SEGMENT:
            flags = np.concatenate([flags, np.zeros(SEGMENT - len(flags), dtype=bool)])
        packed_parts.append(np.packbits(flags))
    return PrimeTable(limit, np.concatenate(packed_parts), seg_counts)


def count_primes_ap(table: PrimeTable, x: int, q: int, a: int) -> int:
    """Exact #{p <= x : p prime, p = a (mod q)}."""
    if x > table.limit:
        raise OutOfRange(f"{x} exceeds table limit {table.limit}")
    if q < 1 or not (0 <= a < q):
        raise UsageError("need q >= 1 and 0 <= a < q")
    ps = table.primes(x)
    return int(np.count_nonzero(ps % q == a))


def count_primes_digit_filtered(table: PrimeTable, x: int, sys) -> int:
    """#{p <= x prime with all base-q digits allowed}, vectorised."""
    ps = table.primes(x)
    mask = np.zeros(sys.q, dtype=bool)
    mask[list(sys.digits)] = True
    ok = np.ones(len(ps), dtype=bool)
    rem = ps.copy()
    while np.any(rem > 0):
        active = rem > 0
        ok[active] &= mask[rem[active] % sys.q]
        rem = np.where(active, rem // sys.q, 0)
    return int(np.count_nonzero(ok))


def prime_exp_sum(table: PrimeTable, N: int, theta: float) -> complex:
    """S_P(theta) = sum_{p <= N} e(p*theta), by direct compensated summation."""
    if N > table.limit:
        raise OutOfRange(f"{N} exceeds table limit {table.limit}")
    ps = table.primes(N)
    phases = frac_mul(ps, float(theta))
    return csum(unit(phases))


def prime_spectrum(table: PrimeTable, N: int, direct_cap: int = 50_000) -> np.ndarray:
    """S_P(j/N) for all j in [0, N): direct summation for small N, FFT above.

    The FFT path transforms the prime indicator (S_P(j/N) is the conjugate
    DFT of the indicator of primes below N); both paths agree to roundoff.
    """
    if N > table.limit:
        raise OutOfRange(f"{N} exceeds table limit {table.limit}")
    ps = table.primes(N)
    if N <= direct_cap:
        out = np.zeros(N, dtype=np.complex128)
        j = np.arange(N, dtype=np.int64)
        for p in ps.tolist():
            out += unit((p * j % N) / N)
        return out
    ind = np.zeros(N, dtype=np.float64)
    ind[ps[ps < N]] = 1.0
    if table.is_prime(N):  # wrap p = N onto residue 0
        ind[0] += 1.0
    return np.conj(np.fft.fft(ind))


def mobius(n: int) -> int:
    """mu(n) by factorization."""
    if n < 1:
        raise UsageError("mobius needs n >= 1")
    res = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            res = -res
        p += 1
    if m > 1:
        res = -res
    return res


def euler_phi(n: int) -> int:
    res, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            res -= res // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        res -= res // m
    return res


def phi_sieve(N: int) -> np.ndarray:
    """Euler phi for all n <= N at once."""
    phi = np.arange(N + 1, dtype=np.int64)
    for p in _simple_sieve(N).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def ramanujan_sum(s: int) -> complex:
    """sum over 1<=b<=s, gcd(b,s)=1 of e(b/s); equals mu(s) up to roundoff."""
    if s < 1:
        raise UsageError("need s >= 1")
    b = np.arange(1, s + 1, dtype=np.int64)
    b = b[np.gcd(b, s) == 1]
    return csum(unit(b / float(s)))


def vinogradov_reference(N: float, S: float, B: float) -> float:
    """Reference shape (N^(4/5) + N/sqrt(B*S)) * (log N)^4 for comparison
    plots.  Bare formula with constant 1; not a certified bound."""
    if min(N, S, B) < 1:
        raise UsageError("need N, S, B >= 1")
    return (N ** 0.8 + N / math.sqrt(B * S)) * math.log(N) ** 4


def is_prime_int(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < psi_13 (about 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES if n < _PSI12 else _MR_BASES + (41,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, trial_limit: int = 10**6) -> dict[int, int]:
    """Exact factorization: trial division then Miller-Rabin certification
    of the cofactor.  Refuses composites with two factors above the trial
    limit (certified mode)."""
    if n < 1:
        raise UsageError("factorize needs n >= 1")
    fac: dict[int, int] = {}
    m = n
    p = 2
    while p <= trial_limit and p * p <= m:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if m >= _PSI13:
            raise FactorizationTooHard(f"cofactor {m} beyond Miller-Rabin certification range")
        if is_prime_int(m):
            fac[m] = fac.get(m, 0) + 1
        else:
            raise FactorizationTooHard(f"composite cofactor {m} of {n}")
    return fac


def divisors(n: int) -> list[int]:
    """All divisors of n, increasing, from the exact factorization."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
