"""Prime generation and the prime exponential sum S_P(theta).

A ``PrimeTable`` keeps only its limit and the base primes up to its square
root.  Its ``slots()`` walk sieves the range one segment of SEGMENT odd
slots at a time (one flag per odd integer; 2, the only even prime, is
handled apart) and keeps none of it.  Each segment starts as a wheel
pattern with the multiples of 3, 5, 7, 11 and 13 already struck out
(period 3*5*7*11*13 = 15015 odd slots), so only the base primes >= 17 are
crossed off.  ``prime_sums`` takes pi(N), a count in an arithmetic
progression and S_P(theta) = sum_{p<=N} e(p*theta) from one walk, and
``prime_spectrum`` fills the indicator of the primes from one walk, and
the digit census walks only the slot runs of the blocks of q^j integers
whose leading digits are allowed, counting each piece through one digit
pattern, both read off the ``DigitSystem`` (no digit is read here).  S_P
reads each segment's slot indices through two root tables of 1024
entries, so no prime is decoded.  Also: Ramanujan sums, primorials, exact
primality and exact factorization.  Primality of an int is deterministic
Miller-Rabin with the bases the psi_k table proves enough, refused at
psi_13; that of a whole int64 array is Baillie-PSW in
uint64 Montgomery arithmetic (a strong base-2 test and a strong Lucas
test), which no composite below 2^64 passes (Gilchrist's check against
Feitsma's list of the base-2 pseudoprimes).  Factorization, which Mobius
reads, trial-divides by the primes of one list grown on demand and tests
only a cofactor that TRIAL_LIMIT leaves unsettled.  The int64 array paths
of both share one exact divisibility test by the odd prime p, n*p^-1 mod
2^64 <= floor((2^64 - 1)/p) (``_divisibility``): the array primality test
trial-divides by the odd primes below 256 with it, and an int64 array is
factored in one pass of it over blocks of primes.  Both also take an
object array, whose elements below 2^63 take the int64 path in one call.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import FactorizationTooHard, LimitExceeded, OutOfRange, UsageError
from .numutil import fsum_chunks, mul_hi, unit

SEGMENT = 1 << 20  # odd slots per segment; slot i holds the odd integer 2i+1
SIEVE_LIMIT = 1 << 40
TRIAL_LIMIT = 10**6  # factorize trial-divides by the primes up to this
WHEEL = 3 * 5 * 7 * 11 * 13  # period, in odd slots, of the pre-sieved pattern
SP_CHUNK = 1 << 15  # slots per chunk of S_P(theta): its temporaries stay small
ROW_BITS = 10  # slot s = 2^ROW_BITS * h + l: S_P reads e(2*s*theta) as A[h] * B[l]

# (psi_k, k): the first k prime bases decide every n < psi_k, the least strong
# pseudoprime to all of them (Jaeschke 1993; Jiang-Deng 2014; Sorenson-Webster
# 2017).  psi_7 = psi_8 and psi_9 = psi_10 = psi_11.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI12 = 318_665_857_834_031_151_167_461
_PSI13 = 3_317_044_064_679_887_385_961_981
_MR_TABLE = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (_PSI12, 12),
    (_PSI13, 13),
)


class PrimeTable:
    """The primes up to limit, kept as the base primes up to sqrt(limit).

    Nothing of the range is stored: ``slots()`` sieves it one segment at a
    time on demand, and every quantity over the primes up to limit is one
    pass over it.
    """

    def __init__(self, limit: int, base: np.ndarray):
        self.limit = limit
        self._base = base  # the primes from 17 up to sqrt(limit), int64

    def slots(self, runs: list[tuple[int, int]] | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """(lo, flags) for each segment in turn: flags[i] tells whether the
        odd integer 2*(lo + i) + 1 is prime.  The walk covers the odd
        integers up to limit (the prime 2 has no slot), or only the
        half-open slot runs [a, b) given, which lie in [0, (limit + 1) // 2),
        each cut SEGMENT slots at a time from its start."""
        for a, b in [(0, (self.limit + 1) // 2)] if runs is None else runs:
            for lo in range(a, b, SEGMENT):
                yield lo, _sieve_slots(lo, min(lo + SEGMENT, b), self._base)


def _simple_sieve(n: int) -> np.ndarray:
    """The primes <= n, increasing (none for n < 2)."""
    n = max(n, 1)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


# True at odd slot i < WHEEL when 2i+1 is prime to 3, 5, 7, 11 and 13; the
# pattern repeats every WHEEL slots
_WHEEL = np.gcd(2 * np.arange(WHEEL) + 1, WHEEL) == 1
_FIRST_SLOTS = np.array([False, True, True, True, False, True, True])  # 1, 3, 5, ..., 13


def _sieve_slots(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primality flags of the odd slots [lo, hi), hi - lo <= SEGMENT, given
    base, the primes from 17 up to the square root of the largest integer
    the caller reads (flags above that may be wrong).

    The flags start as the wheel pattern repeated, which has struck out 3,
    5, 7, 11 and 13; each base prime p with p*p in range is then crossed
    off from max(p*p, its first odd multiple >= 2*lo + 1) on, the odd
    multiples p*(2k+1) sitting p slots apart.
    """
    flags = np.resize(np.roll(_WHEEL, -(lo % WHEEL)), hi - lo)
    if lo < len(_FIRST_SLOTS):
        head = _FIRST_SLOTS[lo:hi]
        flags[: len(head)] = head
    live = base[: int(np.searchsorted(base, math.isqrt(2 * hi - 1), side="right"))]
    home = (live - 1) // 2  # slot of p: its odd multiples are the slots home + k*p
    first = (live * live - 1) // 2  # slot of p*p
    starts = np.maximum(first, lo + (home - lo) % live) - lo
    for s, p in zip(starts.tolist(), live.tolist()):
        flags[s::p] = False
    return flags


def sieve_primes(limit: int) -> PrimeTable:
    """The table of the primes up to limit (inclusive): the base primes up
    to sqrt(limit) from a plain sieve; ``PrimeTable.slots`` runs the
    segmented odd-only sieve of Eratosthenes over the range."""
    if limit < 2:
        raise UsageError("sieve limit must be >= 2")
    if limit > SIEVE_LIMIT:
        raise LimitExceeded(f"sieve limit {limit} above 2^40")
    base = _simple_sieve(math.isqrt(limit))
    return PrimeTable(limit, base[base >= 17])


def prime_sums(
    table: PrimeTable, ap: tuple[int, int] | None = None, theta: float | None = None
) -> tuple[int, int | None, complex | None]:
    """(pi(N), #{p <= N : p = a (mod q)}, S_P(theta)) for N = table.limit,
    from one walk over ``table.slots()``; the count is None without
    ap = (q, a), and S_P(theta) = sum_{p <= N} e(p*theta) None without
    theta.  Both are checked before the walk starts.

    The count reads the sieve slots: odd slot s holds 2s+1, so the odd
    p = a (mod q) sit in one residue class of slots, s = (a-1)/2 (mod q/2)
    for even q (none for even a) and s = (a-1)*2^-1 (mod q) for odd q;
    each segment counts its flags at that stride, so nothing is decoded and
    q may be any size.  The prime 2 is counted apart.

    For S_P, theta is reduced mod 1 once, exactly, to 128-bit fixed point.
    The prime at slot s of the segment at lo is 2*(lo + s) + 1, so e(p*theta)
    = e((2*lo + 1)*theta) * e(2*s*theta), and with s = 2^ROW_BITS*h + l,
    e(2*s*theta) = A[h] * B[l] for two tables of SEGMENT/2^ROW_BITS and
    2^ROW_BITS entries, each taken once per call from its exact 64-bit
    phases through ``numutil.unit``.  Each chunk of SP_CHUNK slots
    gathers B at the low bits of its flagged slot indices and sums them by
    their high bits into the row sums; the segment's sum is the dot product
    of the row sums with A, times e((2*lo + 1)*theta).  No prime is decoded
    and no per-prime phase is formed.  The segments are summed with an exact
    fsum, and the prime 2 apart.  Every term is the product of three roots
    of unity, each within about 1 ulp, so S_P is within a few 1e-16*pi(N)
    of the exact sum.
    """
    count, step = None, 0  # step: the stride of the odd p = a (mod q) in slots; 0: none
    if ap is not None:
        q, a = ap
        if q < 1 or not (0 <= a < q):
            raise UsageError("need q >= 1 and 0 <= a < q")
        count = 1 if 2 % q == a else 0
        if q % 2 == 1:
            step, first = q, (a - 1) * pow(2, -1, q) % q
        elif a % 2 == 1:
            step, first = q // 2, (a - 1) // 2
    if theta is not None:
        theta = float(theta)
        if not math.isfinite(theta):
            raise UsageError(f"need a finite theta, got {theta}")
        rows = unit(np.arange(0, 2 * SEGMENT, 2 << ROW_BITS, dtype=np.uint64), theta)  # A[h] = e(2^(ROW_BITS+1)*h*theta)
        cols = unit(np.arange(0, 2 << ROW_BITS, 2, dtype=np.uint64), theta)  # B[l] = e(2*l*theta)
        row_starts = np.arange(0, SP_CHUNK, 1 << ROW_BITS)
        terms = [complex(unit(np.array([2], dtype=np.uint64), theta)[0])]  # the prime 2
    pi = 1  # the prime 2
    for lo, flags in table.slots():
        pi += int(np.count_nonzero(flags))
        if step:
            start = (first - lo) % step
            if start < len(flags):
                count += int(np.count_nonzero(flags[start :: min(step, SEGMENT)]))
        if theta is not None:
            sums = np.zeros(len(rows), dtype=np.complex128)  # per row h, the sum of B[l] over its primes
            for i in range(0, len(flags), SP_CHUNK):
                slot = np.flatnonzero(flags[i : i + SP_CHUNK])  # increasing
                starts = np.searchsorted(slot, row_starts)  # where each row's run begins
                held = starts < np.append(starts[1:], len(slot))  # the rows with a prime
                slot &= (1 << ROW_BITS) - 1
                sums[(i >> ROW_BITS) + np.flatnonzero(held)] = np.add.reduceat(cols.take(slot), starts[held])
            terms.append(complex(unit(np.array([2 * lo + 1], dtype=np.uint64), theta)[0]) * complex((rows * sums).sum()))
        del flags  # one segment alive: the walk sieves the next one when this loop asks for it
    if theta is None:
        return pi, count, None
    return pi, count, complex(math.fsum(v.real for v in terms), math.fsum(v.imag for v in terms))


def _digit_patterns(sys) -> tuple[int, np.ndarray, np.ndarray]:
    """(Q, full, lead) for Q = q^j, the largest power of q with at most
    2*SEGMENT integers (j = 0, Q = 1 when q itself is larger): the
    ``DigitSystem.indicator`` of j digits, zero-padded and plain."""
    j = 0
    while sys.q ** (j + 1) <= 2 * SEGMENT:
        j += 1
    return sys.q**j, sys.indicator(j), sys.indicator(j, lead=True)


def count_primes_digit_filtered(table: PrimeTable, sys) -> int:
    """#{p <= x prime with all base-q digits allowed}, x = table.limit,
    walking only the blocks of integers that can hold such a prime.

    With Q = q^j from ``_digit_patterns``, n = i*Q + r (0 <= r < Q) is a
    member of A exactly when i = 0 and the plain expansion of r is allowed,
    or i >= 1 is a member and the j digits of r, zero-padded, are allowed.
    So ``table.slots`` walks only the blocks [i*Q, (i+1)*Q) with i in the
    runs ``sys.runs(x // Q)`` of {0} and A, as runs of odd slots, the block
    holding x cut at x.  Each piece's flags are ANDed with the pattern
    ``full`` (``lead`` in block 0) at the odd integers and counted; no
    prime is decoded.  The pattern at odd slot s is full[(2s+1) % Q], which
    repeats every Q/2 slots for even Q and every Q slots for odd Q.  Of
    the digits it reads ``sys.indicator``, ``sys.runs`` and
    ``sys.contains`` only.
    """
    x = table.limit
    Q, full, lead = _digit_patterns(sys)
    odd = full[1::2] if Q % 2 == 0 else np.concatenate((full[1::2], full[0::2]))  # full[(2s+1) % Q]
    period = len(odd)
    tiled = np.tile(odd, -(-SEGMENT // period) + 1)
    lead_odd = lead[1::2].copy()  # block 0: the odd r < Q are the slots [0, Q // 2)
    del full, lead, odd
    # slots of the odd integers in [i0*Q, min(i1*Q, x + 1))
    runs = [(i0 * Q // 2, min(i1 * Q, x + 1) // 2) for i0, i1 in sys.runs(x // Q).tolist()]
    count = 1 if sys.contains(2) else 0  # the one even prime
    for lo, flags in table.slots(runs):
        split = min(max(Q // 2 - lo, 0), len(flags))
        flags[:split] &= lead_odd[lo : lo + split]
        phase = (lo + split) % period
        flags[split:] &= tiled[phase : phase + len(flags) - split]
        count += int(np.count_nonzero(flags))
        del flags
    return count


def prime_spectrum(table: PrimeTable) -> np.ndarray:
    """S_P(j/N) for j <= N/2, N = table.limit: the conjugate DFT of the
    indicator of the primes up to N, filled from the sieve slots, with p = N
    wrapped onto residue 0.  The indicator is real, so S_P((N - j)/N) =
    conj S_P(j/N) and the real FFT gives the half that determines the rest,
    with no complex copy of the indicator."""
    N = table.limit
    ind = np.zeros(N + 1, dtype=np.float64)
    ind[2] = 1.0
    for lo, flags in table.slots():
        ind[2 * lo + 1 : 2 * (lo + len(flags)) : 2] = flags
        del flags
    ind[0] = ind[N]
    return np.conj(np.fft.rfft(ind[:N]))


def mobius(n: int) -> int:
    """mu(n) by complete factorization."""
    if n < 1:
        raise UsageError("mobius needs n >= 1")
    fac = factorize(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def phi_sieve(N: int, lo: int = 0, primes: np.ndarray | None = None) -> np.ndarray:
    """Euler phi(n) for lo <= n <= N < 2^53, exact integers in float64.

    primes, the primes up to at least N in order, lets a caller that walks
    many windows sieve them once; by default they are sieved here.  Each
    prime p <= sqrt(N) is struck out of its multiples in the window,
    phi -= phi / p.  Every n <= N has at most one prime factor P above
    sqrt(N), n = k P with k < sqrt(N): one searchsorted over those primes
    for every k at once gives each k its run of P with k P in the window,
    and the runs are spread out by np.repeat into the pairs (k, P).  Each
    entry stays a multiple of every prime not yet struck out, so every
    division is exact and the order of the primes does not matter.
    """
    phi = np.arange(lo, N + 1, dtype=np.float64)
    if primes is None:
        primes = _simple_sieve(N)
    r = math.isqrt(max(N, 0))
    cut = int(np.searchsorted(primes, r, side="right"))
    for p in primes[:cut].tolist():
        hit = phi[-lo % p :: p]
        hit -= hit / p
    big = primes[cut:]
    k = np.arange(1, N // (r + 1) + 1)
    first = np.searchsorted(big, -(-lo // k))  # the run of P with lo <= k P <= N
    runs = np.maximum(np.searchsorted(big, N // k, side="right") - first, 0)
    ends = np.cumsum(runs)
    P = big[np.arange(ends[-1] if len(ends) else 0) + np.repeat(first - ends + runs, runs)]
    at = np.repeat(k, runs) * P - lo
    phi[at] -= phi[at] / P
    return phi


def ramanujan_sum(s: int) -> complex:
    """sum over 1<=b<=s, gcd(b,s)=1 of e(b/s); equals mu(s) up to roundoff."""
    if s < 1:
        raise UsageError("need s >= 1")
    b = np.arange(1, s + 1, dtype=np.int64)
    b = b[np.gcd(b, s) == 1]
    return fsum_chunks(unit(b % s, Fraction(1, s)))


def is_prime_int(n: int | np.ndarray) -> bool | np.ndarray:
    """Exact primality.

    n is a Python int, tested by deterministic Miller-Rabin with the fewest
    prime bases the psi_k table proves enough (refused with OutOfRange at
    n >= psi_13, about 3.3e24), or an int64 or object ndarray, for which a
    bool array of the same shape is returned: trial division and Baillie-PSW,
    exact below 2^63 (see ``_is_prime_array``), with an object array split
    at 2^63 by ``_by_width``.
    """
    if isinstance(n, np.ndarray):
        if n.dtype != object:
            return _is_prime_array(n)
        return _by_width(n, _is_prime_array, is_prime_int, bool).reshape(n.shape)
    if n >= _PSI13:
        raise OutOfRange(f"{n} >= psi_13: Miller-Rabin with 13 prime bases is not proven there")
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
    k = next(k for psi, k in _MR_TABLE if n < psi)
    for a in _MR_BASES[:k]:
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


def _by_width(n: np.ndarray, array_path, scalar_path, dtype) -> np.ndarray:
    """The results for an object array n, flat: array_path of its elements
    in [0, 2^63) in one int64 call, then scalar_path of each of the others
    in flat order, so on an increasing n a refusal is the scalar path's."""
    flat = n.reshape(-1)
    small = (flat >= 0) & (flat < 1 << 63)
    out = np.empty(flat.size, dtype=dtype)
    out[small] = array_path(flat[small].astype(np.int64))
    out[~small] = [scalar_path(v) for v in flat[~small].tolist()]
    return out


def _inverse(x: np.ndarray) -> np.ndarray:
    """x^-1 mod 2^64 for odd uint64 x: Newton steps inv *= 2 - x*inv from
    inv = x, which is right to 3 bits (x*x = 1 mod 8), each step doubling
    the bits that are right, so five steps give all 64."""
    inv = x.copy()
    for _ in range(5):
        inv *= 2 - x * inv
    return inv


def _divisibility(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p^-1 mod 2^64, floor((2^64 - 1)/p)) for odd uint64 p: p divides a
    uint64 n exactly when n*p^-1 mod 2^64 is at most the bound, and then
    n*p^-1 mod 2^64 is n/p (Granlund-Montgomery 1994, section 9).

    Multiplying by p^-1 permutes the residues mod 2^64 and sends each
    multiple k*p < 2^64 to k, so every other n lands above the bound."""
    return _inverse(p), (2**64 - 1) // p


# The array path: trial division by the odd primes below 256, then BPSW (a
# strong base-2 test and a strong Lucas test) in exact uint64 Montgomery
# arithmetic, R = 2^64, for odd n below 2^63.
_SMALL = _simple_sieve(255)
_SMALL_PRIME = np.zeros(256, dtype=bool)
_SMALL_PRIME[_SMALL] = True
_SMALL_TESTS = tuple(zip(*_divisibility(_SMALL[1:].astype(np.uint64))))  # (p^-1, bound) per odd p
_POW2 = np.array([1 << i for i in range(63)], dtype=np.uint64)
_LO32 = 0xFFFF_FFFF
_BLOCK = 1 << 13  # elements per block: the temporaries of a block stay in cache
_LUCAS_BLOCK = 1 << 12  # base-2 survivors per block of the Lucas test, whose ladder holds twice the temporaries
_HITS = 1 << 16  # (cofactor, prime) tests per step of the array factorization


def _is_prime_array(n: np.ndarray) -> np.ndarray:
    """Primality of every element of an int64 array, exactly.

    Elements below 256 are read from a table; the others are trial-divided
    by the primes below 256, and a survivor below 256^2 is prime.  The rest
    get the Baillie-PSW test: a strong base-2 test, then, for the survivors
    that are not squares, a strong Lucas test with Selfridge's parameters
    (``_selfridge``), the first over blocks of _BLOCK elements and the second
    over blocks of _LUCAS_BLOCK survivors; n' and R mod n are formed once
    and serve both.  A square, or an n with (D/n) = 0 before Selfridge's D,
    is composite.  No composite below 2^64 passes both:
    Gilchrist checked BPSW against Feitsma's list of the base-2 pseudoprimes
    below 2^64.  So below 2^63 the answer is exact, on the same footing as
    the psi_k table of the scalar path.  Negative elements are not prime.
    """
    if n.dtype != np.int64:
        raise UsageError(f"is_prime_int takes an int64 or object array, not {n.dtype}")
    flat = n.reshape(-1)
    prime = np.empty(flat.size, dtype=bool)
    live = np.empty(flat.size, dtype=bool)
    for i in range(0, flat.size, _BLOCK):
        prime[i : i + _BLOCK], live[i : i + _BLOCK] = _trial_division(flat[i : i + _BLOCK])
    live = np.flatnonzero(live)
    passed = []  # (index, n, n' = -n^-1 mod 2^64, R mod n) of the base-2 survivors, per block
    for i in range(0, live.size, _BLOCK):
        m = flat[live[i : i + _BLOCK]].astype(np.uint64)
        mont = (live[i : i + _BLOCK], m, 0 - _inverse(m), (0 - m) % m)
        ok = _strong_probable_prime(*mont[1:])
        passed.append([a[ok] for a in mont])
    if passed:
        passed = [np.concatenate(a) for a in zip(*passed)]
        for i in range(0, passed[0].size, _LUCAS_BLOCK):
            where, *mont = (a[i : i + _LUCAS_BLOCK] for a in passed)
            D = _selfridge(mont[0])
            ok = D != 0
            prime[where[ok]] = _strong_lucas_probable_prime(*(a[ok] for a in mont), D[ok])
    return prime.reshape(n.shape)


def _trial_division(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(prime, live) for a block: prime where n is a prime below 2^16, live
    where n >= 2^16 has no prime factor below 256.  Each odd prime is one
    uint64 product and compare per element (``_divisibility``); the
    negative n, whose uint64 view is above 2^63, are masked out first."""
    prime = (n >= 0) & (n < 256)
    prime[prime] = _SMALL_PRIME[n[prime]]
    u = n.view(np.uint64)
    live = (n >= 256) & (n & 1 == 1)
    for inv, bound in _SMALL_TESTS:
        live &= u * inv > bound
    prime |= live & (n < 1 << 16)
    return prime, live & (n >= 1 << 16)


def _sqr_hi(x: np.ndarray) -> np.ndarray:
    """High 64 bits of x*x: as ``numutil.mul_hi``, with the two cross products equal."""
    x0, x1 = x & _LO32, x >> 32
    p01 = x0 * x1
    mid = ((x0 * x0) >> 32) + ((p01 & _LO32) << 1)
    return x1 * x1 + ((p01 >> 32) << 1) + (mid >> 32)


def _redc(hi, lo, n, n_neg_inv):
    """Montgomery reduction (hi*2^64 + lo) / 2^64 mod n, for a product below
    n^2 and odd n < 2^63: with m = lo*n' mod 2^64, lo + (m*n mod 2^64) is 0
    when lo is 0 and 2^64 otherwise, and the quotient is below 2n < 2^64."""
    t = hi + mul_hi(lo * n_neg_inv, n) + (lo != 0)
    return np.minimum(t, t - n)  # t - n wraps above t when t < n


def _mul(x, y, n, n_neg_inv):
    """The Montgomery product x*y/R mod n."""
    return _redc(mul_hi(x, y), x * y, n, n_neg_inv)


def _sqr(x, n, n_neg_inv):
    """The Montgomery square x*x/R mod n."""
    return _redc(_sqr_hi(x), x * x, n, n_neg_inv)


def _add_mod(u, v, n):
    w = u + v  # below 2n < 2^64
    return np.minimum(w, w - n)


def _sub_mod(u, v, n):
    w = u - v
    return np.minimum(w, w + n)  # when u < v, w wraps and w + n wraps back below n


def _split_twos(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, s) with m = d * 2^s and d odd, for nonzero uint64 m <= 2^63."""
    low = m & (0 - m)  # the lowest set bit
    return m // low, np.searchsorted(_POW2, low)


def _strong_probable_prime(n: np.ndarray, n_neg_inv: np.ndarray, one: np.ndarray) -> np.ndarray:
    """True where the odd n (uint64, 2^16 <= n < 2^63) is a strong probable
    prime to base 2, in Montgomery form with R = 2^64: x stands for x*R mod n,
    n_neg_inv is -n^-1 mod 2^64 and one is R mod n.  2*(xR) = (2x)R is one
    modular addition, so the base needs no Montgomery product.
    """
    minus_one = n - one
    d, s = _split_twos(n - 1)
    x = one
    for b in range(int(d.max()).bit_length() - 1, -1, -1):
        x = _sqr(x, n, n_neg_inv)
        x = np.where(d & (1 << b) != 0, _add_mod(x, x, n), x)
    ok = (x == one) | (x == minus_one)
    for i in range(1, int(s.max())):
        x = _sqr(x, n, n_neg_inv)
        ok |= (x == minus_one) & (s > i)
    return ok


def _jacobi(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The Jacobi symbol (a/n) as int64, for uint64 arrays 0 <= a < n < 2^63
    with n odd, by quadratic reciprocity: strip the twos of a, each flipping
    the sign when n = 3 or 5 (mod 8), then swap a and n, flipping it when
    both are 3 (mod 4), and reduce; (0/n) is 1 for n = 1 and 0 otherwise."""
    out = np.zeros(a.size, dtype=np.int64)
    idx, sign = np.arange(a.size), np.ones(a.size, dtype=np.int64)
    while idx.size:
        done = a == 0
        out[idx[done]] = np.where(n[done] == 1, sign[done], 0)
        idx, a, n, sign = idx[~done], a[~done], n[~done], sign[~done]
        a, twos = _split_twos(a)
        r8 = n & 7
        sign[(twos & 1 == 1) & ((r8 == 3) | (r8 == 5))] *= -1
        sign[(a & 3 == 3) & (n & 3 == 3)] *= -1
        a, n = n % a, a
    return out


def _selfridge(n: np.ndarray) -> np.ndarray:
    """Selfridge's D (Method A) for odd uint64 n < 2^63: the first of 5, -7,
    9, -11, 13, ... with Jacobi (D/n) = -1, as int64.  It is 0 where n is
    composite: n is a square, for which every (D/n) is 0 or 1 and the search
    would not end, or (D/n) = 0 comes first, so gcd(D, n) > 1, which shows n
    composite when |D| < n (always so from 2^16 on: the search stops far
    sooner).  The float root of n < 2^63 is within 1e-6 of sqrt(n), so its
    rounding squares back to n exactly when n is a square."""
    D = np.zeros(n.size, dtype=np.int64)
    r = np.rint(np.sqrt(n.astype(np.float64))).astype(np.uint64)
    idx, d = np.flatnonzero(r * r != n), 5
    while idx.size:
        m = n[idx]
        j = _jacobi(np.mod(d, m.astype(np.int64)).astype(np.uint64), m)
        D[idx[j == -1]] = d
        idx, d = idx[j == 1], -d - 2 if d > 0 else 2 - d
    return D


def _strong_lucas_probable_prime(n: np.ndarray, n_neg_inv: np.ndarray, one: np.ndarray, D: np.ndarray) -> np.ndarray:
    """True where the odd n (uint64, n < 2^63) is a strong Lucas probable
    prime with P = 1 and Q = (1 - D)/4, for int64 D with (D/n) = -1: with
    n + 1 = d*2^s and d odd, U_d = 0 or V_(d*2^r) = 0 (mod n) for some
    0 <= r < s.  Montgomery form as in ``_strong_probable_prime``.

    A ladder from the top bit of d keeps (V_k, V_(k+1)) and (Q^k, Q^(k+1)),
    k -> 2k + bit, with V_(2k) = V_k^2 - 2Q^k and V_(2k+1) = V_k*V_(k+1) -
    P*Q^k: four Montgomery products per bit.  U_d is never formed: D*U_d =
    2*V_(d+1) - P*V_d, and gcd(D, n) = 1, so U_d = 0 exactly when 2*V_(d+1) =
    V_d.  Q*R mod n is formed from R mod n by doubling and adding |Q|.
    """
    Q = (1 - D) // 4
    size = np.abs(Q).astype(np.uint64)
    q = np.zeros_like(n)
    for b in range(int(size.max(initial=0)).bit_length() - 1, -1, -1):
        q = _add_mod(q, q, n)
        q = np.where(size & (1 << b) != 0, _add_mod(q, one, n), q)
    q = np.where(Q < 0, _sub_mod(np.zeros_like(n), q, n), q)
    d, s = _split_twos(n + 1)
    v0, v1, q0, q1 = _add_mod(one, one, n), one, one, q  # V_0 = 2, V_1 = P = 1, Q^0, Q^1
    for b in range(int(d.max(initial=0)).bit_length() - 1, -1, -1):
        bit = d & (1 << b) != 0
        odd = _sub_mod(_mul(v0, v1, n, n_neg_inv), q0, n)  # V_(2k+1)
        qb = np.where(bit, q1, q0)  # Q^(k+bit)
        even = _sub_mod(_sqr(np.where(bit, v1, v0), n, n_neg_inv), _add_mod(qb, qb, n), n)  # V_(2k+2bit)
        q_odd, q_even = _mul(q0, q1, n, n_neg_inv), _sqr(qb, n, n_neg_inv)
        v0, v1 = np.where(bit, odd, even), np.where(bit, even, odd)
        q0, q1 = np.where(bit, q_odd, q_even), np.where(bit, q_even, q_odd)
    ok = _add_mod(v1, v1, n) == v0  # U_d = 0
    ok |= v0 == 0
    for r in range(1, int(s.max(initial=0))):
        v0 = _sub_mod(_sqr(v0, n, n_neg_inv), _add_mod(q0, q0, n), n)  # V_(2k) = V_k^2 - 2Q^k
        q0 = _sqr(q0, n, n_neg_inv)
        ok |= (v0 == 0) & (s > r)
    return ok


_TRIAL_PRIMES = _simple_sieve(1 << 10).tolist()  # grown by _trial_primes


def _trial_primes() -> Iterator[int]:
    """The primes 2, 3, 5, ... in order without end, from one module list.
    A caller that walks past its end re-sieves it to twice its largest
    prime, so the list never holds primes beyond twice the largest one a
    caller reached."""
    start = 0
    while True:
        if start == len(_TRIAL_PRIMES):  # another walk may have grown it already
            _TRIAL_PRIMES.extend(_simple_sieve(2 * _TRIAL_PRIMES[-1])[start:].tolist())
        stop = len(_TRIAL_PRIMES)
        yield from itertools.islice(_TRIAL_PRIMES, start, stop)
        start = stop


def factorize(n: int | np.ndarray) -> dict[int, int] | list[dict[int, int]]:
    """Exact factorization: trial division by the primes up to TRIAL_LIMIT,
    then ``is_prime_int`` certification of the cofactor.  Refuses composites
    with two factors above TRIAL_LIMIT (certified mode).

    Trial division stops at the first prime p with p^2 above the cofactor,
    which is then 1 or prime with no test; only a cofactor left when p
    passes the trial limit goes to ``is_prime_int``.

    n is a Python int, or an int64 or object array, for which a list of one
    dict per element, in flat order, is returned (see ``_factorize_array``;
    an object array is split at 2^63 by ``_by_width``).
    """
    if isinstance(n, np.ndarray):
        if n.dtype != object:
            return _factorize_array(n)
        return _by_width(n, _factorize_array, factorize, object).tolist()
    if n < 1:
        raise UsageError("factorize needs n >= 1")
    fac: dict[int, int] = {}
    m = n
    for p in _trial_primes():
        if p * p > m:
            if m > 1:
                fac[m] = 1
            return fac
        if p > TRIAL_LIMIT:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac[p] = e
    if m >= _PSI13:
        raise FactorizationTooHard(f"cofactor {m} beyond Miller-Rabin certification range")
    if not is_prime_int(m):
        raise FactorizationTooHard(f"composite cofactor {m} of {n}")
    fac[m] = 1
    return fac


def _factorize_array(n: np.ndarray) -> list[dict[int, int]]:
    """``factorize`` of every element of an int64 array in one pass: all of
    n, or the part of an object n below 2^63 (see ``_by_width``).

    The powers of 2 come off at the lowest set bit.  The live cofactors are
    then tried against the odd primes up to min(TRIAL_LIMIT, sqrt(max)),
    a block of primes at a time, each test one uint64 product and compare
    (``_divisibility``); the exponent is taken only at a hit, by multiplying
    by p^-1 while p still divides.  After each block a cofactor below the
    square of the next prime is 1 or prime and leaves the live set.  The
    cofactors still live past TRIAL_LIMIT get the array primality test, and
    the first composite one, in flat order, is refused as the scalar path
    refuses it.
    """
    if n.dtype != np.int64:
        raise UsageError(f"factorize takes an int64 or object array, not {n.dtype}")
    flat = n.reshape(-1)
    if flat.size and flat.min() < 1:
        raise UsageError("factorize needs n >= 1")
    facs: list[dict[int, int]] = [{} for _ in range(flat.size)]
    m, twos = _split_twos(flat.astype(np.uint64))
    for i in np.flatnonzero(twos).tolist():
        facs[i][2] = int(twos[i])
    idx = np.arange(flat.size)
    limit = min(TRIAL_LIMIT, math.isqrt(int(m.max(initial=1))))
    odd = _simple_sieve(2 * limit + 3)[1:]  # holds an odd prime above limit (Bertrand)
    top = int(np.searchsorted(odd, limit, side="right"))

    def settle(idx, m, p):
        """Drop the cofactors below p^2, recording those above 1 as primes."""
        keep = m >= p * p
        done = ~keep & (m > 1)
        for i, c in zip(idx[done].tolist(), m[done].tolist()):
            facs[i][c] = 1
        return idx[keep], m[keep]

    idx, m = settle(idx, m, int(odd[0]))
    start = 0
    while idx.size and start < top:
        stop = min(top, start + max(1, _HITS // idx.size))
        ps = odd[start:stop].astype(np.uint64)
        inv, bound = _divisibility(ps)
        r, c = np.nonzero(np.multiply.outer(m, inv) <= bound)
        if r.size:
            x, inv, bound = m[r], inv[c], bound[c]  # one entry per hit
            e = np.zeros(r.size, dtype=np.int64)
            go = np.ones(r.size, dtype=bool)
            while go.any():
                x = np.where(go, x * inv, x)
                e += go
                go = x * inv <= bound
            power = np.ones_like(m)
            np.multiply.at(power, r, m[r] // x)
            m //= power
            for i, p, k in zip(idx[r].tolist(), ps[c].tolist(), e.tolist()):
                facs[i][p] = k
        start = stop
        idx, m = settle(idx, m, int(odd[start]))
    if idx.size:
        prime = is_prime_int(m.astype(np.int64))
        if not prime.all():
            j = int(np.argmin(prime))
            raise FactorizationTooHard(f"composite cofactor {int(m[j])} of {int(flat[idx[j]])}")
        for i, c in zip(idx.tolist(), m.tolist()):
            facs[i][c] = 1
    return facs


def primorial(ell: int) -> int:
    """Product of all primes <= ell (exact integer; 1 below 2)."""
    return math.prod(_simple_sieve(ell).tolist())


def _primorials() -> Iterator[tuple[int, int]]:
    """(p, primorial(p)) for the primes p = 2, 3, 5, ... without end, so
    walking to a primorial >= n takes O(log n) steps."""
    q = 1
    for p in _trial_primes():
        q *= p
        yield p, q
