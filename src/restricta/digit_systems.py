"""Digit-restricted integer sets: membership, exact counting, prime census.

A digit system is a base q >= 2 with an allowed digit set D.  The set A
collects every n >= 0 whose standard base-q expansion uses only digits
from D (the expansion of 0 is empty, so 0 is a member iff 0 is allowed).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import primes as _primes
from .errors import CapExceeded, LimitExceeded, UsageError, parsed

ENUM_CAP = 10**8
ENUM_ROUTE_MAX = 300_000  # census enumerates A(x) up to this size, else sieves
ENUM_ABOVE_SIEVE_MAX = 1 << 22  # above the sieve limit, up to this size: x = 10^21, D = {1, 3} peaks at 343 MB
DIGIT_CAP = 10**7  # digits one system may build: the largest q a dense-digit route accepts
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class DigitSystem:
    """Base q and allowed digit set, with derived density quantities."""

    q: int
    digits: tuple[int, ...]
    _allowed: frozenset = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        if self.q < 2:
            raise UsageError(f"base must be >= 2, got {self.q}")
        ds = tuple(sorted(set(self.digits)))
        if not ds:
            raise UsageError("digit set must be nonempty")
        if ds[0] < 0 or ds[-1] >= self.q:
            raise UsageError(f"digits must lie in [0, {self.q})")
        object.__setattr__(self, "digits", ds)
        object.__setattr__(self, "_allowed", frozenset(ds))

    @classmethod
    def of(cls, q: int, digits) -> "DigitSystem":
        return cls(q, tuple(digits))

    @classmethod
    def excluding(cls, q: int, removed) -> "DigitSystem":
        if q > DIGIT_CAP:  # refused before range(q) is walked
            raise CapExceeded(f"base q above digit cap {DIGIT_CAP}")
        rem = set(removed)
        return cls(q, tuple(d for d in range(q) if d not in rem))

    @classmethod
    def parse(cls, text: str) -> "DigitSystem":
        """Parse the CLI form "q=10,D=0-6.8-9" or "q=10,exclude=7".

        Digit ranges are dot-separated, each "a-b" inclusive or a single
        digit.  Each range is checked before it is expanded: an allowed
        range must lie in [0, q), an excluded one is clipped to it, and
        more than DIGIT_CAP digits in all are refused.
        """
        q = None
        dspec = None
        mode = None
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise UsageError(f"bad digit-system component {part!r}")
            key, val = part.split("=", 1)
            key = key.strip().lower()
            if key == "q":
                q = parsed(int, val, "digit-system base")
            elif key in ("d", "exclude"):
                dspec, mode = val, key
            else:
                raise UsageError(f"unknown digit-system key {key!r}")
        if q is None or dspec is None:
            raise UsageError(f"digit-system spec needs q= and D=/exclude=: {text!r}")
        spans = []
        for rng in dspec.split("."):
            rng = rng.strip()
            if "-" in rng:
                spans.append(tuple(parsed(int, d, "digit range") for d in rng.split("-", 1)))
            else:
                spans.append((parsed(int, rng, "digit"),) * 2)
        if q < 2:
            raise UsageError(f"base must be >= 2, got {q}")
        if mode == "exclude":  # a digit outside [0, q) excludes nothing
            spans = [(max(lo, 0), min(hi, q - 1)) for lo, hi in spans]
        spans = [(lo, hi) for lo, hi in spans if lo <= hi]
        if any(lo < 0 or hi >= q for lo, hi in spans):
            raise UsageError(f"digits must lie in [0, {q})")
        if sum(hi - lo + 1 for lo, hi in spans) > DIGIT_CAP:
            raise CapExceeded(f"digit ranges above digit cap {DIGIT_CAP}")
        chosen = {d for lo, hi in spans for d in range(lo, hi + 1)}
        if mode == "exclude":
            return cls.excluding(q, chosen)
        return cls.of(q, chosen)

    @property
    def coprime_digits(self) -> tuple[int, ...]:
        """D_q: the allowed digits coprime to the base."""
        return tuple(d for d in self.digits if math.gcd(d, self.q) == 1)

    @property
    def alpha(self) -> float:
        """Density exponent: |A(x)| grows like x^alpha."""
        return math.log(len(self.digits)) / math.log(self.q)

    @property
    def size(self) -> int:
        return len(self.digits)

    def missing(self) -> tuple[int, ...]:
        """Digits of [0,q) not in D."""
        return tuple(d for d in range(self.q) if d not in self._allowed)

    def contains(self, n: int) -> bool:
        """Digit predicate on the standard base-q expansion of n >= 0."""
        if n < 0:
            return False
        if n == 0:
            return 0 in self._allowed
        q, allowed = self.q, self._allowed
        while n:
            if n % q not in allowed:
                return False
            n //= q
        return True

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "D": list(self.digits),
            "Dq": list(self.coprime_digits),
            "alpha": self.alpha,
        }


def count_restricted(sys: DigitSystem, x: int) -> int:
    """#{n : 0 <= n <= x, every base-q digit of n lies in D}.

    Standard digit DP over the expansion of x: "free" positions contribute
    |D| choices each, the tight prefix walks digits of x from the top.
    """
    if x < 0:
        raise UsageError("x must be nonnegative")
    xd = []
    t = x
    while t:
        xd.append(t % sys.q)
        t //= sys.q
    xd.reverse()  # most significant first; empty for x = 0
    nd = len(sys.digits)
    lead = [d for d in sys.digits if d > 0]
    count = 1 if x >= 1 and sys.contains(x) else 0
    count += 1 if 0 in sys._allowed else 0  # n = 0
    # members with fewer digits than x (no leading zero)
    for j in range(1, len(xd)):
        count += len(lead) * nd ** (j - 1)
    # members with exactly len(xd) digits, strictly below x: walk the tight prefix
    for i, xi in enumerate(xd):
        allowed = lead if i == 0 else sys.digits
        smaller = sum(1 for d in allowed if d < xi)
        count += smaller * nd ** (len(xd) - 1 - i)
        if xi not in allowed:
            break
    return count


def enumerate_restricted(sys: DigitSystem, x: int) -> np.ndarray:
    """Strictly increasing array of all members of A(x): int64 when
    x < 2^63, else object (Python ints).

    Raises CapExceeded when count_restricted(sys, x) exceeds ENUM_CAP.
    Members are generated length by length: a j-digit member is a
    (j-1)-digit prefix with a nonzero leading digit, extended by any
    allowed digit.  Each length comes out increasing, because the digits
    are sorted and t*q + d < (t+1)*q for every digit d.  The members up to
    2^63 - 1 are built as int64 arrays, one outer product t*q + d per
    length (in uint64, which holds every t*q + d with t*q <= 2^63 - 1);
    the longer ones are extended from their int64 prefixes in Python.
    """
    total = count_restricted(sys, x)
    if total > ENUM_CAP:
        raise CapExceeded(f"|A(x)| = {total} exceeds cap {ENUM_CAP}")
    q, top = sys.q, min(x, _INT64_MAX)
    parts = [np.zeros(1, dtype=np.int64)] if x >= 0 and 0 in sys._allowed else []
    level = np.array([d for d in sys.digits if 0 < d <= top], dtype=np.int64)
    digits = np.array(sys.digits, dtype=np.uint64) if q <= top else None
    while level.size:
        parts.append(level)
        prefixes = level[: np.searchsorted(level, top // q, side="right")]
        if not prefixes.size:
            break
        nxt = np.add.outer(prefixes.astype(np.uint64) * np.uint64(q), digits).ravel()
        level = nxt[: np.searchsorted(nxt, np.uint64(top), side="right")].view(np.int64)
    small = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    if x <= _INT64_MAX:
        return small
    # the members above 2^63 - 1: one-digit ones, then the extensions of
    # the int64 members t with t*q + max(D) above it, then theirs
    seeds = small[np.searchsorted(small, (_INT64_MAX - sys.digits[-1]) // q + 1) :].tolist()
    level = [d for d in sys.digits if _INT64_MAX < d <= x]
    level += [v for t in seeds if t for d in sys.digits if _INT64_MAX < (v := t * q + d) <= x]
    big = []
    while level:
        big.extend(level)
        level = [t * q + d for t in level if t * q <= x for d in sys.digits if t * q + d <= x]
    return np.concatenate((small.astype(object), np.array(big, dtype=object)))


def prediction_constant(sys: DigitSystem) -> Fraction:
    """Heuristic constant in pi_A(x) ~ const * |A(x)|/log x.

    (|D_q|/|D|) / (phi(q)/q): the chance a member is coprime to q,
    renormalised by the same chance for unrestricted integers, with
    phi(q)/q the product of (p - 1)/p over the primes p of q.  Zero when
    no allowed digit is coprime to q.
    """
    dq = len(sys.coprime_digits)
    if dq == 0:
        return Fraction(0)
    coprime_share = math.prod((Fraction(p - 1, p) for p in _primes.factorize(sys.q)), start=Fraction(1))
    return Fraction(dq, sys.size) / coprime_share


@dataclass(frozen=True)
class CensusReport:
    """Exact census of A(x) and its primes against the heuristic prediction."""

    x: int
    count: int
    prime_count: int
    predicted: float
    ratio: float

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "countA": self.count,
            "countPrimesA": self.prime_count,
            "predicted": self.predicted,
            "ratio": self.ratio,
        }


def census(sys: DigitSystem, x: int) -> CensusReport:
    """Count A(x) and its primes exactly; report the prediction ratio.

    Route selection: when |A(x)| <= ENUM_ROUTE_MAX, or when x is above the
    sieve limit and |A(x)| <= ENUM_ABOVE_SIEVE_MAX, enumerate members and
    test them exactly, those below 2^63 in one array call (Baillie-PSW) and
    the rest one by one by deterministic Miller-Rabin (OutOfRange for a
    member at or above psi_13, where no base set is proven); otherwise count with
    ``count_primes_digit_filtered`` over the table of x, which walks only
    the blocks of q^j integers whose leading digits are allowed.  Above the
    sieve limit, a set too large for either route is refused with
    LimitExceeded, naming both caps, before anything is enumerated.
    """
    count = count_restricted(sys, x)
    above = x > _primes.SIEVE_LIMIT
    if above and count > ENUM_ABOVE_SIEVE_MAX:
        raise LimitExceeded(
            f"sieve limit {x} above 2^40 and |A(x)| = {count} above the enumerate cap {ENUM_ABOVE_SIEVE_MAX}"
        )
    if count <= ENUM_ROUTE_MAX or above:
        members = enumerate_restricted(sys, x)
        small = bisect.bisect_left(members, 1 << 63)  # the members that fit in int64
        prime_count = int(np.count_nonzero(_primes.is_prime_int(members[:small].astype(np.int64, copy=False))))
        prime_count += sum(1 for n in members[small:].tolist() if _primes.is_prime_int(n))
    else:
        prime_count = _primes.count_primes_digit_filtered(_primes.sieve_primes(x), sys)
    const = prediction_constant(sys)
    predicted = float(const) * count / math.log(x) if x >= 2 else 0.0
    ratio = prime_count / predicted if predicted > 0 else math.inf
    return CensusReport(x, count, prime_count, predicted, ratio)
