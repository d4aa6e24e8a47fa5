"""Digit-restricted integer sets: membership, exact counting, prime census.

A digit system is a base q >= 2 with an allowed digit set D.  The set A
collects every n >= 0 whose standard base-q expansion uses only digits
from D (the expansion of 0 is empty, so 0 is a member iff 0 is allowed).
``DigitSystem`` owns A's digit layout: its membership test, its j-digit
indicator and its runs of consecutive members are what other modules read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import primes as _primes
from .errors import CapExceeded, LimitExceeded, UsageError, parsed

ENUM_CAP = 10**8
ENUM_ROUTE_MAX = 300_000  # census enumerates A(x) up to this size, else sieves
ENUM_ABOVE_SIEVE_MAX = 1 << 22  # above the sieve limit, up to this size: x = 10^21, D = {1, 3} peaks at 336 MB
DIGIT_CAP = 10**7  # digits one system may build: the largest q a dense-digit route accepts


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
        digit.  q= is given once, and one of D= or exclude= once.  Each
        range is checked before it is expanded: an allowed range must lie
        in [0, q), an excluded one is clipped to it, and more than
        DIGIT_CAP digits in all are refused.
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
            if key == "q" and q is None:
                q = parsed(int, val, "digit-system base")
            elif key in ("d", "exclude") and dspec is None:
                dspec, mode = val, key
            elif key in ("q", "d", "exclude"):
                raise UsageError(f"second {'base' if key == 'q' else 'digit set'} at digit-system key {key!r}")
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

    def indicator(self, j: int, dtype=bool, lead: bool = False) -> np.ndarray:
        """ind[r] for r < q^j: every digit of r written with exactly j digits
        (zero-padded) is allowed, or with ``lead`` every digit of the plain
        expansion of r (the expansion of 0 is empty).  It grows one digit at a
        time as outer products r = r' * q + d, so no integer array is built;
        a float ``dtype`` gives the 0/1 indicator."""
        ind = np.ones(1, dtype=dtype)
        if j:
            allowed = np.zeros(self.q, dtype=dtype)
            allowed[list(self.digits)] = 1
            for _ in range(j):
                ind = np.multiply.outer(ind, allowed).ravel()
                if lead:
                    ind[0] = 1
        return ind

    def runs(self, m: int) -> np.ndarray:
        """The maximal half-open runs [lo, hi) of consecutive integers in
        {0} and A(m), increasing, as the rows of a (k, 2) array: a member
        t*q + d has a prefix t in {0} and A(m // q) and an allowed digit d,
        so one outer sum of the prefixes times q and the spans of allowed
        digits, clipped at m + 1, gives them, merged where they touch.
        Python ints when m + q passes int64."""
        t = enumerate_restricted(self, m // self.q).astype(np.int64 if m + self.q < 1 << 63 else object, copy=False)
        d = np.array(self.digits, dtype=t.dtype)
        gap = np.flatnonzero(np.diff(d) != 1)
        spans = np.stack((d[np.r_[0, gap + 1]], d[np.r_[gap, -1]] + 1))  # [start, end) of each span
        base = np.concatenate(([0], t[t > 0]))[:, None] * self.q
        lo, hi = (base + spans[0]).ravel(), np.minimum(base + spans[1], m + 1).ravel()
        keep = lo < hi
        lo, hi = np.concatenate(([0], lo[keep])), np.concatenate(([1], hi[keep]))
        cut = lo[1:] > hi[:-1]  # lo and hi never decrease: a run ends where the next starts past it
        return np.stack((lo[np.r_[True, cut]], hi[np.r_[cut, True]]), axis=1)

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
    allowed digit, one outer product t*q + d per length.  Each length comes
    out increasing, because the digits are sorted and t*q + d < (t+1)*q for
    every digit d.  Below 2^63 the products are uint64, which holds every
    t*q + d with t*q <= x and d <= x, viewed as int64 at the end.
    """
    total = count_restricted(sys, x)
    if total > ENUM_CAP:
        raise CapExceeded(f"|A(x)| = {total} exceeds cap {ENUM_CAP}")
    dtype = np.uint64 if x < 1 << 63 else object
    digits = np.array([d for d in sys.digits if d <= x], dtype=dtype)
    parts, level = [digits[digits == 0]], digits[digits > 0]  # 0, then the one-digit members
    key = digits.dtype.type  # a Python-int key would make searchsorted compare uint64 as float64
    while level.size:
        parts.append(level)
        prefixes = level[: np.searchsorted(level, key(x // sys.q), side="right")]
        if not prefixes.size:
            break
        nxt = np.add.outer(prefixes * sys.q, digits).ravel()
        level = nxt[: np.searchsorted(nxt, key(x), side="right")]
    members = np.concatenate(parts)
    return members.view(np.int64) if dtype is np.uint64 else members


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
    test them exactly in one ``is_prime_int`` call (OutOfRange for the first
    member at or above psi_13, where no base set is proven); otherwise count with
    ``count_primes_digit_filtered`` over the table of x, which walks only
    the blocks of q^j integers whose leading digits are allowed (``runs``,
    from prefixes below x / 2^21 <= 2^19) through ``indicator``.  Above the
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
        prime_count = int(np.count_nonzero(_primes.is_prime_int(enumerate_restricted(sys, x))))
    else:
        prime_count = _primes.count_primes_digit_filtered(_primes.sieve_primes(x), sys)
    const = prediction_constant(sys)
    predicted = float(const) * count / math.log(x) if x >= 2 else 0.0
    ratio = prime_count / predicted if predicted > 0 else math.inf
    return CensusReport(x, count, prime_count, predicted, ratio)
