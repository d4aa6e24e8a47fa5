"""Metric Diophantine approximation with exact interval arithmetic.

Approximation events E_q (all fractions a/q) and E*_q (reduced fractions)
are finite unions of closed intervals with rational endpoints, so their
measures, unions and pairwise overlaps are computed exactly.  Each event
is an ``IntervalUnion``, integer numerators over one denominator merged in
one vectorised pass; a union's measure and the overlaps of two events or
of many come from one sweep over their ends, sorted by correctly rounded
float keys with exact order restored where keys tie, and summed as
integers over the lcm of the denominators.  Series
classification, the non-monotone counterexample built on primorials and
the second-moment selection of truncation ranges round out the toolkit.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, NotReached, Unsupported, UsageError, parsed
from .numutil import SUM_CHUNK
from .primes import _primorials, _simple_sieve, _trial_primes, factorize, phi_sieve, primorial

INTERVAL_CAP = 10**7
HELD_INTERVAL_CAP = 2 * 10**6  # intervals held at once: about 65 B each at the sweep's peak, 160 B as Python ints
PAIR_RANGE_CAP = 2000
THETA_SIEVE_CAP = 10**7  # largest ell whose theta(ell) ds_spread sieves
POWER_BITS_CAP = 1 << 16  # bits of the largest n^a an exact power value forms
CONTAINMENT_RTOL = 1e-12  # float families: psi and psi0 widths agree to ~4e-15


# ------------------------------------------------------------ psi families


def _finite(v, what: str) -> float:
    """v as a float, or a UsageError when no finite float holds it."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise UsageError(f"{what} is not a finite float")
    return f


@dataclass(frozen=True)
class PsiFunction:
    """An approximation function psi: n >= 1 -> nonnegative reals.

    Families: power(a) for n^-a; constant(c); khinchin_threshold(eps) for
    1/(log n)^(1+eps); ds_base and ds_spread for the primorial-supported
    pair behind the non-monotone counterexample; table for explicit values
    (zero off-table).
    """

    family: str
    a: float = 0.0
    c: Fraction = Fraction(0)
    eps: float = 0.0
    table: tuple[tuple[int, Fraction], ...] = field(default=())

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, a) -> "PsiFunction":
        a = _finite(a, "power exponent")
        if a <= 0:
            raise UsageError("power family needs a > 0")
        return cls("power", a=a)

    @classmethod
    def constant(cls, c) -> "PsiFunction":
        c = Fraction(c)
        if _finite(c, "constant") < 0:
            raise UsageError("constant must be >= 0")
        return cls("constant", c=c)

    @classmethod
    def khinchin_threshold(cls, eps: float) -> "PsiFunction":
        if not math.isfinite(eps):
            raise UsageError(f"khinchin family needs a finite eps, got {eps}")
        return cls("khinchin", eps=float(eps))

    @classmethod
    def ds_base(cls) -> "PsiFunction":
        return cls("ds_base")

    @classmethod
    def ds_spread(cls) -> "PsiFunction":
        return cls("ds_spread")

    @classmethod
    def from_pairs(cls, pairs) -> "PsiFunction":
        """psi(n) = v for each pair (n, v), each n >= 1 at most once and each
        v >= 0 a finite float; zero off the table."""
        tab = tuple(sorted((int(n), Fraction(v)) for n, v in pairs))
        for n, v in tab:
            _finite(v, f"psi table value at n = {n}")
        if tab and tab[0][0] < 1:
            raise UsageError(f"psi table needs n >= 1, got {tab[0][0]}")
        if any(v < 0 for _, v in tab):
            raise UsageError("psi table values must be >= 0")
        for (m, _), (n, _) in zip(tab, tab[1:]):
            if m == n:
                raise UsageError(f"psi table gives n = {n} twice")
        return cls("table", table=tab)

    @classmethod
    def from_csv(cls, path: str) -> "PsiFunction":
        """CSV rows n,psi; missing n means psi(n) = 0."""
        pairs = []
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise UsageError(f"cannot read psi table {path!r}: {exc.strerror}") from None
        for row in rows:
            if not row or row[0].strip().lower() in ("n", ""):
                continue
            if len(row) < 2:
                raise UsageError(f"psi table row {row!r} needs n,psi")
            pairs.append((parsed(int, row[0], "psi table n"), parsed(Fraction, row[1], "psi table value")))
        return cls.from_pairs(pairs)

    @classmethod
    def parse(cls, text: str) -> "PsiFunction":
        """CLI form: family[:params] or a CSV path."""
        if ":" in text:
            fam, arg = text.split(":", 1)
        else:
            fam, arg = text, ""
        fam = fam.strip().lower()
        if fam == "power":
            return cls.power(parsed(Fraction, arg, "power exponent"))
        if fam == "constant":
            return cls.constant(parsed(Fraction, arg, "constant"))
        if fam in ("khinchin", "khinchin_threshold"):
            return cls.khinchin_threshold(parsed(float, arg, "khinchin eps") if arg else 0.0)
        if fam in ("ds_base", "ds_spread"):
            if arg:
                raise UsageError(f"psi family {fam} takes no parameter, got {arg!r}")
            return cls(fam)
        if fam == "table":
            return cls.from_csv(arg)
        if text.endswith(".csv"):
            return cls.from_csv(text)
        raise UsageError(f"unknown psi family {text!r}")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, n: int) -> float:
        return float(self.exact(n))

    def exact(self, n: int) -> Fraction:
        """Exact rational value where the family allows; otherwise the exact
        binary rational of the float value (deterministic).  For a
        non-integer power, khinchin and ds_base that float is ``values(n,
        n)[0]``, the one expression the series sums too, since numpy and libm
        may round pow and log differently.  An integer power n^a is a true
        rational, within an ulp of the float in ``values``; one of more than
        about POWER_BITS_CAP bits (a*log2(n) above it) is refused with
        CapExceeded before it is formed.  ds_spread is not factorized: n is
        divided by the primes in order until it is used up, and is 0 at a
        repeated prime or at the first prime whose theta passes
        ``_spread_limit(n)``, so a large prime factor is never reached."""
        if n < 1:
            raise UsageError("psi is defined for n >= 1")
        if self.family == "power" and float(self.a).is_integer():
            if self.a * math.log2(n) > POWER_BITS_CAP:
                raise CapExceeded(f"{n}^{self.a:g} above {POWER_BITS_CAP} bits")
            return Fraction(1, n ** int(self.a))
        if self.family == "constant":
            return self.c
        if self.family == "table":
            return next((v for _, v in self._table_in(n, n)), Fraction(0))
        try:
            if self.family == "ds_spread":
                ell, rest, limit = None, n, _spread_limit(n)
                for p in _trial_primes():
                    if rest == 1:
                        break
                    if _log_primorial(p) > limit:
                        return Fraction(0)  # rest has a prime >= p, where exp underflows
                    if rest % p == 0:
                        rest //= p
                        if rest % p == 0:
                            return Fraction(0)  # p^2 | n: rest keeps p and never reaches 1
                        ell = p
                if ell is None:
                    return Fraction(0)
                # n^2/(primorial(ell) * ell * log ell), via logs to dodge overflow
                log_val = 2.0 * math.log(n) - _log_primorial(ell) - math.log(ell * math.log(ell))
                v = math.exp(log_val) if log_val > -745.0 else 0.0
            else:
                v = float(self.values(n, n)[0])
        except OverflowError:  # n, or a float psi(n), past the largest float
            raise CapExceeded(f"psi(n) at n of {n.bit_length()} bits is past the float range") from None
        return Fraction(v) if v > 0 else Fraction(0)

    def values(self, upto: int, lo: int = 1) -> np.ndarray:
        """psi(lo..upto) as a float array (vectorised per family), each
        value the one the whole range 1..upto gives at that n.  Only power
        and khinchin form the float array of n, so ds_base is 0 off the
        primorials at any n."""
        if lo < 1:
            raise UsageError("psi is defined for n >= 1")
        size = max(upto - lo + 1, 0)
        if self.family == "power":
            return np.arange(lo, upto + 1, dtype=np.float64) ** (-self.a)
        if self.family == "constant":
            return np.full(size, float(self.c))
        if self.family == "khinchin":
            out, two = np.zeros(size), max(2 - lo, 0)  # psi(1) = 0
            with np.errstate(over="ignore", divide="ignore"):
                out[two:] = 1.0 / np.log(np.arange(lo + two, upto + 1, dtype=np.float64)) ** (1.0 + self.eps)
            if not math.isfinite(out.max(initial=0.0)):  # a nan or inf is the max of values >= 0
                raise CapExceeded(f"khinchin psi on [{lo}, {upto}] is past the float range")
            return out
        if self.family == "table":
            out = np.zeros(size)
            for m, v in self._table_in(lo, upto):
                out[m - lo] = float(v)
            return out
        if self.family == "ds_base":
            out = np.zeros(size)
            for ell, qell in itertools.takewhile(lambda pair: pair[1] <= upto, _primorials()):
                if qell >= lo:
                    out[qell - lo] = qell / (ell * math.log(ell))
            return out
        if self.family == "ds_spread":
            return _ds_spread_values(upto, lo)
        raise UsageError(f"unknown family {self.family}")

    def _table_in(self, lo: int, upto: int):
        """The table's (n, v) pairs with lo <= n <= upto ((n,) sorts before (n, v))."""
        return self.table[bisect.bisect_left(self.table, (lo,)) : bisect.bisect_left(self.table, (upto + 1,))]

    def support(self, upto: int, lo: int = 1) -> np.ndarray:
        """Where psi(lo..upto) is exactly positive, as a mask.  ``values`` is
        0 exactly where ``exact`` is, except at a positive rational below
        the smallest float, which an integer power (never 0), a constant or
        a table entry can be: those families are read exactly instead."""
        size = max(upto - lo + 1, 0)
        if self.family == "power" and float(self.a).is_integer():
            return np.ones(size, dtype=bool)
        if self.family == "constant":
            return np.full(size, self.c > 0)
        if self.family == "table":
            mask = np.zeros(size, dtype=bool)
            mask[[m - lo for m, v in self._table_in(lo, upto) if v > 0]] = True
            return mask
        return self.values(upto, lo) > 0


@functools.lru_cache(maxsize=1 << 16)
def _log_primorial(ell: int) -> float:
    """theta(ell) = sum of log p over the primes p <= ell, sieved up to
    ell; refused above THETA_SIEVE_CAP."""
    if ell > THETA_SIEVE_CAP:
        raise CapExceeded(f"theta({ell}) needs a sieve above {THETA_SIEVE_CAP}")
    return math.fsum(math.log(p) for p in _simple_sieve(ell).tolist())


def _spread_limit(n: int) -> float:
    """The one support bound of ds_spread at n: a prime ell of n with
    theta(ell) above 2 log n + 746 puts log psi(n) below -746, where exp
    underflows to 0, so only the primes up to this theta are ever tried."""
    return 2.0 * math.log(max(n, 1)) + 746.0


def _ds_spread_values(upto: int, lo: int = 1) -> np.ndarray:
    """Vectorised ds_spread over lo..upto by the rule of ``PsiFunction.exact``.
    Each prime ell with theta(ell) <= ``_spread_limit(upto)`` is divided once
    out of its multiples in the window, ascending, and written as their
    largest prime so far: the support is the n >= 2 left at 1 (squarefree,
    every prime within the limit), and the last ell written at n is its
    largest prime.  A prime whose theta lies between ``_spread_limit(n)``
    and the window's limit puts log psi(n) below -746, so psi(n) is 0 for
    every top and each value is the one ``exact`` gives.  The q^2/primorial
    ratio is computed in logs, with theta(ell) from ``_log_primorial`` and
    libm's log and exp, as ``exact`` takes them."""
    limit = _spread_limit(upto)
    ells = list(itertools.takewhile(lambda p: p <= upto and _log_primorial(p) <= limit, _trial_primes()))
    rest = np.arange(lo, upto + 1, dtype=np.int32)  # every caller caps upto at 10^7
    largest = np.zeros(len(rest), dtype=np.int16)  # theta(ell) <= limit keeps ell far below 2^15
    for p in ells:
        rest[-lo % p :: p] //= p
        largest[-lo % p :: p] = p
    top = ells[-1] if ells else 0
    theta, tail = np.zeros(top + 1), np.zeros(top + 1)  # per ell, the two terms log_val subtracts
    theta[ells] = [_log_primorial(p) for p in ells]
    tail[ells] = [math.log(p * math.log(p)) for p in ells]
    at = np.flatnonzero((rest == 1) & (largest > 0))  # n = 1 has no prime
    ms, ms_ell = at + lo, largest[at]
    del rest, largest  # freed before the float output is allocated
    out = np.zeros(max(upto - lo + 1, 0))
    step = 1 << 14  # the float lists of math.log and math.exp hold one chunk at a time
    for i in range(0, len(ms), step):
        chunk, ell = ms[i : i + step], ms_ell[i : i + step]
        # libm's log and exp, not np.log and np.exp, which differ from them in the last bits
        log_val = 2.0 * np.fromiter(map(math.log, chunk.tolist()), np.float64, len(chunk)) - theta[ell] - tail[ell]
        vals = np.fromiter(map(math.exp, log_val.tolist()), np.float64, len(chunk))
        out[chunk - lo] = np.where(log_val > -745.0, vals, 0.0)
    return out


# ------------------------------------------------------ interval unions


class IntervalUnion:
    """Finite disjoint union of closed subintervals of [0,1] with exact
    rational endpoints; touching intervals merge on normalisation.

    ``IntervalUnion(den, pairs)`` reads each integer pair (lo, hi) as
    [lo/den, hi/den] and holds the sorted, merged pairs over the one
    denominator ``den`` as ``ends``, the (n, 2) array ``_normalize`` returns,
    so no gcd is taken inside a merge.  Measures read the arrays (``_width``,
    ``_sweep``); ``intersect`` and ``_scaled`` merge in Python ints, the
    reference the tests hold the sweep against.
    """

    __slots__ = ("den", "ends")

    def __init__(self, den: int, pairs=()):
        self.den, self.ends = den, IntervalUnion._normalize(pairs)

    @staticmethod
    def _normalize(pairs) -> np.ndarray:
        """The merged pairs as an (n, 2) array sorted by lo: pairs with
        hi <= lo carry no measure and go, and after a sort by lo a pair
        starts a new interval only where its lo passes the running maximum
        of the earlier his, so touching intervals merge.  An array keeps its
        dtype (int64, or Python ints in an object array); other pairs
        become an object array."""
        if not isinstance(pairs, np.ndarray):
            pairs = np.array(list(pairs), dtype=object).reshape(-1, 2)
        keep = pairs[:, 1] > pairs[:, 0]
        lo, hi = pairs[keep, 0], pairs[keep, 1]
        order = lo.argsort(kind="stable")
        lo, reach = lo[order], np.maximum.accumulate(hi[order])
        new = np.ones(len(lo), dtype=bool)
        new[1:] = lo[1:] > reach[:-1]
        last = np.ones(len(lo), dtype=bool)  # the pair before each new start ends an interval
        last[:-1] = new[1:]
        return np.stack((lo[new], reach[last]), axis=1)

    def _scaled(self, den: int):
        """The ends as numerators over den, a multiple of self.den, one pair at a time."""
        k = den // self.den
        return ((lo * k, hi * k) for lo, hi in self.ends.tolist())

    @property
    def measure(self) -> Fraction:
        return Fraction(_width(self.ends), self.den)

    def __len__(self) -> int:
        return len(self.ends)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        den = math.lcm(self.den, other.den)
        a, b = list(self._scaled(den)), list(other._scaled(den))
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (alo, ahi), (blo, bhi) = a[i], b[j]
            lo, hi = (alo if alo > blo else blo), (ahi if ahi < bhi else bhi)
            if hi > lo:
                out.append((lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return IntervalUnion(den, out)

    def endpoints_float(self) -> np.ndarray:
        """Flat endpoint array for fast membership sweeps (int / int is
        correctly rounded, as float(Fraction) is)."""
        return np.array([x / self.den for x in self.ends.ravel().tolist()])


# ------------------------------------------------------------- operations


def _event_pairs(q: int, psi: PsiFunction, reduced: bool = True):
    """(den, pairs): the candidate intervals of event q as an (n, 2) array
    of numerators over den = lcm(q, den(psi(q)/q^2)), one row
    [a/q - psi(q)/q^2, a/q + psi(q)/q^2] clipped to [0, 1] per admissible
    a in {0..q} (where reduced, the a left when the multiples of each prime
    of q are struck out), unmerged.  The half-width is clipped to den first, which
    changes no clipped interval and keeps every numerator below 2 den: the
    numerators are int64 when den < 2^53, where a float division of one by
    den is correctly rounded, and Python ints in an object array otherwise."""
    if q < 1:
        raise UsageError("need q >= 1")
    if q >= INTERVAL_CAP:
        raise CapExceeded(f"q + 1 candidate intervals above cap {INTERVAL_CAP}")
    delta = psi.exact(q) / (q * q)
    if delta <= 0:
        return 1, np.zeros((0, 2), dtype=np.int64)
    den = math.lcm(q, delta.denominator)
    step, half = den // q, min(delta.numerator * (den // delta.denominator), den)
    a = np.arange(q + 1)
    if reduced:
        prime_to_q = np.ones(q + 1, dtype=bool)
        for p in factorize(q):
            prime_to_q[::p] = False
        a = a[prime_to_q]
    centre = a * step if den < 1 << 53 else a.astype(object) * step
    return den, np.stack((np.maximum(centre - half, 0), np.minimum(centre + half, den)), axis=1)


def event_union(q: int, psi: PsiFunction, reduced: bool = True) -> IntervalUnion:
    """The approximation event at denominator q: the union over admissible
    a in {0..q} of [a/q - psi(q)/q^2, a/q + psi(q)/q^2] clipped to [0,1].

    reduced restricts to gcd(a, q) = 1 (which admits a = 0 and a = q only
    for q = 1, matching the reduced-fraction convention).  Every event, one
    or held, is built here: ``_event_pairs`` merged by ``_normalize``."""
    return IntervalUnion(*_event_pairs(q, psi, reduced))


def _prefixes(lo: int, hi: int):
    """Yield (lo, top) windows covering [lo, hi], top doubling from
    max(lo, 2^16): a pass that reads psi over each window reads it only up
    to about twice the last q it needs, not up to hi.  Refused for lo < 1."""
    if lo < 1 and lo <= hi:
        raise UsageError("need q >= 1")
    top = max(lo, 1 << 16)
    while lo <= hi:
        top = min(top, hi)
        yield lo, top
        lo, top = top + 1, 2 * top


def _events(psi: PsiFunction, Q: int, R: int, reduced: bool, cap: int):
    """Yield (q, ``event_union(q, psi, reduced)``) for the q in [Q, R) with
    psi(q) > 0 (the others are empty), read off ``psi.support`` over each
    ``_prefixes`` window.  Refused once the intervals built so far pass cap:
    HELD_INTERVAL_CAP for a caller that holds every event, INTERVAL_CAP for
    one that holds one at a time.  A window past INTERVAL_CAP is refused
    there, as ``_event_pairs`` refuses any q at the cap."""
    count = 0
    for lo, top in _prefixes(Q, min(R, INTERVAL_CAP) - 1):
        for q in (np.flatnonzero(psi.support(top, lo)) + lo).tolist():
            ev = event_union(q, psi, reduced)
            count += len(ev)
            if count > cap:
                raise CapExceeded(f"interval count above {cap}")
            yield q, ev
    if max(Q, INTERVAL_CAP) < R:
        raise CapExceeded(f"q + 1 candidate intervals above cap {INTERVAL_CAP}")


def _held_events(psi: PsiFunction, Q: int, R: int, reduced: bool) -> list[IntervalUnion]:
    """Every event of q in [Q, R), held at once, refused past
    HELD_INTERVAL_CAP intervals before any is built where a lower bound
    tells: where 0 < psi(q) < q/2 the intervals a/q +- psi(q)/q^2 are
    disjoint and none is empty, so event q holds q + 1 of them, or at least
    phi(q) reduced ones.  ``values`` is the float of ``exact`` (an integer
    power's within an ulp, never near q/2) and q/2 is a float, so the float
    test is the exact one.  The bound is counted window by window over
    ``_prefixes``, psi and phi read over [lo, top] alone, so a refusal
    costs about the psi and phi of the q where the count passes the cap,
    not of R.  ``_events`` still counts what it builds, where merging
    lowers the count."""
    held = 0
    for lo, top in _prefixes(Q, min(R, INTERVAL_CAP) - 1):
        vals = psi.values(top, lo)
        phi = phi_sieve(top, lo) if reduced else None
        for start in range(0, top - lo + 1, SUM_CHUNK):
            q = np.arange(lo + start, min(lo + start + SUM_CHUNK, top + 1))
            v = vals[start : start + SUM_CHUNK]
            held += int((phi[start : start + SUM_CHUNK] if reduced else q + 1)[(v > 0) & (v < q / 2)].sum())
            if held > HELD_INTERVAL_CAP:
                raise CapExceeded(f"interval count above {HELD_INTERVAL_CAP}")
    return [ev for _, ev in _events(psi, Q, R, reduced, HELD_INTERVAL_CAP)]


def _over_lcm(terms) -> Fraction:
    """The sum of num/den over the (den, num) terms, taken once over the lcm of the dens."""
    den = math.lcm(*(d for d, _ in terms))
    return Fraction(sum(num * (den // d) for d, num in terms), den)


def _width(ends: np.ndarray) -> int:
    """The summed lengths of an event's merged ends, as a numerator over its den."""
    return int((ends[:, 1] - ends[:, 0]).sum())


def _exact_ties(order: np.ndarray, keys: np.ndarray, flat: list, starts: np.ndarray) -> None:
    """Put each run of equal keys (keys in sorted order) whose ends are
    distinct rationals in exact order, in place; flat[k] is event k as
    (den, its ends flattened) and starts[k] the sort index of its first end."""
    tie = np.flatnonzero(keys[1:] == keys[:-1])  # keys[t] == keys[t + 1]
    if not len(tie):
        return
    for t in np.split(tie, np.flatnonzero(np.diff(tie) > 1) + 1):
        i, j = int(t[0]), int(t[-1]) + 2  # keys[i:j] are equal
        run = order[i:j].tolist()
        ev = (np.searchsorted(starts, run, side="right") - 1).tolist()
        vals = [Fraction(int(flat[e][1][k - starts[e]]), flat[e][0]) for k, e in zip(run, ev)]
        if min(vals) != max(vals):
            order[i:j] = [k for _, k in sorted(zip(vals, run))]


def _pairs_over(depth: np.ndarray) -> np.ndarray:  # C(depth, 2): the sweep weight of overlaps
    return depth * (depth - 1) // 2


def _sweep(events, weight) -> Fraction:
    """The integral over [0, 1] of weight(depth), where depth(x) counts the
    ``IntervalUnion`` events that cover x, each merged by ``_normalize`` so
    that it counts once: weight [d >= 1] gives the measure of their union,
    C(d, 2) the sum of mu(E_q cap E_r) over unordered pairs q != r.

    Each end x is keyed by its correctly rounded float, x / den: a float64
    division of int64 numerators under den < 2^53, Python's int / int for
    the object arrays.  Rounding is monotone, x < y gives key(x) <= key(y),
    so a stable argsort by key puts the ends in exact order except inside
    runs of equal keys.  Equal ends need no tie rule, since the segment
    between them has length 0; a run that holds distinct rationals is
    reordered by exact comparison (``_exact_ties``).  depth is the cumsum
    of +1 at each start and -1 at each end, and
    sum_i w_i (x_{i+1} - x_i) telescopes to sum_i (w_{i-1} - w_i) x_i with
    w_{-1} = 0, so each end takes an integer coefficient c.  Event q adds
    sum c num / den_q: in int64 where den_q sum |c| < 2^63 bounds every
    partial sum (every num is at most den_q), in Python ints otherwise.
    The events' terms are summed once over the lcm of their dens."""
    flat = [(ev.den, ev.ends.ravel()) for ev in events if len(ev)]
    if not flat:
        return Fraction(0)
    starts = np.cumsum([0] + [len(x) for _, x in flat])
    keys = np.empty(starts[-1])
    for (den, x), a, b in zip(flat, starts, starts[1:]):
        keys[a:b] = x / den
    order = keys.argsort(kind="stable")
    _exact_ties(order, keys[order], flat, starts)
    del keys
    step = np.tile(np.array([1, -1], dtype=np.int8), len(order) // 2)  # each event's ends alternate lo, hi
    depth = np.cumsum(step[order], dtype=np.int32)
    del step
    w = weight(depth)
    del depth
    coef = np.empty(len(order), dtype=np.int64)
    coef[order[0]], coef[order[1:]] = -w[0], w[:-1] - w[1:]
    del order, w
    abs_sums = np.add.reduceat(np.abs(coef), starts[:-1]).tolist()
    terms = []
    for (den, x), a, b, abs_sum in zip(flat, starts, starts[1:], abs_sums):
        c = coef[a:b]
        if x.dtype != object and den * abs_sum < 1 << 63:  # every partial sum of c x is at most den sum |c|
            terms.append((den, int(c @ x)))
        else:
            terms.append((den, sum(map(operator.mul, c.tolist(), x.tolist()))))
    return _over_lcm(terms)


def truncated_limsup_measure(
    psi: PsiFunction, Q: int, R: int, reduced: bool = True
) -> Fraction:
    """Exact measure of the union of events over q in [Q, R)."""
    if Q > R:
        raise UsageError("need Q <= R")
    return _sweep(_held_events(psi, Q, R, reduced), lambda depth: (depth > 0).astype(np.int8))


def select_R(psi: PsiFunction, Q: int, cap: int = 10**6) -> int:
    """Minimal R with sum_{Q<=q<R} mu(E*_q) >= 1 (exact event measures),
    refused once the events' intervals pass INTERVAL_CAP."""
    total = Fraction(0)
    for q, ev in _events(psi, Q, cap + 1, True, INTERVAL_CAP):
        total += ev.measure
        if total >= 1:
            return q + 1
    raise NotReached(f"target not reached by cap {cap}")


def pair_overlap(q: int, r: int, psi: PsiFunction) -> tuple[Fraction, float]:
    """Exact mu(E*_q intersect E*_r) and the sieve-style reference bound
    mu(E*_q) mu(E*_r) exp(sum_{p | qr/(q,r)^2, p > Delta*q*r} 1/p) with
    Delta = max(psi(q)/q^2, psi(r)/r^2).  The reference carries constant 1
    and is not certified.  The exact overlap is one ``_sweep`` of C(d, 2)."""
    if q == r:
        raise UsageError("need q != r")
    eq = event_union(q, psi, reduced=True)
    er = event_union(r, psi, reduced=True)
    exact = _sweep([eq, er], _pairs_over)
    mu_q, mu_r = float(eq.measure), float(er.measure)
    if mu_q == 0.0 or mu_r == 0.0:
        return exact, 0.0
    g = math.gcd(q, r)
    core = (q // g) * (r // g)
    delta = max(psi(q) / q**2, psi(r) / r**2)
    tail = 0.0
    for p in factorize(core):
        if p > delta * q * r:
            tail += 1.0 / p
    return exact, mu_q * mu_r * math.exp(tail)


def quasi_independence_ratio(psi: PsiFunction, Q: int, R: int) -> float:
    """sum_{Q<=q!=r<R} mu(E*_q cap E*_r) / (sum_{Q<=q<R} mu(E*_q))^2.

    Values below 10^6 are consistent with the on-average quasi-independence
    mechanism; purely diagnostic.  The overlap sum over unordered pairs is
    the integral of C(depth, 2), read off one ``_sweep`` of every event's
    ends.
    """
    if Q > R:
        raise UsageError("need Q <= R")
    if R - Q > PAIR_RANGE_CAP:
        raise CapExceeded(f"pair range {R - Q} above cap {PAIR_RANGE_CAP}")
    events = _held_events(psi, Q, R, True)
    total = _over_lcm([(ev.den, _width(ev.ends)) for ev in events])
    if total == 0:
        return 0.0
    lhs = 2 * _sweep(events, _pairs_over)  # ordered pairs
    return float(lhs) / float(total) ** 2


def golden_gap(n: int) -> float:
    """sqrt(5) * F_n^2 * |phi - F_{n+1}/F_n|; tends to 1."""
    if not 2 <= n <= 80:
        raise UsageError("need 2 <= n <= 80")
    fib = [0, 1]
    for _ in range(n + 1):
        fib.append(fib[-1] + fib[-2])
    prec = 10**60
    sqrt5 = Fraction(math.isqrt(5 * prec * prec), prec)
    phi = (1 + sqrt5) / 2
    val = sqrt5 * fib[n] ** 2 * abs(phi - Fraction(fib[n + 1], fib[n]))
    return float(val)


def series_partial(psi: PsiFunction, Q: int) -> tuple[float, float]:
    """Partial sums to Q of psi(n)/n (Khinchin series) and of
    phi(n)*psi(n)/n^2 (reduced-fraction series), walking n one SUM_CHUNK
    window at a time: psi and phi are read over each window alone, phi from
    one list of the primes up to Q, so no Q-long array is formed, and each
    window's sum is the float ``fsum_chunks`` gives on the whole array of
    terms."""
    if Q < 1:
        raise UsageError("need Q >= 1")
    if Q > 10**7:
        raise CapExceeded("series range above 10^7")
    primes = _simple_sieve(Q)
    khinchin, ds = [], []
    for lo in range(1, Q + 1, SUM_CHUNK):
        top = min(lo + SUM_CHUNK - 1, Q)
        v, p = psi.values(top, lo), phi_sieve(top, lo, primes)
        n = np.arange(lo, top + 1, dtype=np.float64)
        khinchin.append(float((v / n).sum()))
        ds.append(float((v * p / n**2).sum()))
    return math.fsum(khinchin), math.fsum(ds)


@dataclass(frozen=True)
class DsCounterexampleReport:
    """Primorial-supported psi pair: the base series converges, the spread
    series inherits a Mertens factor and diverges, yet the spread events
    are contained in the base events."""

    base_series: float
    spread_series: float
    spread_series_half: float
    containments_verified: int
    containment_ok: bool

    @property
    def still_growing(self) -> bool:
        return self.spread_series > self.spread_series_half

    def to_json(self) -> dict:
        return {
            "baseSeries": self.base_series,
            "spreadSeries": self.spread_series,
            "spreadSeriesHalf": self.spread_series_half,
            "containmentsVerified": self.containments_verified,
            "containmentOk": self.containment_ok,
            "stillGrowing": self.still_growing,
        }


def ds_counterexample(ell_max: int) -> DsCounterexampleReport:
    """Build the primorial psi pair and verify its mechanism.

    Series are summed over primes ell <= ell_max in the closed form
    sum 1/(ell log ell) and sum (1/(ell log ell)) * prod_{p<ell}(1 + 1/p);
    the containment of spread events in base events is checked for
    ell <= 47 on the half-widths only, psi(q)/q^2 against
    psi0(q_ell)/q_ell^2 to a relative CONTAINMENT_RTOL: every sampled q
    divides q_ell, so a/q is (a*q_ell/q)/q_ell and the centres agree.
    """
    if ell_max < 3:
        raise UsageError("need ell_max >= 3")
    if ell_max > THETA_SIEVE_CAP:
        raise CapExceeded(f"ell_max above sieve cap {THETA_SIEVE_CAP}")
    primes = _simple_sieve(ell_max).tolist()
    base_terms = [1.0 / (p * math.log(p)) for p in primes]
    mertens = []
    prod = 1.0
    for p in primes:
        mertens.append(prod)  # prod_{p' < p} (1 + 1/p')
        prod *= 1.0 + 1.0 / p
    spread_terms = [b * m for b, m in zip(base_terms, mertens)]
    half = ell_max // 2
    spread_half = math.fsum(t for p, t in zip(primes, spread_terms) if p <= half)
    psi0 = PsiFunction.ds_base()
    psi = PsiFunction.ds_spread()
    # containment: for squarefree q with largest prime ell, the window around
    # a/q equals the window around (a*q_ell/q)/q_ell by construction
    verified = 0
    ok = True
    for ell in [p for p in primes if p <= 47]:
        q_ell = primorial(ell)
        samples = {ell, q_ell}
        if ell > 2:
            samples.add(2 * ell)
        for q in sorted(samples):
            # both half-widths are 1/(q_ell ell log ell) up to float rounding
            w_spread = psi(q) / q**2
            w_base = psi0(q_ell) / q_ell**2
            ok = ok and math.isclose(w_spread, w_base, rel_tol=CONTAINMENT_RTOL)
            verified += 1
    return DsCounterexampleReport(
        math.fsum(base_terms),
        math.fsum(spread_terms),
        spread_half,
        verified,
        ok,
    )


def _power_exponent(psi: PsiFunction) -> float:
    """a > 0 of psi(n) = n^-a, the one family whose series are classified analytically."""
    if psi.family != "power":
        raise Unsupported("series classification is only analytic for the power family")
    return psi.a


def hausdorff_exponent(psi: PsiFunction) -> float:
    """Critical exponent 2/(2+a) for the power family psi(n) = n^-a:
    sum phi(n) (psi(n)/n^2)^beta converges exactly when beta(2+a) > 2."""
    return 2.0 / (2.0 + _power_exponent(psi))


def hausdorff_slope(psi: PsiFunction, beta: float) -> float:
    """Partial-sum increment diagnostic for psi(n) = n^-a: the dyadic tail growth
    of sum phi(n) (n^-(2+a))^beta between n_max = 2^15 and 2*n_max.  Near zero
    for convergent beta, bounded away from zero for divergent beta."""
    n_max = 1 << 15
    n = np.arange(n_max + 1, 2 * n_max + 1, dtype=np.float64)
    terms = phi_sieve(2 * n_max, n_max + 1) * n ** (-(2.0 + _power_exponent(psi)) * beta)
    return float(np.sum(terms))
