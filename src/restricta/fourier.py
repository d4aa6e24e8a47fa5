"""Exponential sums over digit-restricted sets and their certified bounds.

S_A(theta) factors as a product of k single-digit window sums, which makes
it computable in O(k) at any one point; on the grid j/q^k it is the DFT of
the indicator of the padded set, which one real FFT gives at every point
of the half grid (``sa_chunks``) for the means and moments.  The
"computer calculation" style inequalities (the sin-bound sum, the refined
per-digit sum, the pairwise sum, the generalization margin) are evaluated
as certified upper bounds: cell suprema are second-order Taylor bounds
over subcells (the refined sum takes the smaller of that remainder and a
third-order one from G'' at each midpoint), and sums accumulate a small
per-term upward slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .digit_systems import DigitSystem
from .errors import CapExceeded, UsageError
from .numutil import catalan_constant, fsum_chunks, unit
from .primes import digit_indicator

TAU = 0.2 - 1e-9  # exponent of the (q-1)*q^tau thresholds, just below 1/5
SLACK = 1e-12  # per-term upward slack in certified accumulations
# points in one array pass: a moment grid, whose real FFT peaks near 32N bytes
# (mean_l1 at q = 10, k = 7: 0.55 s, 336 MB), or q in a sin-sum or pairwise closed form
MOMENT_CAP = 10**7
REFINED_GRID = 64  # subcells per cell in refined_digit_sum at least
REFINED_SUBCELLS = 4096  # and at least this many per circle: a coarse circle's r outgrows its small M2
SUBCELL_CAP = 4 * 10**6  # q * grid subcells at most in refined_digit_sum and generalized_margin
REFINED_WORK_CAP = 2 * 10**8  # ceil(q/2)^2 * grid subcell steps at most in refined_digit_sum
_CHUNK = 1 << 17
# subcells per step of a refined-sum digit: its temporaries stay in cache, and
# freeing them does not make malloc trim and re-fault the heap top (about 850
# page faults in refined_digit_sum(501), against 19k with whole-digit arrays)
_BLOCK = 1 << 12
# |e(phi) - 1| below this is phase-roundoff noise; the geometric forms
# switch to their limit value (the sliver affected is ~1e-10 wide, where
# the analytic cell caps govern certified maxima anyway)
_DEN_EPS = 1e-9


@dataclass(frozen=True)
class FourierProfile:
    """A digit system observed at k digits, so N = q^k."""

    sys: DigitSystem
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise UsageError("need k >= 1")

    def capped_points(self, cap: int, what: str = "cap") -> int:
        """N = q^k, refused above ``cap`` before it is formed: q >= 2, so a k
        above the cap's bit length, or a q above the cap, puts q^k past it."""
        q, k = self.sys.q, self.k
        if k > cap.bit_length() or q > cap:
            raise CapExceeded(f"q^k above {what} {cap}")
        N = q**k
        if N > cap:
            raise CapExceeded(f"N = {N} above {what} {cap}")
        return N

    @property
    def set_size(self) -> int:
        """|A(N)| for the k-digit padded set."""
        return self.sys.size**self.k


@dataclass(frozen=True)
class BoundReport:
    kind: str
    value: float
    threshold: float
    passes: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "value": self.value,
            "threshold": self.threshold,
            "passes": self.passes,
            **{k: v for k, v in self.details.items()},
        }


# ----------------------------------------------------------------- windows


class _Window:
    """W(phi) = sum_{d in D} e(d*phi) as its hull minus its holes.

    D lies in its hull a..a+r-1, and the holes H are the hull digits not in
    D, so W = e(a*phi) * (e(r*phi) - 1)/(e(phi) - 1) - sum_{h in H} e(h*phi).
    A run has no holes; a digit missing from inside 0..q-1 is one hole.
    Direct summation over D replaces the closed form only where it takes
    fewer terms (|H| >= |D|).
    """

    def __init__(self, sys: DigitSystem):
        self.sys = sys
        ds = sys.digits
        self.start, self.length = ds[0], ds[-1] - ds[0] + 1
        self.holes = tuple(h for h in sys.missing() if ds[0] < h < ds[-1])
        self.closed = len(self.holes) < len(ds)
        # G(phi) = e(-c*phi) W(phi) has |G| = F and |G''| <= m2 everywhere
        self.center = ds[len(ds) // 2]
        self.m2 = (2.0 * math.pi) ** 2 * sum((d - self.center) ** 2 for d in ds)

    # -- complex values ---------------------------------------------------

    def values(self, m, N: int, deriv: int = 0):
        """Complex W at the exact phases phi = m/N, or with ``deriv`` = 1 or
        2 the tuple (W, W') or (W, W', W'').

        Each e(n*phi) is taken once, from the exact residue n*m mod N by
        ``unit`` at theta = 1/N, and serves W and its derivatives; a hole at
        1, r or a reuses the hull's exponential.  W'' is formed from the same exponentials
        and from W', after it, so W and W' have the same bits at any ``deriv``.
        The hull ratio takes its phi -> 0 limits where |e(phi) - 1| < _DEN_EPS.
        """
        m = np.asarray(m, dtype=np.int64)

        def e(n):  # e(n*phi)
            return unit(n * m % N, Fraction(1, N))

        tp = 2j * math.pi
        tau2 = (2.0 * math.pi) ** 2  # (2*pi*i)^2 = -tau2
        z = {}  # the hull's e(n*phi) by n
        w = wp = wpp = 0.0
        if self.closed:
            a, r = self.start, self.length
            z = {n: e(n) for n in {1, r, a} - {0}}
            z1, zr = z[1], z[r]
            den = z1 - 1.0
            small = np.abs(den) < _DEN_EPS
            safe = np.where(small, 1.0, den)
            w = np.where(small, r + 0j, (zr - 1.0) / safe)
            if deriv:
                wp = np.where(
                    small, tp * r * (r - 1) / 2.0, tp * (r * zr * den - (zr - 1.0) * z1) / (safe * safe)
                )
            if deriv > 1:  # the derivative of wp = tp * (r*zr*den - (zr - 1)*z1) / den^2
                wpp = np.where(
                    small,
                    -tau2 * (r - 1) * r * (2 * r - 1) / 6.0,
                    -tau2 * (r * r * zr * den - (zr - 1.0) * z1) / (safe * safe) - 2.0 * tp * z1 * wp / safe,
                )
            if a:
                za = z[a]
                if deriv > 1:  # (e(a*phi) H)'' = e(a*phi) (H'' + 2*tp*a*H' + (tp*a)^2 H)
                    wpp = (wpp + 2.0 * tp * a * wp - tau2 * a * a * w) * za
                if deriv:
                    # temporary first: numpy reuses a large temporary in
                    # place as temp*za, and complex products are not bitwise
                    # commutative, so za*temp would round by array size
                    wp = (wp + tp * a * w) * za
                w = za * w
        terms, sign = (self.holes, -1.0) if self.closed else (self.sys.digits, 1.0)
        for d in terms:
            zd = z[d] if d in z else e(d)
            w = w + sign * zd
            if deriv:
                wp = wp + sign * tp * d * zd
            if deriv > 1:
                wpp = wpp - sign * tau2 * d * d * zd
        return (w, wp, wpp)[: deriv + 1] if deriv else w

    # -- certified cell suprema -------------------------------------------

    def cell_sup(self, n: int, grid: int) -> np.ndarray:
        """Certified upper bound for sup F over each cell [t/n, (t+1)/n), t < n,
        from ``grid`` subcells per cell with exact-phase midpoints m/(2*n*grid).
        G = e(-c*phi) W is recentred at the median digit c, so G, G' enter as W,
        W' - 2*pi*i*c*W.  W has real coefficients, so F(1 - phi) = F(phi): cell
        n-1-t is the mirror of cell t, its midpoints the (N - m)/N, and only the
        cells t < ceil(n/2) are evaluated.  Each chunk of cells is capped as it
        is built, so no n-long temporary exists besides the result."""
        N = 2 * n * grid
        r = 1.0 / N
        half = (n + 1) // 2
        best = np.empty(n)
        rows = max(1, _CHUNK // grid)
        for t0 in range(0, half, rows):
            t = np.arange(t0, min(t0 + rows, half), dtype=np.int64)
            m = 2 * np.arange(t0 * grid, (t0 + len(t)) * grid, dtype=np.int64) + 1  # cell-major
            w, wp = self.values(m, N, deriv=1)
            sups = _taylor_sup(w, wp - 2j * math.pi * self.center * w, r, 0.5 * self.m2 * r * r)
            del w, wp  # free this chunk before the next one is evaluated
            best[t0 : t0 + len(t)] = best[n - 1 - t] = self.capped_sups(sups, t, n)
        return best

    def capped_sups(self, sups: np.ndarray, t: np.ndarray, n: int) -> np.ndarray:
        """Certified sup of F over cells t of the 1/n grid from the Taylor bounds
        of their subcells (cell-major): the maximum over each cell, capped by
        ``_cell_caps``."""
        return np.minimum(sups.reshape(len(t), -1).max(axis=1), _cell_caps(t, n, self.sys.size, len(self.holes)))


def _cell_caps(t: np.ndarray, n: int, size: int, holes: int) -> np.ndarray:
    """Caps on sup F over cells t of the 1/n grid, for |D| = size with
    ``holes`` holes: min(|D|, |H| + 1/sin(pi*dmin)), rounded up, where dmin
    is the cell's distance from the integers: the hull sum is <= 1/sin, each
    hole adds <= 1."""
    dmin = np.minimum(t, n - 1 - t) / n
    with np.errstate(divide="ignore"):  # runs attain 1/sin: round it up
        inv_sin = np.where(dmin > 0, (1.0 + 1e-12) / np.sin(np.pi * np.maximum(dmin, 1e-300)), np.inf)
    return np.minimum(float(size), holes + inv_sin)


def _taylor_sup(g: np.ndarray, gp: np.ndarray, r: float, rem) -> np.ndarray:
    """Upper bound for |G| on [x - r, x + r] from g = G(x), gp = G'(x) and a
    bound ``rem`` on the Taylor remainder there, a scalar or one per x.

    Taylor's theorem gives |G(x+h)| <= |g + gp*h| + rem, and |g + gp*h| is
    convex in h, so over |h| <= r its maximum is at h = -r or h = r.  With
    |G''| <= M2 everywhere, rem = M2*r^2/2 (``_Window.cell_sup``); with
    |G'''| <= M3 as well, |G''(x)|*r^2/2 + M3*r^3/6 is a bound too, and the
    refined sum passes the smaller of the two.
    """
    step = gp * r
    return np.maximum(np.abs(g + step), np.abs(g - step)) + rem


# ------------------------------------------------------- the product form


def restricted_exp_sum(profile: FourierProfile, theta) -> complex:
    """S_A(theta) over the k-digit padded set, via the digit product.

    theta may be a float or an exact Fraction, taken as the exact rational
    num/den; each level's theta_i = q^i*theta mod 1 is reduced in integer
    arithmetic, and ``unit`` takes the digits' e(d*theta_i) from 64-bit
    phases less than 2 units of 2^-64 low, so the product stays accurate
    for any k.
    """
    sys = profile.sys
    theta = Fraction(theta)
    num, den = theta.numerator, theta.denominator
    digits = np.array(sys.digits, dtype=np.int64)
    res = 1 + 0j
    qq = 1
    for _ in range(profile.k):
        z = unit(digits, Fraction(qq * num % den, den))
        res *= complex(np.sum(z.real), np.sum(z.imag))
        qq *= sys.q
    return res


def sa_chunks(profile: FourierProfile):
    """Yield (j0, S_A(j/N) for j in [j0, j0+_CHUNK)) over the half grid
    j <= N/2.  The digits are integers, so S_A((N - j)/N) = conj S_A(j/N),
    and a circle sum of |S_A|^sigma, or of Re(S_P conj S_A) with S_P also
    of real coefficients, is the half grid weighted by ``fold_weights``.

    S_A(j/N) = sum_{n in A} e(n*j/N) is the conjugate of the DFT of the
    0/1 indicator of the padded set, so one real FFT of it gives the whole
    half grid (pocketfft, Bluestein for a prime N).  Its error at each j is
    within the 2-norm bound c*u*log2(N)*sqrt(N*|A|) of Higham (2002),
    Thm 24.2, and the values do not depend on _CHUNK.  The float indicator
    (8N bytes) is freed before the conjugate is taken in place.
    """
    sa = np.fft.rfft(digit_indicator(profile.sys, profile.k, np.float64))
    np.conjugate(sa, out=sa)
    for j0 in range(0, len(sa), _CHUNK):
        yield j0, sa[j0 : j0 + _CHUNK]


def fold_weights(j0: int, n: int, N: int) -> np.ndarray:
    """The weights of the half-grid points j0..j0+n-1 in a sum over the whole
    circle of a quantity even under j -> N - j: 2, for j and its mirror,
    except 1 at the self-mirrored j = 0 and, for even N, j = N/2."""
    w = np.full(n, 2.0)
    for j in (0, N // 2) if N % 2 == 0 else (0,):
        if j0 <= j < j0 + n:
            w[j - j0] = 1.0
    return w


# --------------------------------------------------- certified bound sums


def _check_closed_form(q: int) -> None:
    """The closed forms hold a few floats per t < q/2 (0.23 s and 180 MB
    at q = 10^7): refused above MOMENT_CAP, before any float is formed."""
    if q > MOMENT_CAP:
        raise CapExceeded(f"q above cap {MOMENT_CAP} for the closed-form sum")


def sin_display_value(q: int) -> float:
    """The closed-form per-digit bound sum for one missing digit:
    3q-4 + 2*sum_{1<=t<(q-1)/2} 1/sin(pi t/q) + [q odd]/sin(pi(q-1)/2q)."""
    _check_closed_form(q)
    t = np.arange(1, q // 2, dtype=np.float64)
    val = 3.0 * q - 4.0 + 2.0 * float(np.sum(1.0 / np.sin(np.pi * t / q)))
    terms = len(t) + 1
    if (q - 1) % 2 == 0:
        val += 1.0 / math.sin(math.pi * (q - 1) / (2 * q))
        terms += 1
    return val + SLACK * terms


def sin_bound_sum(q: int) -> BoundReport:
    """Compare the per-digit sin-bound sum against (q-1)*q^TAU."""
    if q < 3:
        raise UsageError("need q >= 3")
    value = sin_display_value(q)
    threshold = (q - 1) * q**TAU
    return BoundReport(
        "sin-bound-sum",
        value,
        threshold,
        value < threshold,
        {"asymptotic_reference": (2.0 / math.pi) * q * math.log(q)},
    )


def _refined_cell_sups(q: int, grid: int):
    """Yield (b, cells) for b = 0..(q-1)/2: the certified suprema of F_D
    with D missing b over the q cells [t/q, (t+1)/q).

    The cells, subcells and per-cell step are those of ``_Window.cell_sup``,
    folded the same way (cell q-1-t takes the bound of cell t), but the
    full-set geometric kernel g, g', g'' is evaluated once for all b, and
    each subcell's remainder is the smaller of the second-order M2*r^2/2
    and the third-order |G''(x)|*r^2/2 + M3*r^3/6 (``_taylor_sup``).  Every
    b <= (q-1)/2 leaves the upper median c = (q+1)//2 of the other digits,
    so G = e(-c*phi) W_b enters through sums R_k = sum_{d<q} (2*pi*i*(d-c))^k
    e(d*phi) of the full set, taken once: G^(k) = R_k - (2*pi*i*(b-c))^k
    e(b*phi), with e(b*phi) advanced by elementwise multiplication, and
    M_k = (2*pi)^k sum_{d != b} |d-c|^k is the full set's sum less |b-c|^k.
    The digits fold too: q-1-D misses q-1-b and W_{q-1-D}(phi) =
    e((q-1)*phi) conj(W_D(phi)), so the cells of b also bound digit q-1-b
    (with centre q-1-c, as valid a centre as its median), and the digits
    above (q-1)/2 are not yielded.
    """
    half = (q + 1) // 2
    N = 2 * q * grid
    r = 1.0 / N
    t = np.arange(half, dtype=np.int64)
    m = 2 * np.arange(half * grid, dtype=np.int64) + 1  # subcell midpoints m/N, cell-major
    g, gp, gpp = _Window(DigitSystem.of(q, range(q))).values(m, N, deriv=2)
    z1 = unit(m, Fraction(1, N))
    c = half
    tp, tau = 2j * math.pi, 2.0 * math.pi
    R1 = gp - tp * c * g
    R2 = gpp - 2.0 * tp * c * gp - (tau * c) ** 2 * g
    del gp, gpp
    s2 = sum((d - c) ** 2 for d in range(q))
    s3 = sum(abs(d - c) ** 3 for d in range(q))
    caps = [_cell_caps(t, q, q - 1, holes) for holes in (0, 1)]  # b = 0 leaves a run, 0 < b < q-1 a hole
    eb = np.ones_like(g)  # e(b*phi)
    rows = max(1, _BLOCK // grid)
    for b in range(half):
        k = b - c
        m2 = tau**2 * (s2 - k * k)
        m3 = tau**3 * (s3 - abs(k) ** 3)
        cells = np.empty(half)
        for t0 in range(0, half, rows):
            t1 = min(t0 + rows, half)
            s = slice(t0 * grid, t1 * grid)
            e = eb[s]
            rem = np.minimum(np.abs(R2[s] + (tau * k) ** 2 * e) + m3 * r / 3.0, m2) * (0.5 * r * r)
            sups = _taylor_sup(g[s] - e, R1[s] - tp * k * e, r, rem)
            cells[t0:t1] = np.minimum(sups.reshape(t1 - t0, grid).max(axis=1), caps[b > 0][t0:t1])
            e *= z1[s]  # e(b*phi) -> e((b+1)*phi) in place
        yield b, np.concatenate((cells, cells[: q - half][::-1]))


def _check_grid(q: int, grid: int) -> None:
    if grid < 1:
        raise UsageError(f"need grid >= 1 subcells per cell, got {grid}")
    if q * grid > SUBCELL_CAP:
        raise CapExceeded(f"q * grid = {q * grid} subcells above cap {SUBCELL_CAP}")


def refined_digit_sum(q: int, grid: int = REFINED_GRID) -> BoundReport:
    """Per-digit bound from the true window maxima.

    For every missing digit b, sums over t the certified supremum of
    F_D over [t/q, (t+1)/q) (see ``_refined_cell_sups``); digit q-1-b
    takes the sum of b.  Reports the worst b.  Takes ``grid`` or more
    subcells per cell, at least ceil(REFINED_SUBCELLS/q): a small q has a
    small M2, and the subcells of a coarse circle are too wide.  Refused
    (CapExceeded) before any array is built when q*grid is above
    SUBCELL_CAP (memory) or the ceil(q/2)^2*grid subcell steps above
    REFINED_WORK_CAP (time), for the grid that would run.
    """
    if q < 3:
        raise UsageError("need q >= 3")
    _check_grid(q, grid)
    grid = max(grid, -(-REFINED_SUBCELLS // q))  # raised only below 2 * REFINED_SUBCELLS subcells: inside SUBCELL_CAP
    steps = ((q + 1) // 2) ** 2 * grid  # ceil(q/2) digits, each over ceil(q/2) cells of grid subcells
    if steps > REFINED_WORK_CAP:
        raise CapExceeded(f"ceil(q/2)^2 * grid = {steps} subcell steps above cap {REFINED_WORK_CAP}")
    per_digit = [0.0] * q
    for b, cells in _refined_cell_sups(q, grid):
        per_digit[b] = per_digit[q - 1 - b] = float(np.sum(cells)) + SLACK * q
    value = max(per_digit)
    threshold = (q - 1) * q**TAU
    return BoundReport(
        "refined-sum",
        value,
        threshold,
        value < threshold,
        {"per_digit": per_digit, "grid": grid},
    )


def pairwise_display_value(q: int) -> float:
    """The closed-form two-digit bound sum:
    (3q-4)^2 + (2*sum 1/sin(pi t/q) + ...)(6q-8 + 2*sum sin(pi u/q) + ...)."""
    _check_closed_form(q)
    t = np.arange(1, q // 2, dtype=np.float64)
    f1 = 2.0 * float(np.sum(1.0 / np.sin(np.pi * t / q)))
    u = np.arange(2, q // 2 + 1, dtype=np.float64)
    f2 = 6.0 * q - 8.0 + 2.0 * float(np.sum(np.sin(np.pi * u / q)))
    terms = len(t) + len(u) + 2
    if (q - 1) % 2 == 0:
        f1 += 1.0 / math.sin(math.pi * (q - 1) / (2 * q))
        f2 += math.sin(math.pi * (q + 1) / (2 * q))
        terms += 2
    return (3.0 * q - 4.0) ** 2 + f1 * f2 + SLACK * terms


def pairwise_bound_sum(q: int) -> BoundReport:
    """Compare the paired-digit bound sum against (q-1)^2 * q^(2/5)."""
    if q < 5:
        raise UsageError("need q >= 5")
    value = pairwise_display_value(q)
    threshold = (q - 1) ** 2 * q**0.4
    return BoundReport("pairwise-sum", value, threshold, value < threshold, {})


SCANS = {"sin-sum": sin_bound_sum, "pairwise": pairwise_bound_sum}  # the checks a q range can scan


def scan_bound(kind: str, q_lo: int, q_hi: int):
    """Yield (q, BoundReport) over q in [q_lo, q_hi] for the check SCANS[kind]."""
    if kind not in SCANS:
        raise UsageError(f"unknown scan kind {kind!r}")
    for q in range(q_lo, q_hi + 1):
        yield q, SCANS[kind](q)


def minimal_passing_q(kind: str, q_lo: int, q_hi: int) -> int | None:
    """First q in the window whose bound sum passes its threshold."""
    return next((q for q, rep in scan_bound(kind, q_lo, q_hi) if rep.passes), None)


def generalized_margin(sys: DigitSystem, grid: int = 256) -> BoundReport:
    """sum_t sup over [t/q, (t+1)/q) of F_D, against (q - |D|) * q^(1/5).

    Degenerate for the full digit set (threshold 0).  Details carry the
    analytic reference shapes for removed-digit and consecutive-run sets.
    """
    q = sys.q
    _check_grid(q, grid)
    win = _Window(sys)
    value = float(np.sum(win.cell_sup(q, grid))) + SLACK * q
    r = q - sys.size
    threshold = r * q**0.2
    details: dict = {"grid": grid, "degenerate": r == 0}
    if r >= 1:
        details["removed_reference"] = (q - 1.0) * r + q * math.log(q)
    if not win.holes and sys.size >= 2:
        details["consecutive_reference"] = (q / sys.size) * (q - sys.size) * math.log(sys.size)
    passes = (r > 0) and (value < threshold)
    return BoundReport("margin", value, threshold, passes, details)


# ------------------------------------------------------- means and moments


def mean_l1(profile: FourierProfile) -> float:
    """sum_{j=0}^{N-1} |S_A(j/N)|, exact grid sum (not normalised)."""
    return power_sum(profile, 1.0)


def power_sum(profile: FourierProfile, sigma: float) -> float:
    """sum_j |S_A(j/N)|^sigma over the full grid, for a finite sigma: the
    half grid j <= N/2 under ``fold_weights``, |S_A| being even."""
    if not math.isfinite(sigma):
        raise UsageError(f"need a finite sigma, got {sigma}")
    N = profile.capped_points(MOMENT_CAP)
    parts = [fsum_chunks(fold_weights(j0, len(vals), N) * np.abs(vals) ** sigma) for j0, vals in sa_chunks(profile)]
    return math.fsum(parts)


def moment_tail(profile: FourierProfile, sigma: float, T: float) -> tuple[int, float]:
    """Exceedance count #{j : |S_A(j/N)| >= A(N)/T} and its moment bound
    (T/A)^sigma * sum_j |S_A|^sigma over the full grid, both read off the
    half grid under ``fold_weights``.  The count never exceeds the bound."""
    if not (0 < sigma < math.inf and 1 <= T < math.inf):  # NaN fails every comparison
        raise UsageError(f"need a finite sigma > 0 and a finite T >= 1, got {sigma} and {T}")
    N = profile.capped_points(MOMENT_CAP)
    A = float(profile.set_size)
    cut = A / T
    count = 0
    msum_parts = []
    for j0, vals in sa_chunks(profile):
        mags, wt = np.abs(vals), fold_weights(j0, len(vals), N)
        count += int(wt[mags >= cut].sum())  # small integers: the float sum is exact
        msum_parts.append(fsum_chunks(wt * mags**sigma))
    bound = (T / A) ** sigma * math.fsum(msum_parts)
    return count, bound


# ------------------------------------------------------------- constants


def typical_growth_constant() -> float:
    """exp((4/pi) * G) with Catalan's G from its series; the per-digit
    growth factor of |S_A| at a typical theta, approx 3.209912300."""
    return math.exp(4.0 * catalan_constant() / math.pi)
