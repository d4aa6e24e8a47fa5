"""Small-instance GCD-graph laboratory.

Graphs on integer sets with edges where gcd >= B, exhaustive search for
common divisors of many elements, the primorial instance where no single
divisor covers more than two elements, density-ratio diagnostics, and the
bipartite compression step with its quality measure
delta^10 * |V| * |W| * a*b/gcd(a,b)^2.  The greedy compression driver
walks one live-vertex mask per side over the start graph, scores every
candidate step from vertex and edge counts, and builds only its last graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceeded, UsageError
from .primes import _simple_sieve, factorize, primorial

GRAPH_CAP = 10**4
MODEL_CAP = 2000
PAIR_BUDGET = 10**7
CHOW_CAP = 1000  # largest y: the triple check over the 135 primes in (y, 2y] takes 1 s there


@dataclass(frozen=True)
class GcdInstance:
    """A set of distinct positive integers with a divisor threshold."""

    S: tuple[int, ...]
    B: int

    def __post_init__(self):
        vals = tuple(sorted(set(self.S)))
        if not vals:
            raise UsageError("S must be nonempty")
        if vals[0] < 1:
            raise UsageError("elements must be positive")
        if self.B < 1:
            raise UsageError("need B >= 1")
        object.__setattr__(self, "S", vals)


@dataclass(frozen=True)
class GcdGraph:
    """Unordered pairs of an instance's set with gcd >= B, and the pair density."""

    edges: tuple[tuple[int, int], ...]
    density: float


def build_gcd_graph(inst: GcdInstance) -> GcdGraph:
    """All unordered pairs {u, v} of S with gcd(u, v) >= B."""
    vals = inst.S
    if len(vals) > GRAPH_CAP:
        raise CapExceeded(f"|S| = {len(vals)} above cap {GRAPH_CAP}")
    i, j = _gcd_pairs(_int_array(vals), inst.B)
    edges = [(vals[a], vals[b]) for a, b in zip(i.tolist(), j.tolist())]
    npairs = len(vals) * (len(vals) - 1) // 2
    density = len(edges) / npairs if npairs else 0.0
    return GcdGraph(tuple(edges), density)


def model_problem_search(inst: GcdInstance):
    """Exhaustive search over divisors g >= B of elements of S for the one
    dividing the most elements.

    Returns (g, multiplicity) maximising multiplicity (smallest such g on
    ties), or None when no element has a divisor >= B.  The divisors of
    each element are expanded from its factorization, all taken in one
    ``factorize`` call on the array of S; the first element that cannot be
    certified raises FactorizationTooHard.
    """
    if len(inst.S) > MODEL_CAP:
        raise CapExceeded(f"|S| = {len(inst.S)} above cap {MODEL_CAP}")
    counts: dict[int, int] = {}
    for fac in factorize(_int_array(inst.S)):
        divs = [1]
        for p, e in fac.items():
            divs = [d * p**k for d in divs for k in range(e + 1)]
        for d in divs:
            if d >= inst.B:
                counts[d] = counts.get(d, 0) + 1
    if not counts:
        return None
    mult = max(counts.values())
    g = min(d for d, c in counts.items() if c == mult)
    # recount directly; the result must stand on its own
    check = sum(1 for s in inst.S if s % g == 0)
    if check != mult:
        raise RuntimeError(f"{g} divides {check} elements, not the {mult} counted from divisors")
    return g, mult


@dataclass(frozen=True)
class ChowReport:
    """The primes-in-(y,2y] instance: pairwise gcds clear the threshold but
    no integer above it divides three elements."""

    y: int
    Q: int
    S: tuple[int, ...]
    B: Fraction
    max_multiplicity: int
    pair_gcd_min: int
    triple_gcd_max: int
    verified: bool

    def to_json(self) -> dict:
        return {
            "y": self.y,
            "Q": str(self.Q),
            "S": [str(s) for s in self.S],
            "B": {"num": str(self.B.numerator), "den": str(self.B.denominator)},
            "maxMultiplicity": self.max_multiplicity,
            "pairGcdMin": self.pair_gcd_min,
            "tripleGcdMax": self.triple_gcd_max,
            "verified": self.verified,
        }


def chow_counterexample(y: int) -> ChowReport:
    """Build Q = prod_{p<=2y} p, S = {Q/p : y < p <= 2y}, B = Q/(4y^2) and
    verify exactly: every pair gcd >= B, every triple gcd < B, so the
    maximal multiplicity of a divisor >= B is exactly 2 (when |S| >= 2)."""
    if y < 4:
        raise UsageError("need y >= 4 (so that p*l*m > 4y^2 for the triple check)")
    if y > CHOW_CAP:
        raise CapExceeded(f"y above cap {CHOW_CAP}")
    Q = primorial(2 * y)
    band = [p for p in _simple_sieve(2 * y).tolist() if p > y]
    if not band:
        raise UsageError(f"no primes in ({y}, {2 * y}]")
    S = tuple(Q // p for p in band)
    B = Fraction(Q, 4 * y * y)
    pair_min = None
    triple_max = None
    ok = True
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            g = math.gcd(S[i], S[j])
            ok = ok and (g >= B)
            pair_min = g if pair_min is None else min(pair_min, g)
            for k in range(j + 1, len(S)):
                g3 = math.gcd(g, S[k])
                ok = ok and (g3 < B)
                triple_max = g3 if triple_max is None else max(triple_max, g3)
    max_mult = 2 if len(S) >= 2 else 1
    # any g >= B dividing three elements would divide their gcd, which is < B
    return ChowReport(y, Q, S, B, max_mult, pair_min or 0, triple_max or 0, ok)


def green_walker_ratio(inst: GcdInstance, other: GcdInstance) -> tuple[float, float]:
    """Pair-gcd density delta of R x S (R = inst.S, S = other.S, B = inst.B) and
    the diagnostic ratio |R||S| * B^2 * delta^2.1 / (X*Y) with X = min(R), Y = min(S).
    The ratio is 0.0 at delta = 0; where |R||S|B^2 or X*Y is past the largest
    float, their quotient is rounded once from its exact value, and a ratio
    itself past the float range is refused with CapExceeded."""
    rv, sv, B = inst.S, other.S, inst.B
    if len(rv) * len(sv) > PAIR_BUDGET:
        raise CapExceeded("pair count above budget")
    sa = _int_array(rv + sv)[len(rv) :]  # object dtype when an element of R or S is >= 2^63
    hits = 0
    for x in rv:
        hits += int(np.count_nonzero(np.gcd(x, sa) >= B))
    delta = hits / (len(rv) * len(sv))
    X, Y = rv[0], sv[0]
    if not delta:
        return delta, 0.0
    try:
        return delta, len(rv) * len(sv) * B * B * delta**2.1 / (X * Y)
    except OverflowError:  # |R||S|B^2 or X*Y past the largest float
        try:
            return delta, float(Fraction(len(rv) * len(sv) * B * B, X * Y)) * delta**2.1
        except OverflowError:
            raise CapExceeded("green-walker ratio past the float range") from None


# ------------------------------------------------- bipartite compression


@dataclass(frozen=True)
class BipartiteGcdGraph:
    """Bipartite gcd graph with accumulated divisors a | v for every v in V
    and b | w for every w in W, checked on construction."""

    V: tuple[int, ...]
    W: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]  # index pairs into V x W
    a: int = 1
    b: int = 1

    def __post_init__(self):
        for v in self.V:
            if v % self.a:
                raise UsageError(f"a = {self.a} does not divide {v}")
        for w in self.W:
            if w % self.b:
                raise UsageError(f"b = {self.b} does not divide {w}")

    @property
    def quality(self) -> float:
        """delta^10 * |V| * |W| * a*b/gcd(a,b)^2."""
        return _quality(len(self.V), len(self.W), len(self.edges), self.a, self.b)


def _quality(nv: int, nw: int, ne: int, a: int, b: int) -> float:
    """The quality measure of a bipartite graph with nv x nw vertices, ne
    edges and divisors a, b: (ne/(nv nw))^10 * nv * nw * a*b/gcd(a,b)^2,
    and 0 when a side is empty."""
    if not nv or not nw:
        return 0.0
    g = math.gcd(a, b)
    return (ne / (nv * nw)) ** 10 * nv * nw * float((a // g) * (b // g))


def _int_array(vals) -> np.ndarray:
    """vals as int64, or as Python ints (object dtype) when one is 2^63 or
    more, so that % and np.gcd stay exact."""
    return np.array(vals, dtype=np.int64 if max(vals, default=0) < 1 << 63 else object)


def _gcd_pairs(arr: np.ndarray, B: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the pairs of arr with gcd >= B, in
    row-major order: one np.gcd per row over the elements after it."""
    rows = [np.flatnonzero(np.gcd(arr[a], arr[a + 1 :]) >= B) + (a + 1) for a in range(len(arr) - 1)]
    i = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    return i, np.concatenate([np.empty(0, dtype=np.int64), *rows])


def bipartite_from_set(inst: GcdInstance) -> BipartiteGcdGraph:
    """Two copies of S with edges where gcd >= B (the compression start), row-major."""
    vals = inst.S
    if len(vals) ** 2 > PAIR_BUDGET:
        raise CapExceeded("pair count above budget")
    arr = _int_array(vals)
    i, j = _gcd_pairs(arr, inst.B)
    d = np.flatnonzero(arr >= inst.B)
    v, w = np.concatenate((i, j, d)), np.concatenate((j, i, d))
    order = np.lexsort((w, v))
    return BipartiteGcdGraph(vals, vals, tuple(zip(v[order].tolist(), w[order].tolist())))


_KEEPS = ((True, True), (True, False), (False, True), (False, False))  # TT, TF, FT, FF


def _tracked(a: int, p: int, keep: bool) -> int:
    """The divisor a side tracks after a restriction: imposing p | v
    multiplies it by p unless p already divides it."""
    return a * p if keep and a % p else a


def compress_greedy(inst: GcdInstance) -> BipartiteGcdGraph:
    """Heuristic driver: repeatedly apply the compression step with the
    prime and restriction of highest quality measure.

    The walk keeps the start graph's vertex array S, its edges as index
    arrays and one live mask per side, and builds only the last graph.
    The whole of S is factored up front in one ``factorize`` call.
    A candidate is scored from counts: one divisibility mask of S serves
    both sides, and one bincount of the live edges' quadrant codes
    2*(p does not divide v) + (p does not divide w) gives all four edge
    counts.  Ties go to the first in increasing p, then TT, TF, FT, FF
    (``_KEEPS``).  The stopping rule (a budget of 10*log|S| non-improving
    steps) is a demonstration choice.
    """
    g = bipartite_from_set(inst)
    S = _int_array(g.V)
    ev, ew = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    mv, mw = np.ones(len(S), dtype=bool), np.ones(len(S), dtype=bool)
    a = b = 1
    factors = factorize(S)
    used: set[int] = set()
    score = g.quality
    budget = max(1, int(10 * math.log(max(2, len(S)))))
    while budget > 0:
        primes = set().union(*(factors[i] for i in np.flatnonzero(mv | mw).tolist())) - used
        live = mv[ev] & mw[ew]
        lv, lw = ev[live], ew[live]
        nv_all, nw_all = int(np.count_nonzero(mv)), int(np.count_nonzero(mw))
        best, best_m = None, 0.0
        for p in sorted(primes):
            div = S % p == 0
            ne = np.bincount(2 * ~div[lv] + ~div[lw], minlength=4).tolist()
            nv, nw = int(np.count_nonzero(div & mv)), int(np.count_nonzero(div & mw))
            for k, (keep_v, keep_w) in enumerate(_KEEPS):
                cv = nv if keep_v else nv_all - nv
                cw = nw if keep_w else nw_all - nw
                if cv and cw:
                    m = _quality(cv, cw, ne[k], _tracked(a, p, keep_v), _tracked(b, p, keep_w))
                    if best is None or m > best_m:
                        best, best_m = (p, div, keep_v, keep_w), m
        if best is None:
            break
        p, div, keep_v, keep_w = best
        mv &= div == keep_v
        mw &= div == keep_w
        a, b = _tracked(a, p, keep_v), _tracked(b, p, keep_w)
        used.add(p)
        if best_m <= score:
            budget -= 1
        score = best_m
    live = mv[ev] & mw[ew]
    iv, iw = np.cumsum(mv) - 1, np.cumsum(mw) - 1  # start index -> index among the live
    return BipartiteGcdGraph(
        tuple(S[mv].tolist()),
        tuple(S[mw].tolist()),
        tuple(zip(iv[ev[live]].tolist(), iw[ew[live]].tolist())),
        a,
        b,
    )
