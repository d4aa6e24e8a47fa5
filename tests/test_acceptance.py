"""Acceptance gate: every criterion at its stated tolerance and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its elapsed time.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from restricta import arcs as A
from restricta import dioph as D
from restricta import fourier as F
from restricta import gcdgraph as G
from restricta import markov as M
from restricta import primes as P
from restricta.digit_systems import DigitSystem, census, enumerate_restricted
from restricta.dioph import PsiFunction
from restricta.numutil import fsum_chunks

from tests.oracles import frac_mul, unit

TAU = F.TAU


def report(num: int, desc: str, elapsed: float, limit: float):
    print(f"ACCEPTANCE {num:2d}: PASS ({elapsed:8.3f}s < {limit:g}s) - {desc}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_01_growth_constant():
    t0 = time.perf_counter()
    c = F.typical_growth_constant()
    el = time.perf_counter() - t0
    assert abs(c - 3.209912300) < 1e-6
    report(1, f"exp(4G/pi) = {c:.9f} within 1e-6 of 3.209912300", el, 1.0)


def test_02_sin_bound_sum_101():
    F.sin_bound_sum(101)  # warm NumPy paths before the sub-millisecond timing
    t0 = time.perf_counter()
    rep = F.sin_bound_sum(101)
    el = time.perf_counter() - t0
    assert 602.8 <= rep.value <= 602.9
    report(2, f"sin bound sum at q=101 is {rep.value:.4f} in [602.8, 602.9]", el, 1e-3)


def test_03_refined_sum_101():
    F.refined_digit_sum(11)  # warm
    t0 = time.perf_counter()
    rep = F.refined_digit_sum(101)
    el = time.perf_counter() - t0
    assert 490 <= rep.value <= 502
    report(3, f"refined per-digit sum at q=101 is {rep.value:.4f} in [490, 502]", el, 1.0)


def test_04_sin_threshold_scan():
    t0 = time.perf_counter()
    assert F.sin_bound_sum(133359).passes
    first = F.minimal_passing_q("sin-sum", 133000, 133400)
    el = time.perf_counter() - t0
    assert first is not None and 133000 <= first <= 133400
    report(4, f"sin bound sum first passes at q = {first}", el, 300.0)


def test_05_pairwise_threshold_scan():
    F.pairwise_bound_sum(100)  # warm
    t0 = time.perf_counter()
    single = F.pairwise_bound_sum(18647)
    el_single = time.perf_counter() - t0
    assert single.passes
    assert el_single < 0.01
    t0 = time.perf_counter()
    first = F.minimal_passing_q("pairwise", 18500, 18700)
    el = time.perf_counter() - t0
    assert first is not None and 18500 <= first <= 18700
    report(5, f"pairwise bound sum first passes at q = {first}", el + el_single, 600.0)


def test_06_markov_certificates_every_digit():
    thr1 = 10 ** (27 / 77)
    thr2 = 10 ** (59 / 433)
    worst = 0.0
    for b in range(10):
        sys = DigitSystem.excluding(10, {b})
        t0 = time.perf_counter()
        bound1 = M.row_sum_bound(M.build_matrix(sys, 4, sigma=1.0))
        bound2 = M.row_sum_bound(M.build_matrix(sys, 4, sigma=235 / 154))
        el = time.perf_counter() - t0
        assert bound1 < thr1, (b, bound1)
        assert bound2 < thr2, (b, bound2)
        assert el < 30.0, f"digit {b} took {el:.1f}s"
        worst = max(worst, el)
    report(6, "M^(4,1) < 10^(27/77) and M^(4,235/154) < 10^(59/433) for all b", worst, 30.0)


def test_07_identity_assembly():
    t0 = time.perf_counter()
    rep = A.main_term_assembly(DigitSystem.excluding(10, {7}), 4)
    el = time.perf_counter() - t0
    assert round(rep.identity_sum) == rep.exact_count
    report(
        7,
        f"discrete circle identity reproduces pi_A(10^4) = {rep.exact_count} exactly",
        el,
        60.0,
    )


def test_08_census_ratios():
    t0 = time.perf_counter()
    rep7 = census(DigitSystem.excluding(10, {7}), 10**7)
    assert 0.7 <= rep7.ratio <= 1.3
    rep134 = census(DigitSystem.of(10, (1, 3, 4)), 10**8)
    assert 0.4 <= rep134.ratio <= 2.5
    el = time.perf_counter() - t0
    report(
        8,
        f"census ratios: missing-7 at 1e7 -> {rep7.ratio:.3f}, digits 134 at 1e8 -> {rep134.ratio:.3f}",
        el,
        120.0,
    )


def test_09_ramanujan_identity():
    t0 = time.perf_counter()
    for s in range(1, 501):
        val = P.ramanujan_sum(s)
        assert abs(val - P.mobius(s)) < 1e-6
    el = time.perf_counter() - t0
    report(9, "Ramanujan sum equals the Mobius function for all s <= 500", el, 1.0)


def test_10_product_formula_oracle():
    rng = np.random.default_rng(20260808)
    t0 = time.perf_counter()
    for trial in range(100):
        q = int(rng.integers(2, 13))
        size = int(rng.integers(2, q + 1))
        digits = {0} | set((1 + rng.choice(q - 1, size=size - 1, replace=False)).tolist())
        sys = DigitSystem.of(q, digits)
        k_max = max(1, int(math.log(10**5) / math.log(len(sys.digits))))
        k = int(rng.integers(1, k_max + 1))
        if sys.size**k > 10**5:
            k = k_max
        theta = float(rng.random())
        prof = F.FourierProfile(sys, k)
        got = F.restricted_exp_sum(prof, theta)
        members = np.array(enumerate_restricted(sys, sys.q**k - 1), dtype=np.int64)
        want = fsum_chunks(unit(frac_mul(members, theta)))
        assert abs(got - want) < 1e-9, (q, sorted(digits), k, theta)
    el = time.perf_counter() - t0
    report(10, "product formula matches brute-force enumeration on 100 instances", el, 60.0)


def test_11_parseval():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for trial in range(20):
        q = int(rng.integers(2, 11))
        size = int(rng.integers(2, q + 1))
        digits = set(rng.choice(q, size=size, replace=False).tolist())
        sys = DigitSystem.of(q, digits)
        k = max(1, min(4, int(math.log(3000) / math.log(size))))
        prof = F.FourierProfile(sys, k)
        total = F.power_sum(prof, 2.0)
        expect = prof.sys.q**prof.k * prof.set_size
        assert abs(total - expect) / expect < 1e-6
    el = time.perf_counter() - t0
    report(11, "Parseval: (1/N) sum |S_A|^2 = |A(N)| on 20 instances", el, 60.0)


def test_12_golden_gap():
    D.golden_gap(5)  # warm
    t0 = time.perf_counter()
    val = D.golden_gap(20)
    el = time.perf_counter() - t0
    assert abs(val - 1.0) < 1e-3
    report(12, f"golden-ratio gap at n=20 is {val:.6f} = 1 within 1e-3", el, 1e-3)


def test_13_ds_counterexample():
    t0 = time.perf_counter()
    rep = D.ds_counterexample(10**5)
    el = time.perf_counter() - t0
    assert rep.base_series < 3
    assert rep.spread_series > 1.5 * rep.base_series
    assert rep.still_growing
    assert rep.containment_ok
    report(
        13,
        f"primorial pair: base {rep.base_series:.3f} < 3, spread {rep.spread_series:.3f} still growing",
        el,
        60.0,
    )


def test_14_exact_measure_sweep_oracle():
    rng = np.random.default_rng(14)
    grid = 10**5
    t0 = time.perf_counter()
    for trial in range(50):
        q = int(rng.integers(2, 60))
        r = int(rng.integers(2, 60))
        while r == q:
            r = int(rng.integers(2, 60))
        psi = PsiFunction.constant(
            Fraction(int(rng.integers(1, 12)), int(rng.integers(2, 40)))
        )
        ev_q = D.event_union(q, psi)
        ev_r = D.event_union(r, psi)
        inter = ev_q.intersect(ev_r)
        exact, _ = D.pair_overlap(q, r, psi)
        assert exact == inter.measure
        pts = (np.arange(grid) + 0.5) / grid
        for union in (ev_q, ev_r, inter):
            ends = union.endpoints_float()
            approx = (
                float(np.count_nonzero(np.searchsorted(ends, pts) % 2 == 1)) / grid
                if len(ends)
                else 0.0
            )
            tol = (len(union) + 2) / grid
            assert abs(approx - float(union.measure)) <= tol
    el = time.perf_counter() - t0
    report(14, "event and overlap measures agree with the sweep oracle (50 instances)", el, 120.0)


def test_15_chow_counterexample():
    t0 = time.perf_counter()
    for y in (10, 15, 20):
        rep = G.chow_counterexample(y)
        assert rep.verified
        assert rep.max_multiplicity == 2
        assert rep.pair_gcd_min >= rep.B
        assert rep.triple_gcd_max < rep.B
    el = time.perf_counter() - t0
    report(15, "no divisor above Q/4y^2 covers three elements, for y in {10, 15, 20}", el, 1.0)


def test_16_model_problem_oracle():
    rng = np.random.default_rng(16)
    t0 = time.perf_counter()
    for trial in range(100):
        size = int(rng.integers(1, 51))
        S = set(rng.integers(1, 10**6, size=size).tolist())
        B = int(rng.integers(1, 2000))
        got = G.model_problem_search(G.GcdInstance(tuple(S), B))
        best = 0
        for s in S:
            d = 1
            while d * d <= s:
                if s % d == 0:
                    for g in (d, s // d):
                        if g >= B:
                            best = max(best, sum(1 for x in S if x % g == 0))
                d += 1
        if best == 0:
            assert got is None
        else:
            assert got is not None and got[1] == best
    el = time.perf_counter() - t0
    report(16, "divisor-multiplicity search matches the exhaustive oracle (100 instances)", el, 60.0)
