import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restricta import gcdgraph as G
from restricta.errors import CapExceeded, UsageError
from restricta.primes import factorize

from tests.oracles import compression_step


def divisor_multiplicity_oracle(S, B):
    """Independent exhaustive scan: trial-division divisors, then count."""
    counts = {}
    for s in S:
        divs = set()
        d = 1
        while d * d <= s:
            if s % d == 0:
                divs.add(d)
                divs.add(s // d)
            d += 1
        for g in divs:
            if g >= B:
                counts[g] = counts.get(g, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    return best


class TestInstance:
    @pytest.mark.parametrize("S, B", [((), 1), ((0, 6, 10), 1), ((-6, 10, 15), 2), ((6, 10, 15), 0)],
                             ids=("empty", "zero", "negative", "B=0"))
    def test_refuses_before_any_function_runs(self, S, B):
        # every set-reading function takes the instance, so none checks again
        with pytest.raises(UsageError):
            G.GcdInstance(S, B)

    def test_sorted_and_distinct(self):
        assert G.GcdInstance((10, 6, 10, 15), 2).S == (6, 10, 15)


class TestBuildGraph:
    def test_figure_instance(self):
        g = G.build_gcd_graph(G.GcdInstance((11, 12, 20, 55, 10, 25, 35, 7), 5))
        have = {tuple(sorted(e)) for e in g.edges}
        listed = {
            (20, 55), (25, 55), (25, 35), (10, 35), (10, 20),
            (10, 55), (10, 25), (20, 35), (20, 25), (35, 55),
        }
        assert listed <= have
        assert (11, 12) not in have
        # full truth: the listed pairs plus (11,55) and (7,35)
        assert have == listed | {(11, 55), (7, 35)}

    def test_complete_at_b1(self):
        g = G.build_gcd_graph(G.GcdInstance((3, 5, 8, 9), 1))
        assert len(g.edges) == 6
        assert g.density == 1.0

    def test_empty_above_max(self):
        g = G.build_gcd_graph(G.GcdInstance((3, 5, 8, 9), 10))
        assert g.edges == ()
        assert g.density == 0.0

    @given(st.sets(st.integers(1, 500), min_size=2, max_size=25), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_and_correct(self, S, B):
        g = G.build_gcd_graph(G.GcdInstance(tuple(S), B))
        expect = {
            (u, v)
            for u in S
            for v in S
            if u < v and math.gcd(u, v) >= B
        }
        assert {tuple(sorted(e)) for e in g.edges} == expect

    @given(st.sets(st.integers(1, 500), min_size=1, max_size=25), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_both_graphs_row_major(self, S, B):
        # build_gcd_graph and bipartite_from_set share one upper-triangle pass;
        # each lists its edges in the order of the plain double loop
        inst = G.GcdInstance(tuple(S), B)
        vals = inst.S
        pairs = [(i, j) for i in range(len(vals)) for j in range(len(vals)) if math.gcd(vals[i], vals[j]) >= B]
        assert list(G.build_gcd_graph(inst).edges) == [(vals[i], vals[j]) for i, j in pairs if i < j]
        assert G.bipartite_from_set(inst).edges == tuple(pairs)


class TestModelProblem:
    def test_multiples_of_six(self):
        g, mult = G.model_problem_search(G.GcdInstance((6, 12, 18, 24), 6))
        assert (g, mult) == (6, 4)

    def test_two_primes(self):
        res = G.model_problem_search(G.GcdInstance((101, 103), 2))
        assert res is not None
        g, mult = res
        assert g in (101, 103) and mult == 1

    def test_none_when_no_divisor(self):
        assert G.model_problem_search(G.GcdInstance((2, 3, 5), 7)) is None

    def test_chow_instance_multiplicity_two(self):
        rep = G.chow_counterexample(10)
        inst = G.GcdInstance(rep.S, math.ceil(rep.B))
        g, mult = G.model_problem_search(inst)
        assert mult == 2
        assert g >= rep.B

    @given(
        st.sets(st.integers(2, 10**6), min_size=1, max_size=12),
        st.integers(1, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_oracle(self, S, B):
        res = G.model_problem_search(G.GcdInstance(tuple(S), B))
        want = divisor_multiplicity_oracle(S, B)
        if want is None:
            assert res is None
        else:
            g, mult = res
            assert mult == want
            assert g >= B and sum(1 for s in S if s % g == 0) == mult

    def test_factorizations_split_at_2_63(self):
        # factorize splits an object array: one array call below 2^63, the
        # scalar path from 2^63 on
        vals = (1, 6, 999_983**2, 2**63 - 25, 2**63 - 1, 2**63, 2**64 + 1, 3**41)
        assert factorize(np.array(vals, dtype=object)) == [factorize(v) for v in vals]
        assert factorize(np.array((), dtype=object)) == []

    def test_recount_mismatch_raises(self, monkeypatch):
        # the recount check must hold under python -O too, so it raises
        # every element reported as 7: 7 would be counted three times
        monkeypatch.setattr(G, "factorize", lambda vals: [{7: 1} for _ in vals])
        with pytest.raises(RuntimeError):
            G.model_problem_search(G.GcdInstance((7, 10, 12), 2))


class TestChow:
    def test_y10_exact_numbers(self):
        rep = G.chow_counterexample(10)
        assert rep.Q == 9699690
        assert set(rep.S) == {881790, 746130, 570570, 510510}
        assert rep.B == Fraction(9699690, 400)
        assert float(rep.B) == pytest.approx(24249.225)
        assert rep.pair_gcd_min == 30030  # Q/(17*19)
        assert rep.triple_gcd_max == 3990  # Q/(11*13*17)
        assert rep.verified
        assert rep.max_multiplicity == 2

    def test_y6_two_elements(self):
        rep = G.chow_counterexample(6)
        assert len(rep.S) == 2  # primes 7 and 11 in (6, 12]
        assert rep.verified and rep.max_multiplicity == 2

    def test_scaling(self):
        for y in (10, 15, 20):
            rep = G.chow_counterexample(y)
            assert rep.verified and rep.max_multiplicity == 2

    def test_small_y_rejected(self):
        with pytest.raises(UsageError):
            G.chow_counterexample(3)


class TestGreenWalker:
    def test_all_multiples(self):
        inst = G.GcdInstance((100, 110, 120, 130), 10)
        delta, ratio = G.green_walker_ratio(inst, inst)
        assert delta == 1.0
        # |R||S| B^2 / (XY) for the natural construction stays O(1)
        assert ratio <= 1.0

    def test_no_pairs(self):
        delta, ratio = G.green_walker_ratio(G.GcdInstance((3, 5), 2), G.GcdInstance((7, 11), 2))
        assert delta == 0.0 and ratio == 0.0

    def test_past_float_range(self):
        # |R||S|B^2 past the float range at delta = 0, then X*Y past it at delta = 1
        assert G.green_walker_ratio(G.GcdInstance((12, 18, 30), 10**200), G.GcdInstance((12, 18, 30), 10**200)) == (0.0, 0.0)
        big = G.GcdInstance((2 * 10**200, 3 * 10**200, 5 * 10**200), 2)
        assert G.green_walker_ratio(big, big) == (1.0, 0.0)
        # the exact quotient 10^600 is past it too: refused, typed
        huge = G.GcdInstance((1, 10**300), 10**300)
        with pytest.raises(CapExceeded):
            G.green_walker_ratio(huge, huge)
        # in range, an exact quotient scaled by delta^2.1 where the float expression overflows
        wide = G.GcdInstance((10**160, 10**160 + 10**150), 10**150)
        delta, ratio = G.green_walker_ratio(wide, wide)
        assert delta == 1.0 and ratio == float(Fraction(4 * 10**300, (10**160) ** 2))

    def test_chow_trend_bounded(self):
        ratios = []
        for y in (10, 15, 20):
            rep = G.chow_counterexample(y)
            inst = G.GcdInstance(rep.S, math.ceil(rep.B))
            _, ratio = G.green_walker_ratio(inst, inst)
            ratios.append(ratio)
        assert all(r < 50 for r in ratios)


class TestBeyondInt64:
    """The chow y = 30 set has elements near 1.1e22, above 2^63."""

    def setup_method(self):
        self.S = G.chow_counterexample(30).S
        assert max(self.S) >= 1 << 63
        p, q = 41, 47  # gcd(Q/p', Q/p'') = Q/(p'p''): the pairs with p'p'' <= 41*47 pass
        self.B = G.chow_counterexample(30).Q // (p * q)

    def test_build_matches_math_gcd(self):
        g = G.build_gcd_graph(G.GcdInstance(self.S, self.B))
        vals = sorted(self.S)
        want = [(u, v) for i, u in enumerate(vals) for v in vals[i + 1 :] if math.gcd(u, v) >= self.B]
        assert 0 < len(want) < len(vals) * (len(vals) - 1) // 2
        assert list(g.edges) == want
        assert g.density == len(want) / (len(vals) * (len(vals) - 1) // 2)

    def test_bipartite_matches_math_gcd(self):
        vals = sorted(self.S)
        g = G.bipartite_from_set(G.GcdInstance(self.S, self.B))
        want = [(i, j) for i, u in enumerate(vals) for j, v in enumerate(vals) if math.gcd(u, v) >= self.B]
        assert list(g.edges) == want
        assert all(type(k) is int for e in g.edges for k in e)

    @pytest.mark.parametrize("search", [G.model_problem_search, G.compress_greedy])
    def test_one_factorize_call_across_2_63(self, monkeypatch, search):
        # the split at 2^63 is the primes module's: all of S goes in one call
        S = (6, 10, 15, 2**63 - 1, 2**63, 3 * 2**64, 5 * 2**64)
        calls = []
        monkeypatch.setattr(G, "factorize", lambda arr: calls.append(arr.tolist()) or factorize(arr))
        assert search(G.GcdInstance(S, 2))
        assert calls == [list(S)]

    def test_green_walker_matches_math_gcd(self):
        R, S = sorted(self.S)[:4], sorted(self.S)[2:]
        delta, ratio = G.green_walker_ratio(G.GcdInstance(tuple(R), self.B), G.GcdInstance(tuple(S), self.B))
        hits = sum(1 for x in R for y in S if math.gcd(x, y) >= self.B)
        assert 0 < hits < len(R) * len(S)
        assert delta == hits / (len(R) * len(S))
        assert ratio == len(R) * len(S) * self.B * self.B * delta**2.1 / (R[0] * S[0])


class TestCompression:
    def test_shared_prime_keeps_measure(self):
        # p divides every vertex: the (p|v, p|w) candidate keeps the edge set
        # and the a*b/gcd^2 factor cancels p^2/p^2
        S = (6, 12, 30)
        g = G.bipartite_from_set(G.GcdInstance(S, 2))
        cands = compression_step(g, 2)
        both = next(c for c in cands if c.keep_v and c.keep_w)
        assert len(both.graph.edges) == len(g.edges)
        assert both.graph.a == 2 and both.graph.b == 2
        assert both.measure == pytest.approx(g.quality)
        empties = [c for c in cands if c.empty]
        assert len(empties) == 3

    def test_untouched_prime_leaves_graph(self):
        S = (3, 9, 15)
        g = G.bipartite_from_set(G.GcdInstance(S, 3))
        cands = compression_step(g, 7)
        neither = next(c for c in cands if not c.keep_v and not c.keep_w)
        assert neither.graph.V == g.V and len(neither.graph.edges) == len(g.edges)
        assert neither.measure == pytest.approx(g.quality)

    def test_chow_split_at_eleven(self):
        rep = G.chow_counterexample(10)
        g = G.bipartite_from_set(G.GcdInstance(rep.S, math.ceil(rep.B)))
        cands = compression_step(g, 11)
        for c in cands:
            n_v = len(c.graph.V)
            assert n_v in (1, 3)  # Q/11 lacks the factor 11; the rest keep it
        # vertex sets tile V x W and the edges partition
        assert sum(len(c.graph.V) * len(c.graph.W) for c in cands) == 16
        assert sum(len(c.graph.edges) for c in cands) == len(g.edges)

    @given(
        st.sets(st.integers(2, 400), min_size=2, max_size=10),
        st.integers(1, 20),
        st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_invariants(self, S, B, p):
        g = G.bipartite_from_set(G.GcdInstance(tuple(S), B))
        cands = compression_step(g, p)
        assert len(cands) == 4
        assert sum(len(c.graph.V) for c in cands) == 2 * len(g.V)
        assert sum(len(c.graph.edges) for c in cands) == len(g.edges)

    def test_divisibility_tracked(self):
        g = G.BipartiteGcdGraph((4, 8), (6, 12), ((0, 0),), a=4, b=6)
        assert g.quality > 0
        with pytest.raises(UsageError):
            G.BipartiteGcdGraph((4, 9), (6,), (), a=4, b=6)

    def test_step_keeps_a_present_prime_once(self):
        # p = 2 already divides a = 4 and b = 6: imposing it again must not
        # multiply the divisors, or a = 8 would no longer divide V
        g = G.BipartiteGcdGraph((4, 12), (6, 18), ((0, 0), (1, 1)), a=4, b=6)
        for c in compression_step(g, 2):
            assert (c.graph.a, c.graph.b) == (4, 6)
            assert all(v % c.graph.a == 0 for v in c.graph.V)
            assert all(w % c.graph.b == 0 for w in c.graph.W)

    def test_greedy_driver_runs(self):
        rep = G.chow_counterexample(10)
        final = G.compress_greedy(G.GcdInstance(rep.S, math.ceil(rep.B)))
        assert final.V and final.W
        assert all(v % final.a == 0 for v in final.V)
        assert all(w % final.b == 0 for w in final.W)

    def test_nonprime_rejected(self):
        g = G.bipartite_from_set(G.GcdInstance((4, 6), 2))
        with pytest.raises(UsageError):
            compression_step(g, 6)

    def test_hard_composite_rejected_as_nonprime(self):
        # both factors lie above the trial limit of factorize: still "not prime"
        g = G.bipartite_from_set(G.GcdInstance((4, 6), 2))
        with pytest.raises(UsageError, match="not prime"):
            compression_step(g, 1_000_003 * 1_000_033)

    @given(
        st.sets(st.integers(2, 3000), min_size=1, max_size=14),
        st.integers(1, 40),
    )
    @example({1}, 1)  # no prime: the walk ends before its first step
    @example({2, 3}, 40)  # no edge: every score is 0
    @example({4}, 5)  # one vertex, no edge: a step at score 0 still takes 2 into a and b
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_every_candidate_loop(self, S, B):
        assert_same_graph(G.compress_greedy(G.GcdInstance(tuple(S), B)), greedy_every_candidate(S, B))

    @pytest.mark.parametrize("y", [10, 20, 30])
    def test_greedy_matches_every_candidate_loop_on_chow(self, y):
        # at y = 30 the elements exceed 2^63
        rep = G.chow_counterexample(y)
        B = math.ceil(rep.B)
        assert_same_graph(G.compress_greedy(G.GcdInstance(rep.S, B)), greedy_every_candidate(rep.S, B))


def quality_by_fraction(g):
    """delta^10 * |V| * |W| * a*b/gcd(a,b)^2, with the last factor a Fraction."""
    if not g.V or not g.W:
        return 0.0
    d = math.gcd(g.a, g.b)
    density = len(g.edges) / (len(g.V) * len(g.W))
    return density**10 * len(g.V) * len(g.W) * float(Fraction(g.a * g.b, d * d))


def greedy_every_candidate(S, B):
    """The compression driver that builds all four candidate graphs of every
    prime at every step, re-factoring the vertices each time, on a start
    graph from math.gcd, with measures from ``quality_by_fraction``."""
    vals = tuple(sorted(set(S)))
    edges = tuple(
        (i, j) for i, v in enumerate(vals) for j, w in enumerate(vals) if math.gcd(v, w) >= B
    )
    g = G.BipartiteGcdGraph(vals, vals, edges)
    used = set()
    budget = max(1, int(10 * math.log(max(2, len(g.V)))))
    while budget > 0:
        primes = set()
        for v in g.V + g.W:
            primes.update(factorize(v))
        primes -= used
        if not primes:
            break
        best = best_p = best_m = None
        for p in sorted(primes):
            for cand in compression_step(g, p):
                m = quality_by_fraction(cand.graph)
                if not cand.empty and (best is None or m > best_m):
                    best, best_p, best_m = cand, p, m
        if best is None:
            break
        used.add(best_p)
        if best_m <= quality_by_fraction(g):
            budget -= 1
        g = best.graph
    return g


def assert_same_graph(got, want):
    assert (got.V, got.W, got.edges, got.a, got.b) == (want.V, want.W, want.edges, want.a, want.b)
    assert got.quality == quality_by_fraction(want)


class TestCaps:
    def test_graph_cap(self):
        with pytest.raises(CapExceeded):
            G.build_gcd_graph(G.GcdInstance(tuple(range(1, 10**4 + 2)), 2))
