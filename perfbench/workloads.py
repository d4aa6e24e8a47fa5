"""The four workloads: seeded input families, operations and their checks.

Each workload draws its inputs from fixed finite families with
``random.Random(seed)``, so the work per run is the same within a few
percent while the inputs change with the seed.  The families:

* ``B_FAMILY``: the missing digit b of the base-10 systems.  Digits 0 and 9
  are left out: without 9 the allowed set is the run 0..8, which the
  program evaluates by another, cheaper window formula, and without 0 the
  circle identity no longer reproduces the exact count.
* ``PAIR_FAMILY``: the two allowed digits of the enumerate-route census.
  Both pairs are odd, avoid 5 and hold one multiple of 3, so the same share
  of their 262142 candidates survives trial division by 2, 3 and 5; both
  have about 18700 primes, each of which costs all twelve Miller-Rabin
  rounds.  (The pairs 3.7 and 7.9 have the same shape but about 15900
  primes, and run 15% faster.)
* ``AP_FAMILY`` and ``THETA_FAMILY``: the residue class mod 10 and the
  frequency of the prime exponential sum.
* ``C_FAMILY``: the constant psi = c of the exact-measure operations.  All
  have small numerators and large merged-interval denominators.
* ``GCD_SETS``: indices of 2000-element integer sets below 10^9, each
  generated by ``random.Random(index)``.

Operations run through ``restricta.cli.main(argv)`` where a subcommand
covers them and through the public library function otherwise.  Every
output is checked against the value committed for the same family member
in ``references.json`` (written by ``record_references.py``) and, where a
definition allows it, against an independent witness from ``oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles as orc
from oracles import REL, close, parse

WORKLOADS = ("certify", "census", "circle", "dioph")

B_FAMILY = (1, 2, 3, 4, 5, 6, 7, 8)
PAIR_FAMILY = ("1.3", "1.9")
AP_FAMILY = (1, 3, 7, 9)
THETA_FAMILY = ("0.41421356237309515", "0.6180339887498949", "0.14159265358979312", "0.7182818284590451")
C_FAMILY = ("1/3", "1/4", "1/5", "2/5", "1/6")
GCD_SETS = tuple(range(8))

GCD_SET_SIZE = 2000
GCD_MAX = 10**9
# compression factors every element of V and W again at each greedy step,
# so it runs on a prefix of the set to stay near one second
COMPRESS_SIZE = 400
CENSUS_SIEVE_X = 300_000_000
CENSUS_ENUM_X = 10**17
PRIMES_LIMIT = 100_000_000
PI_1E8 = 5_761_455  # pi(10^8)
SCAN = (133_300, 133_400)
FIRST_SIN_PASS = 133_359
SIGMA2 = 235 / 154
THRESH1 = 10 ** (27 / 77)
THRESH2 = 10 ** (59 / 433)


class OpFailed(Exception):
    """The program returned an error status instead of a result."""


@dataclass
class Op:
    name: str  # operation name, the same for every family member
    key: str  # reference key: name plus the family member it ran on
    run: Callable[[], str]  # the timed call; returns the output text
    check: Callable[[str, object], list]  # (output, committed reference) -> problems


def choose(workload: str, seed: int) -> dict:
    """The family members a seed selects for a workload."""
    rng = random.Random(seed)
    if workload in ("certify", "circle"):
        return {"b": rng.choice(B_FAMILY)}
    if workload == "census":
        return {
            "b": rng.choice(B_FAMILY),
            "pair": rng.choice(PAIR_FAMILY),
            "a": rng.choice(AP_FAMILY),
            "theta": rng.choice(THETA_FAMILY),
        }
    if workload == "dioph":
        return {"c": rng.choice(C_FAMILY), "set": rng.choice(GCD_SETS)}
    raise ValueError(f"unknown workload {workload!r}")


def gcd_set(index: int) -> list[int]:
    rng = random.Random(index)
    out: set[int] = set()
    while len(out) < GCD_SET_SIZE:
        out.add(rng.randrange(2, GCD_MAX))
    return sorted(out)


def setup(workload: str, choice: dict, workdir) -> dict:
    """Generate the inputs; files written here are listed under "files"."""
    inputs = dict(choice)
    if workload == "dioph":
        S = gcd_set(choice["set"])
        inputs["S"] = S
        inputs["set_path"] = str(workdir / f"gcdset-{choice['set']}.txt")
        inputs["prefix_path"] = str(workdir / f"gcdset-{choice['set']}-prefix.txt")
        with open(inputs["set_path"], "w") as fh:
            fh.write("\n".join(map(str, S)) + "\n")
        with open(inputs["prefix_path"], "w") as fh:
            fh.write("\n".join(map(str, S[:COMPRESS_SIZE])) + "\n")
        inputs["files"] = (inputs["set_path"], inputs["prefix_path"])
    return inputs


def cli(*argv) -> str:
    """Run one CLI command in-process; stdout is the output, stderr the manifest."""
    from restricta import cli as _cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = _cli.main([str(a) for a in argv])
    if status != 0:
        raise OpFailed(f"exit {status}: {out.getvalue()[:200]}")
    return out.getvalue()


def as_text(obj) -> str:
    from restricta.cli import canonical

    return json.dumps(canonical(obj), sort_keys=True)


def _need(problems, cond, message):
    if not cond:
        problems.append(message)


def _cached(store: dict, key, compute):
    """Witnesses cost up to a second, so each is computed once per run."""
    if key not in store:
        store[key] = compute()
    return store[key]


# ----------------------------------------------------------------- certify


def certify_ops(inp: dict) -> list[Op]:
    witnesses: dict = {}
    from restricta import fourier, markov
    from restricta.digit_systems import DigitSystem

    b = inp["b"]
    sys_b = DigitSystem.excluding(10, {b})
    digits = [d for d in range(10) if d != b]

    def certificate(sigma, threshold):
        def run():
            m = markov.build_matrix(sys_b, 4, sigma)
            bound = markov.row_sum_bound(m)
            return as_text({"bound": bound, "threshold": threshold, "certified": bound < threshold})

        def check(text, ref):
            out, p = parse(text), []
            witness = _cached(witnesses, sigma, lambda: orc.perron_lower_witness(digits, 10, 4, sigma))
            _need(p, close(out["threshold"], threshold, 1e-15), "threshold changed")
            _need(p, out["certified"] and out["bound"] < threshold, f"not certified: {out['bound']}")
            _need(p, out["bound"] <= ref["bound"] * (1 + REL), f"bound {out['bound']} above committed {ref['bound']}")
            _need(p, out["bound"] >= witness, f"bound {out['bound']} below witness {witness}")
            return p

        return run, check

    run1, check1 = certificate(1.0, THRESH1)
    run2, check2 = certificate(SIGMA2, THRESH2)

    def run_refined():
        return as_text(fourier.refined_digit_sum(501))

    def check_refined(text, ref):
        out, p = parse(text), []
        per = out["per_digit"]
        _need(p, len(per) == 501 and out["value"] == max(per), "value is not the worst digit")
        _need(p, out["value"] <= ref["value"] * (1 + REL), "refined sum above committed")
        _need(p, all(x <= r * (1 + REL) for x, r in zip(per, ref["per_digit"])), "a per-digit sum above committed")
        _need(p, close(out["threshold"], ref["threshold"], 1e-12), "threshold changed")
        _need(p, out["passes"] == (out["value"] < out["threshold"]), "passes flag inconsistent")
        for digit in sorted({per.index(max(per)), per.index(min(per))}):
            witness = _cached(witnesses, digit, lambda: orc.window_sum_witness(501, digit))
            _need(p, per[digit] >= witness, f"digit {digit} below witness")
        return p

    def run_scan():
        return cli("fourier", "--check", "sin-sum", "--scan", f"{SCAN[0]}..{SCAN[1]}")

    def check_scan(text, ref):
        rows, p = parse(text), []
        _need(p, [int(r["q"]) for r in rows] == list(range(SCAN[0], SCAN[1] + 1)), "scan rows incomplete")
        if p:
            return p
        passing = [int(r["q"]) for r in rows if r["passes"] == "true"]
        _need(p, passing[:1] == [FIRST_SIN_PASS], f"first passing q {passing[:1]}")
        for r, c in zip(rows, ref):
            v, t = float(r["value"]), float(r["threshold"])
            _need(p, (r["passes"] == "true") == (v < t), f"q={r['q']} passes flag inconsistent")
            _need(p, close(v, float(c["value"])) and close(t, float(c["threshold"])), f"q={r['q']} value changed")
        return p

    return [
        Op("certify.sigma1", f"certify.sigma1:b={b}", run1, check1),
        Op("certify.sigma2", f"certify.sigma2:b={b}", run2, check2),
        Op("certify.refined", "certify.refined", run_refined, check_refined),
        Op("certify.scan", "certify.scan", run_scan, check_scan),
    ]


# ------------------------------------------------------------------ census


def _check_census(text, ref, digits, x):
    out, p = parse(text), []
    _need(p, out["x"] == x, "x changed")
    _need(p, out["countA"] == orc.count_members(digits, 10, x), f"countA {out['countA']} wrong")
    _need(p, out["countPrimesA"] == ref["countPrimesA"], f"countPrimesA {out['countPrimesA']} != {ref['countPrimesA']}")
    _need(p, close(out["predicted"], ref["predicted"], 1e-12), "prediction changed")
    _need(p, close(out["ratio"], out["countPrimesA"] / out["predicted"], 1e-12), "ratio inconsistent")
    return p


def census_ops(inp: dict) -> list[Op]:
    b, pair, a, theta = inp["b"], inp["pair"], inp["a"], inp["theta"]
    excl_digits = [d for d in range(10) if d != b]
    pair_digits = [int(d) for d in pair.split(".")]

    def run_sieve():
        return cli("census", "--sys", f"q=10,exclude={b}", "--x", CENSUS_SIEVE_X)

    def run_enum():
        return cli("census", "--sys", f"q=10,D={pair}", "--x", CENSUS_ENUM_X)

    def run_primes():
        return cli("primes", "--limit", PRIMES_LIMIT, "--ap", f"10,{a}", "--exp-sum", theta)

    def check_primes(text, ref):
        out, p = parse(text), []
        _need(p, out["N"] == PRIMES_LIMIT and out["pi"] == PI_1E8, f"pi(10^8) = {out['pi']}")
        _need(p, out["ap"] == {"q": 10, "a": a, "count": ref["ap"]["count"]}, f"AP count {out['ap']} wrong")
        v, r = out["value"], ref["value"]
        _need(p, abs(v["re"] - r["re"]) <= 1e-6 and abs(v["im"] - r["im"]) <= 1e-6, "S_P(theta) changed")
        return p

    return [
        Op("census.sieve", f"census.sieve:b={b}", run_sieve,
           lambda t, r: _check_census(t, r, excl_digits, CENSUS_SIEVE_X)),
        Op("census.enumerate", f"census.enumerate:D={pair}", run_enum,
           lambda t, r: _check_census(t, r, pair_digits, CENSUS_ENUM_X)),
        Op("census.primes", f"census.primes:a={a},theta={theta}", run_primes, check_primes),
    ]


# ------------------------------------------------------------------ circle


def circle_ops(inp: dict) -> list[Op]:
    witnesses: dict = {}
    from restricta import fourier
    from restricta.digit_systems import DigitSystem

    b = inp["b"]
    spec = f"q=10,exclude={b}"
    profile = fourier.FourierProfile(DigitSystem.excluding(10, {b}), 6)

    def indicator():
        return _cached(witnesses, "ind", lambda: orc.members_below(b, 10, 6))

    def run_assembly():
        return cli("arcs", "--sys", spec, "-k", 6)

    def check_assembly(text, ref):
        out, p = parse(text), []
        primes = _cached(witnesses, "primes", lambda: orc.primes_in_set(indicator()))
        _need(p, out["exactCount"] == ref["exactCount"] == primes, f"exact count {out['exactCount']} wrong")
        _need(p, round(out["identitySum"]) == out["exactCount"], f"identity sum {out['identitySum']} off")
        _need(p, close(out["primaryTerm"], ref["primaryTerm"]) and close(out["prediction"], ref["prediction"]),
              "primary term or prediction changed")
        return p

    def run_breakdown():
        return cli("arcs", "--sys", spec, "-k", 6, "--full-scan", "--A", 1.5)

    def check_breakdown(text, ref):
        rows, p = parse(text), []
        _need(p, [r["class"] for r in rows] == [r["class"] for r in ref], "classes changed")
        if p:
            return p
        _need(p, sum(int(r["count"]) for r in rows) == 10**6, "class counts do not cover the grid")
        for r, c in zip(rows, ref):
            _need(p, r["count"] == c["count"], f"{r['class']} count {r['count']} != {c['count']}")
            _need(p, close(float(r["mass"]), float(c["mass"])), f"{r['class']} mass changed")
        return p

    def run_mean():
        return as_text(fourier.mean_l1(profile))

    def check_mean(text, ref):
        v, p = parse(text), []
        l1 = _cached(witnesses, "l1", lambda: orc.l1_by_fft(indicator()))
        _need(p, close(v, ref), f"mean L1 {v} != committed {ref}")
        _need(p, close(v, l1, 1e-7), f"mean L1 {v} != FFT {l1}")
        return p

    def run_tail():
        return as_text(fourier.moment_tail(profile, 1.5, 10))

    def check_tail(text, ref):
        (count, bound), p = parse(text), []
        _need(p, count == ref[0], f"exceedance count {count} != {ref[0]}")
        _need(p, count <= bound and close(bound, ref[1]), "moment bound wrong")
        return p

    return [
        Op("circle.assembly", f"circle.assembly:b={b}", run_assembly, check_assembly),
        Op("circle.breakdown", f"circle.breakdown:b={b}", run_breakdown, check_breakdown),
        Op("circle.mean_l1", f"circle.mean_l1:b={b}", run_mean, check_mean),
        Op("circle.moment_tail", f"circle.moment_tail:b={b}", run_tail, check_tail),
    ]


# ------------------------------------------------------------------- dioph


def _fraction(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def dioph_ops(inp: dict) -> list[Op]:
    from restricta import dioph

    c = inp["c"]
    S = inp["S"]
    B = 1000

    def run_measure():
        return cli("dioph", "--psi", f"constant:{c}", "--cmd", "measure", "--Q", 2, "--R", 400)

    def check_measure(text, ref):
        out, p = parse(text), []
        m = _fraction(out["measure"])
        _need(p, m == _fraction(ref["measure"]), "exact measure changed")
        _need(p, 0 < m <= 1, "measure outside (0, 1]")
        return p

    def run_ratio():
        return as_text(dioph.quasi_independence_ratio(dioph.PsiFunction.parse(f"constant:{c}"), 2, 120))

    def check_ratio(text, ref):
        v = parse(text)
        return [] if close(v, ref, 1e-12) else [f"ratio {v} != {ref}"]

    def run_series():
        return cli("dioph", "--psi", "ds_spread", "--cmd", "series", "--Q", 1_000_000)

    def check_series(text, ref):
        out = parse(text)
        ok = out["Q"] == 1_000_000 and all(close(out[k], ref[k], 1e-12) for k in ("khinchinSum", "dsSum"))
        return [] if ok else ["series sums changed"]

    def run_model():
        return cli("gcdgraph", "--cmd", "model", "--set", inp["set_path"], "--B", B)

    def check_model(text, ref):
        out, p = parse(text), []
        _need(p, out["found"] and (out["g"], out["multiplicity"]) == (ref["g"], ref["multiplicity"]),
              f"model answer {out} != {ref}")
        g = int(out.get("g", 0) or 0)
        _need(p, g >= B and sum(1 for s in S if s % g == 0) == out.get("multiplicity"), "multiplicity recount fails")
        return p

    def run_compress():
        return cli("gcdgraph", "--cmd", "compress", "--set", inp["prefix_path"], "--B", B)

    def check_compress(text, ref):
        out, p = parse(text), []
        for k in ("V", "W", "a", "b"):
            _need(p, out[k] == ref[k], f"compression {k} changed")
        _need(p, close(out["quality"], ref["quality"], 1e-12), "quality changed")
        a, b_ = int(out["a"]), int(out["b"])
        _need(p, all(int(v) % a == 0 for v in out["V"]) and all(int(w) % b_ == 0 for w in out["W"]),
              "tracked divisor does not divide its side")
        return p

    def run_chow():
        return cli("gcdgraph", "--cmd", "chow", "--y", 30)

    def check_chow(text, ref):
        out, p = parse(text), []
        Q = 1
        for q in orc.primes_upto(60):
            Q *= q
        band = [q for q in orc.primes_upto(60) if q > 30]
        _need(p, out["verified"] and out["maxMultiplicity"] == 2, "chow instance not verified")
        _need(p, int(out["Q"]) == Q and out["S"] == [str(Q // q) for q in band], "chow set wrong")
        _need(p, _fraction(out["B"]) == Fraction(Q, 4 * 30 * 30), "chow threshold wrong")
        _need(p, out == ref, "chow report changed")
        return p

    return [
        Op("dioph.measure", f"dioph.measure:c={c}", run_measure, check_measure),
        Op("dioph.quasi_independence", f"dioph.quasi_independence:c={c}", run_ratio, check_ratio),
        Op("dioph.series", "dioph.series", run_series, check_series),
        Op("gcdgraph.model", f"gcdgraph.model:set={inp['set']}", run_model, check_model),
        Op("gcdgraph.compress", f"gcdgraph.compress:set={inp['set']}", run_compress, check_compress),
        Op("gcdgraph.chow", "gcdgraph.chow", run_chow, check_chow),
    ]


OPS = {"certify": certify_ops, "census": census_ops, "circle": circle_ops, "dioph": dioph_ops}


def ops(workload: str, inputs: dict) -> list[Op]:
    return OPS[workload](inputs)


def check(op: Op, text: str, refs: dict) -> list:
    """Problems with one output; a missing reference is itself a problem."""
    if op.key not in refs:
        return [f"no committed reference for {op.key}"]
    try:
        return op.check(text, refs[op.key])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
