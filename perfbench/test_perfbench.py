"""Tests of the benchmark itself: planted wrong answers must fail their
oracles, committed references must agree with the independent witnesses,
and tracing must not change any output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import io
import itertools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as orc  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402



@functools.cache
def refs() -> dict:
    return json.loads((HERE / "references.json").read_text())


def _op(workload, name, choice, tmp_path=None):
    inputs = wl.setup(workload, choice, tmp_path)
    return next(op for op in wl.ops(workload, inputs) if op.name == name)


def _verdict(op, out):
    return wl.check(op, json.dumps(out), refs())


def test_references_cover_every_family_member():
    from record_references import FAMILIES

    keys = set()
    for workload, fams in FAMILIES.items():
        for values in itertools.product(*fams.values()):
            choice = dict(zip(fams, values))
            inputs = dict(choice, S=[], set_path="", prefix_path="")
            keys |= {op.key for op in wl.ops(workload, inputs)}
    assert keys == set(refs())


def test_committed_ap_counts_partition_the_primes():
    for theta in wl.THETA_FAMILY:
        counts = [refs()[f"census.primes:a={a},theta={theta}"]["ap"]["count"] for a in wl.AP_FAMILY]
        assert sum(counts) == wl.PI_1E8 - 2  # 2 and 5 lie in no class coprime to 10


def test_planted_census_count_off_by_one_fails():
    op = _op("census", "census.sieve", {"b": 3, "pair": "1.3", "a": 1, "theta": wl.THETA_FAMILY[0]})
    good = refs()[op.key]
    assert _verdict(op, good) == []
    bad = dict(good, countPrimesA=good["countPrimesA"] + 1)
    assert _verdict(op, bad)
    bad = dict(good, countA=good["countA"] - 1)
    assert _verdict(op, bad)


@pytest.mark.parametrize("name", ["certify.sigma1", "certify.sigma2"])
def test_planted_certified_bounds(name):
    op = _op("certify", name, {"b": 7})
    good = refs()[op.key]
    assert _verdict(op, good) == []
    # a tighter certified bound (what a better kernel gives) still passes
    assert _verdict(op, dict(good, bound=good["bound"] * (1 - 1e-6))) == []
    # looser than the committed bound, or not certified: failure
    assert _verdict(op, dict(good, bound=good["bound"] * (1 + 1e-6)))
    assert _verdict(op, dict(good, certified=False))
    # below what the sampled matrix already forces: failure
    assert _verdict(op, dict(good, bound=good["bound"] * 0.9))


def test_planted_scan_first_pass_fails():
    op = _op("certify", "certify.scan", {"b": 1})
    rows = refs()[op.key]

    def csv_text(rs):
        lines = ["q,value,threshold,passes"] + [f"{r['q']},{r['value']},{r['threshold']},{r['passes']}" for r in rs]
        return "\n".join(lines) + "\n"

    assert wl.check(op, csv_text(rows), refs()) == []
    moved = [dict(r) for r in rows]
    idx = [int(r["q"]) for r in moved].index(wl.FIRST_SIN_PASS)
    moved[idx - 1]["passes"] = "true"
    assert wl.check(op, csv_text(moved), refs())


def test_planted_identity_and_compression_failures(tmp_path):
    op = _op("circle", "circle.assembly", {"b": 4})
    good = refs()[op.key]
    assert _verdict(op, good) == []
    assert _verdict(op, dict(good, identitySum=good["identitySum"] + 0.7))
    op = _op("dioph", "gcdgraph.compress", {"c": "1/3", "set": 2}, tmp_path)
    good = refs()[op.key]
    assert _verdict(op, good) == []
    assert _verdict(op, dict(good, a=str(int(good["a"]) * 2)))


@pytest.mark.parametrize("b", wl.B_FAMILY)
def test_witnesses_lie_below_committed_bounds(b):
    digits = [d for d in range(10) if d != b]
    for name, sigma in (("certify.sigma1", 1.0), ("certify.sigma2", wl.SIGMA2)):
        witness = orc.perron_lower_witness(digits, 10, 4, sigma)
        assert 0.99 * refs()[f"{name}:b={b}"]["bound"] < witness <= refs()[f"{name}:b={b}"]["bound"]


def test_count_members_matches_brute_force():
    for digits in ([1, 3], [0, 2, 5, 9], list(range(10))):
        for x in (0, 1, 9, 10, 99, 100, 313, 1000, 4321):
            brute = sum(1 for n in range(x + 1) if set(str(n)) <= {str(d) for d in digits})
            assert orc.count_members(digits, 10, x) == brute


def _small_ops():
    from restricta import dioph, markov
    from restricta.digit_systems import DigitSystem

    def cli(*argv):
        from restricta import cli as _cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            _cli.main(list(argv))
        return out.getvalue()

    sys7 = DigitSystem.excluding(10, {7})
    return [
        lambda: cli("census", "--sys", "q=10,exclude=7", "--x", "2000000"),
        lambda: cli("census", "--sys", "q=10,D=1.3", "--x", "10000000"),
        lambda: cli("arcs", "--sys", "q=10,exclude=7", "-k", "4", "--full-scan", "--A", "1.5"),
        lambda: repr(markov.row_sum_bound(markov.build_matrix(sys7, 2, 1.0, grid=16))),
        lambda: cli("dioph", "--psi", "constant:1/3", "--cmd", "measure", "--Q", "2", "--R", "40"),
        lambda: repr(dioph.quasi_independence_ratio(dioph.PsiFunction.parse("constant:1/3"), 2, 20)),
    ]


def test_traced_outputs_equal_untraced_outputs():
    ops = _small_ops()
    plain = [op() for op in ops]
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.active = True
        traced = [op() for op in ops]
        tracer.active = False
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {r["name"] for r in tracer.records}
    for stage in ("primes.sieve", "primes.digit_filter", "primes.is_prime_int", "primes.spectrum",
                  "markov.cell_sup_build", "markov.power_iteration", "dioph.interval_normalisation",
                  "fourier.sa_chunks", "arcs.classify_all", "cli.main"):
        assert stage in names
    ids = {r["id"] for r in tracer.records}
    assert all(r["parent"] is None or r["parent"] in ids for r in tracer.records)
    assert all(r["self"] >= -1e-9 for r in tracer.records)
    m = tr.layer_metrics(tracer.records, 0.0)
    assert m["digit_systems.route_sieve"] == 1 and m["digit_systems.route_enumerate"] == 1
    assert m["markov.cell_evals"] == 10**3 * 17
    # uninstall restored every binding
    from restricta import arcs, primes

    assert arcs.prime_spectrum is primes.prime_spectrum
    assert not hasattr(primes.prime_spectrum, "__wrapped__")


def test_tracer_counts_each_error_once():
    from restricta import markov
    from restricta.digit_systems import DigitSystem
    from restricta.errors import UsageError

    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.active = True
        with pytest.raises(UsageError):
            with tracer.span("op.bad"):
                markov.certify_base(DigitSystem.excluding(10, {7}), 0)
        tracer.active = False
    finally:
        tracer.uninstall()
    m = tr.layer_metrics(tracer.records, 0.0)
    assert m["markov.errors"] == 1
    assert sum(v for k, v in m.items() if k.endswith(".errors")) == 1
