import csv
import importlib
import inspect
import io
import itertools
import json
import math
import pkgutil
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import restricta
from restricta import arcs as _arcs
from restricta import cli
from restricta import digit_systems as _ds
from restricta import dioph as _dioph
from restricta import fourier as F
from restricta import gcdgraph as _gcd
from restricta import primes as _primes
from restricta.errors import CapExceeded

from tests.test_dioph import PINNED_RATIOS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MALFORMED_FILES = {
    "zero": "0 6 10\n",
    "negative": "-6 10 15\n",
    "empty": "\n",
    "sets": "6 10 15\n",
    "psi_twice": "n,psi\n3,1/2\n3,1/4\n",
    "psi_negative": "n,psi\n3,-1\n",
    "psi_n0": "n,psi\n0,1/2\n3,1/4\n",
    "psi_huge": "2,1e400\n",
}


class TestBasics:
    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0

    def test_unknown_flag_exits_two(self, capsys):
        for argv in (("fourier", "--nope"), ("--threads", "8", "primes", "--limit", "50")):
            code, _, _ = run_cli(capsys, *argv)
            assert code == 2, argv

    def test_missing_subcommand_exits_two(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_computation_error_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "dioph", "--psi", "constant:0",
                               "--cmd", "select-r", "--Q", "2", "--cap", "50")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "not-reached"

    def test_malformed_sys_spec(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--sys", "q=10", "--x", "50")
        assert code == 2
        assert json.loads(out)["error"] == "usage-error"

    @pytest.mark.parametrize("argv", [
        ("primes", "--limit", "100", "--ap", "10"),
        ("primes", "--limit", "100", "--ap", "x,1"),
        ("fourier", "--check", "sin-sum", "--scan", "5"),
        ("census", "--sys", "q=x,D=1", "--x", "100"),
        ("census", "--sys", "q=10,D=1-x", "--x", "100"),
        ("dioph", "--psi", "power:x", "--cmd", "series"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "measure"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "pairs", "--q", "2"),
        ("dioph", "--psi", "table:/nonexistent.csv", "--cmd", "series"),
        ("gcdgraph", "--cmd", "green-walker", "--set", "/nonexistent"),
        # a non-finite or out-of-range number where the value needs one
        ("certify", "--sys", "q=10,exclude=7", "--ell-max", "1", "--sigma", "nan"),
        ("certify", "--sys", "q=10,exclude=7", "--ell-max", "1", "--sigma", "inf"),
        ("fourier", "--check", "refined", "--q", "10", "--grid", "0"),
        ("fourier", "--check", "refined", "--q", "10", "--grid", "-1"),
        ("fourier", "--check", "margin", "--sys", "q=10,exclude=7", "--grid", "-1"),
        ("arcs", "--sys", "q=10,exclude=7", "-k", "3", "--full-scan", "--A", "nan"),
        ("primes", "--limit", "100", "--exp-sum", "nan"),
        ("dioph", "--psi", "khinchin:nan", "--cmd", "series"),
        ("dioph", "--psi", "power:1e400", "--cmd", "series", "--Q", "10"),
        ("dioph", "--psi", "power:1e400", "--cmd", "hausdorff"),
        ("dioph", "--psi", "constant:1e400", "--cmd", "series", "--Q", "3"),
        ("dioph", "--psi", "constant:1e400", "--cmd", "measure", "--q", "3"),
        # a required companion flag missing, or a flag the route does not take
        ("fourier", "--check", "refined", "--scan", "3..6"),
        ("fourier", "--check", "sin-sum"),
        ("fourier", "--check", "margin"),
        ("gcdgraph", "--cmd", "chow"),
        ("gcdgraph", "--cmd", "build"),
        # a scan whose first q the check refuses: no CSV header before the error
        ("fourier", "--check", "sin-sum", "--scan", "1..4"),
        ("fourier", "--check", "pairwise", "--scan", "3..6"),
        # a flag the chosen mode would ignore
        ("fourier", "--check", "margin", "--sys", "q=10,exclude=7", "--q", "5"),
        ("fourier", "--check", "sin-sum", "--q", "10", "--grid", "4"),
        ("fourier", "--check", "pairwise", "--q", "10", "--grid", "4"),
        ("fourier", "--check", "sin-sum", "--scan", "10..11", "--grid", "0"),
        ("fourier", "--check", "sin-sum", "--q", "10", "--sys", "q=10,exclude=7"),
        ("fourier", "--check", "refined", "--q", "10", "--sys", "q=10,exclude=7"),
        ("fourier", "--check", "pairwise", "--q", "10", "--sys", "q=10,exclude=7"),
        ("fourier", "--check", "pairwise", "--scan", "10..11", "--sys", "q=10,exclude=7"),
        ("fourier", "--check", "sin-sum", "--scan", "10..11", "--q", "10"),
        ("arcs", "--sys", "q=10,exclude=7", "-k", "3", "--A", "1.5"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "pairs", "--q", "6", "--r", "10", "--unreduced"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "measure", "--q", "7", "--R", "10"),
        ("gcdgraph", "--cmd", "chow", "--y", "10", "--set", "/nonexistent"),
        ("dioph", "--psi", "ds_base", "--cmd", "counterexample", "--ell-max", "100"),
        ("dioph", "--cmd", "series", "--Q", "10"),
        ("dioph", "--cmd", "measure", "--Q", "2", "--R", "5"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "quasi", "--Q", "2"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "quasi", "--Q", "2", "--R", "9", "--q", "3"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "quasi", "--Q", "2", "--R", "9", "--unreduced"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "quasi", "--Q", "9", "--R", "2"),
        # a defaulted flag the chosen mode would ignore
        ("dioph", "--psi", "constant:1/2", "--cmd", "pairs", "--q", "2", "--r", "3", "--cap", "5"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "pairs", "--q", "2", "--r", "3", "--Q", "7"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "series", "--Q", "10", "--ell-max", "5"),
        ("dioph", "--psi", "power:2", "--cmd", "hausdorff", "--Q", "9"),
        ("dioph", "--cmd", "counterexample", "--ell-max", "20", "--Q", "5"),
        ("dioph", "--psi", "constant:1/2", "--cmd", "measure", "--q", "7", "--Q", "3"),
        ("gcdgraph", "--cmd", "chow", "--y", "10", "--B", "7"),
        # a set or psi table the computation cannot take (files in MALFORMED_FILES)
        ("gcdgraph", "--cmd", "green-walker", "--set", "{zero}", "--B", "1"),
        ("gcdgraph", "--cmd", "green-walker", "--set", "{sets}", "--set2", "{zero}", "--B", "1"),
        ("gcdgraph", "--cmd", "build", "--set", "{negative}", "--B", "2"),
        ("gcdgraph", "--cmd", "build", "--set", "{sets}", "--B", "0"),
        ("gcdgraph", "--cmd", "compress", "--set", "{empty}", "--B", "2"),
        ("dioph", "--psi", "table:{psi_twice}", "--cmd", "measure", "--q", "3"),
        ("dioph", "--psi", "table:{psi_twice}", "--cmd", "series", "--Q", "3"),
        ("dioph", "--psi", "table:{psi_negative}", "--cmd", "series", "--Q", "3"),
        ("dioph", "--psi", "table:{psi_n0}", "--cmd", "series", "--Q", "3"),
        ("dioph", "--psi", "table:{psi_huge}", "--cmd", "series", "--Q", "3"),
    ])
    def test_malformed_text_is_usage_error(self, capsys, tmp_path, argv):
        paths = {name: tmp_path / name for name in MALFORMED_FILES}
        for name, text in MALFORMED_FILES.items():
            paths[name].write_text(text)
        code, out, _ = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert code == 2
        assert json.loads(out)["error"] == "usage-error"

    def test_readme_cli_lines_run(self, capsys, monkeypatch, tmp_path):
        # every line of the README's CLI block, without its optional [...]
        # parts and with each {a|b} expanded: a result or a usage error
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        lines = [re.sub(r"\s*\[[^]]*\]", "", line) for line in block.splitlines()]
        assert lines and all(line.startswith("restricta ") for line in lines)
        monkeypatch.chdir(tmp_path)  # a file the README names is not there
        for line in lines:
            parts = re.split(r"\{([^}]*)\}", line)  # odd parts: the alternatives of one {a|b}
            for choice in itertools.product(*(part.split("|") for part in parts[1::2])):
                text = "".join(p if i % 2 == 0 else choice[i // 2] for i, p in enumerate(parts))
                code, out, _ = run_cli(capsys, *shlex.split(text)[1:])
                assert code == 0 or (code == 2 and json.loads(out)["error"] == "usage-error"), text

    def test_package_binds_no_function_or_class(self):
        # each function and class has one home, its layer module
        public = {name: obj for name, obj in vars(restricta).items() if not name.startswith("_")}
        assert "fourier" in public
        assert not [name for name, obj in public.items() if inspect.isroutine(obj) or inspect.isclass(obj)]

    def test_only_primes_takes_a_prime_table(self):
        # the layer that sieves decides how large a table is
        takers = []
        for info in pkgutil.iter_modules(restricta.__path__):
            mod = importlib.import_module(f"restricta.{info.name}")
            if info.name == "primes":
                continue
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                for param in inspect.signature(fn).parameters.values():
                    if param.name == "table" or "PrimeTable" in str(param.annotation):
                        takers.append(f"{info.name}.{name}")
        assert not takers

    @pytest.mark.parametrize("c, ratio", PINNED_RATIOS)
    def test_quasi_independence_intersects_no_pair(self, monkeypatch, c, ratio):
        # the overlap sum is one sweep over all events, not a merge per pair
        def refuse(self, other):
            raise AssertionError("pairwise intersection")

        monkeypatch.setattr(_dioph.IntervalUnion, "intersect", refuse)
        psi = _dioph.PsiFunction.constant(Fraction(c))
        assert repr(_dioph.quasi_independence_ratio(psi, 2, 120)) == repr(ratio)

    def test_compress_builds_the_start_graph_and_the_result_only(self, monkeypatch):
        # the greedy walk narrows two vertex masks over the start graph and
        # builds no graph per step
        built = []
        check = _gcd.BipartiteGcdGraph.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(_gcd.BipartiteGcdGraph, "__post_init__", counted)
        S = sorted(random.Random(400).sample(range(2, 10**9), 400))
        final = _gcd.compress_greedy(_gcd.GcdInstance(tuple(S), 1000))
        assert len(built) == 2 and built[-1] is final

    def test_gcdgraph_reads_sets_through_an_instance(self):
        # a set and its threshold are checked once, by GcdInstance, at the CLI edge
        params = {
            name: [p.annotation for p in inspect.signature(fn).parameters.values()]
            for name, fn in inspect.getmembers(_gcd, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == _gcd.__name__
        }
        assert params.pop("chow_counterexample") == ["int"]  # builds its own set from y
        assert len(params) == 5
        assert all(anns and set(anns) == {"GcdInstance"} for anns in params.values()), params


class TestJsonOutputs:
    def test_fourier_sin_sum(self, capsys):
        code, out, err = run_cli(capsys, "fourier", "--check", "sin-sum", "--q", "101")
        assert code == 0
        payload = json.loads(out)
        assert 602.8 <= payload["value"] <= 602.9
        assert payload["passes"] is False
        manifest = json.loads(err)
        assert manifest["subcommand"] == "fourier"
        assert manifest["version"]

    def test_certify_shape(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--sys", "q=10,exclude=7",
                               "--ell-max", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is False
        assert payload["q"] == 10
        assert {"rowSumBound", "powerEstimate", "threshold", "ell"} <= set(payload)

    def test_certify_analytic_route_refuses_sigma_below_one(self, capsys):
        # q^2 above the entry cap: the matrix-free ell = 1 bound holds for sigma >= 1 only
        code, out, _ = run_cli(capsys, "certify", "--sys", "q=133360,exclude=0",
                               "--ell-max", "1", "--sigma", "0.5")
        assert code == 1
        assert json.loads(out)["error"] == "unsupported"

    def test_census(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--sys", "q=10,D=7-9", "--x", "1000")
        payload = json.loads(out)
        assert code == 0
        assert payload["countA"] == 39
        assert payload["sys"]["D"] == [7, 8, 9]

    def test_census_refuses_base_with_two_large_primes(self, capsys):
        # q = 1000000007 * 1000000009: both primes lie above the trial limit
        code, out, _ = run_cli(capsys, "census", "--sys", "q=1000000016000000063,D=1", "--x", "10")
        assert code == 1
        assert json.loads(out)["error"] == "factorization-too-hard"

    @pytest.mark.parametrize("cmd", ["model", "compress"])
    def test_gcdgraph_names_the_first_refused_element(self, capsys, tmp_path, cmd):
        # two elements, each with two prime factors above the trial limit:
        # the message names the smaller, as the per-element scalar walk did
        path = tmp_path / "set.txt"
        path.write_text(f"12\n{3 * 1_000_037 * 1_000_039}\n30\n{2 * 1_000_003 * 1_000_033}\n77\n")
        code, out, _ = run_cli(capsys, "gcdgraph", "--cmd", cmd, "--set", str(path), "--B", "2")
        assert code == 1
        assert out == (
            '{"error":"factorization-too-hard",'
            '"message":"composite cofactor 1000036000099 of 2000072000198"}\n'
        )

    @pytest.mark.parametrize("elements, B", [
        ((12, 18, 30), 10**200),  # |R||S|B^2 past the float range, at delta = 0
        ((2 * 10**200, 3 * 10**200, 5 * 10**200), 2),  # X*Y past the float range, at delta = 1
    ], ids=["B=10^200", "min=2*10^200"])
    def test_gcdgraph_green_walker_past_float_range(self, capsys, tmp_path, elements, B):
        path = tmp_path / "set.txt"
        path.write_text(" ".join(map(str, elements)) + "\n")
        code, out, _ = run_cli(capsys, "gcdgraph", "--cmd", "green-walker", "--set", str(path), "--B", str(B))
        assert code == 0
        assert json.loads(out)["ratio"] == 0.0

    def test_oversized_grid_refused_before_any_array(self, capsys):
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "fourier", "--check", "refined", "--q", "101", "--grid", "10000000")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert json.loads(out)["error"] == "cap-exceeded"

    def test_refined_work_refused_before_any_array(self, capsys):
        # q * grid = 4*10^6 is inside the memory cap, but ceil(q/2)^2 * grid
        # = 3.1*10^10 subcell steps would run for about 20 minutes
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "fourier", "--check", "refined", "--q", "31250", "--grid", "128")
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert json.loads(out)["error"] == "cap-exceeded"

    @pytest.mark.parametrize(
        "q,grid", [(101, 128), (501, 128), (1001, 128), (1001, 256), (101, 39603), (1001, 64), (3534, 64)]
    )
    def test_refined_work_cap_admits_documented_sizes(self, monkeypatch, q, grid):
        # the README's sizes, up to the at-cap example and the largest q of
        # the default grid, pass both caps; the cells are stubbed out so
        # that only the checks run
        monkeypatch.setattr(F, "_refined_cell_sups", lambda q, grid: iter(()))
        assert F.refined_digit_sum(q, grid).details["grid"] == grid

    def test_refined_default_grid_refused_above_documented_q(self, monkeypatch):
        monkeypatch.setattr(F, "_refined_cell_sups", lambda q, grid: iter(()))
        assert F.refined_digit_sum(3534).details["grid"] == 64
        with pytest.raises(CapExceeded):
            F.refined_digit_sum(3535)

    @pytest.mark.parametrize("extra", [(), ("--full-scan", "--A", "1.5")])
    def test_arcs_refuses_above_scan_cap_before_sieving(self, capsys, monkeypatch, extra):
        def refuse(limit):
            raise AssertionError(f"sieved to {limit}")

        monkeypatch.setattr(_arcs, "sieve_primes", refuse)
        monkeypatch.setattr(_primes, "sieve_primes", refuse)
        code, out, _ = run_cli(capsys, "arcs", "--sys", "q=10,exclude=7", "-k", "9", *extra)
        assert code == 1
        assert out == '{"error":"cap-exceeded","message":"N = 1000000000 above scan cap 10000000"}\n'

    @pytest.mark.parametrize("argv, error, status", [
        # q^k is refused before it is formed, and no message writes it out
        (("arcs", "--sys", "q=10,exclude=7", "-k", "5000"), "cap-exceeded", 1),
        (("arcs", "--sys", "q=10,exclude=7", "-k", "5000", "--full-scan"), "cap-exceeded", 1),
        (("arcs", "--sys", "q=10,exclude=7", "-k", "30000000"), "cap-exceeded", 1),
        (("arcs", "--sys", "q=10,exclude=7", "-k", "30000000", "--full-scan"), "cap-exceeded", 1),
        (("arcs", "--sys", f"q={10**4000},D=1", "-k", "2"), "cap-exceeded", 1),
        # integers past float range, a sieve or a candidate-interval count
        (("fourier", "--check", "sin-sum", "--q", str(10**400)), "cap-exceeded", 1),
        (("fourier", "--check", "pairwise", "--q", str(10**400)), "cap-exceeded", 1),
        (("certify", "--sys", f"q={10**400},D=1", "--ell-max", "2"), "cap-exceeded", 1),
        (("gcdgraph", "--cmd", "chow", "--y", str(10**400)), "cap-exceeded", 1),
        (("dioph", "--cmd", "counterexample", "--ell-max", str(10**400)), "cap-exceeded", 1),
        (("dioph", "--psi", "constant:1/2", "--cmd", "measure", "--q", str(10**400)), "cap-exceeded", 1),
        (("dioph", "--psi", "constant:1/2", "--cmd", "pairs", "--q", str(10**400), "--r", "7"), "cap-exceeded", 1),
        # digit systems: each range is checked, and the digits counted, before any is built
        (("census", "--sys", "q=1000000000,exclude=7", "--x", "10"), "cap-exceeded", 1),
        (("certify", "--sys", f"q={10**400},exclude=7", "--ell-max", "1"), "cap-exceeded", 1),
        (("census", "--sys", "q=100000000,D=0-9999999.10000000", "--x", "10"), "cap-exceeded", 1),
        (("census", "--sys", f"q={10**400},exclude=0-{10**400}", "--x", "10"), "cap-exceeded", 1),
        (("census", "--sys", "q=10,D=0-20000000", "--x", "10"), "usage-error", 2),
        (("census", "--sys", f"q=10,D=3.{10**400}", "--x", "10"), "usage-error", 2),
    ], ids=lambda v: " ".join(v).replace(str(10**4000), "10^4000").replace(str(10**400), "10^400")
        if isinstance(v, tuple) else str(v))
    def test_oversized_integers_refused(self, capsys, argv, error, status):
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert (code, json.loads(out)["error"]) == (status, error)

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("extra", [(), ("--full-scan", "--A", "1.5")])
    def test_arcs_refuses_k_below_one_before_sieving(self, capsys, monkeypatch, k, extra):
        def refuse(limit):
            raise AssertionError(f"sieved to {limit}")

        monkeypatch.setattr(_arcs, "sieve_primes", refuse)
        code, out, _ = run_cli(capsys, "arcs", "--sys", "q=10,exclude=7", "-k", k, *extra)
        assert code == 2
        assert out == '{"error":"usage-error","message":"need k >= 1"}\n'

    def test_census_names_both_caps_above_sieve_limit(self, capsys, monkeypatch):
        # 8388606 members of A(10^22) for D = {1, 3}: above the enumerate
        # route's cap, and x above the sieve's limit; refused before either runs
        def refuse(*args):
            raise AssertionError("a route ran")

        monkeypatch.setattr(_ds, "enumerate_restricted", refuse)
        monkeypatch.setattr(_primes, "sieve_primes", refuse)
        code, out, _ = run_cli(capsys, "census", "--sys", "q=10,D=1.3", "--x", str(10**22))
        assert code == 1
        assert out == (
            '{"error":"limit-exceeded","message":"sieve limit 10000000000000000000000 above 2^40'
            ' and |A(x)| = 8388606 above the enumerate cap 4194304"}\n'
        )

    def test_census_refuses_unproven_primality(self, capsys):
        # members of A(10^39) for D = {1} are repunits, up to 10^38 > psi_13;
        # those past 2^63 are tested one by one, in order, so R_26 is named
        code, out, _ = run_cli(capsys, "census", "--sys", "q=10,D=1", "--x", str(10**39))
        assert code == 1
        assert json.loads(out)["error"] == "out-of-range"
        assert json.loads(out)["message"].startswith("1" * 26 + " >= psi_13")

    def test_non_finite_ratio_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--sys", "q=10,exclude=7", "--x", "1")
        assert code == 0
        payload = json.loads(out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert payload["predicted"] == 0.0 and payload["ratio"] is None
        _, out, _ = run_cli(capsys, "--format", "csv", "census", "--sys", "q=10,exclude=7", "--x", "1")
        header, row = csv.reader(io.StringIO(out))  # the quoted sys cell holds commas
        assert dict(zip(header, row))["ratio"] == "null"

    def test_non_finite_complex_parts_are_null(self):
        assert cli.canonical(complex(math.nan, 1.5)) == {"re": None, "im": 1.5}
        assert cli.canonical(complex(2.0, math.inf)) == {"re": 2.0, "im": None}

    def test_primes(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--limit", "100",
                               "--ap", "4,1", "--exp-sum", "0.5")
        payload = json.loads(out)
        assert payload["pi"] == 25
        assert payload["ap"]["count"] == 11
        assert payload["value"]["re"] == pytest.approx(-23.0)

    @pytest.mark.parametrize("q", [10**20, 7 * 10**399 + 1], ids=["q=10^20", "q=7*10^399+1"])
    def test_primes_ap_modulus_past_int64(self, capsys, q):
        # p = 3 is the one prime that is 3 mod q
        code, out, _ = run_cli(capsys, "primes", "--limit", "100", "--ap", f"{q},3")
        assert code == 0
        assert out == '{"N":100,"ap":{"a":3,"count":1,"q":%d},"pi":25}\n' % q

    def test_rationals_as_strings(self, capsys):
        code, out, _ = run_cli(capsys, "dioph", "--psi", "constant:1/2",
                               "--cmd", "pairs", "--q", "2", "--r", "3")
        payload = json.loads(out)
        assert payload["exact"] == {"num": "1", "den": "36"}

    def test_gcdgraph_chow_bigints_as_strings(self, capsys):
        code, out, _ = run_cli(capsys, "gcdgraph", "--cmd", "chow", "--y", "10")
        payload = json.loads(out)
        assert payload["Q"] == "9699690"
        assert payload["B"] == {"num": "969969", "den": "40"}
        assert payload["maxMultiplicity"] == 2

    def test_arcs_main_term(self, capsys):
        code, out, _ = run_cli(capsys, "arcs", "--sys", "q=10,exclude=7", "-k", "3")
        payload = json.loads(out)
        assert code == 0
        assert round(payload["identitySum"]) == payload["exactCount"]

    def test_exact_powers_bounded_and_printed(self, capsys):
        # 3^(10^300) is refused before it is formed; 7^6002, about 5000
        # digits, is printed in full past the int-to-str digit limit
        code, out, _ = run_cli(capsys, "dioph", "--psi", "power:1e300", "--cmd", "measure", "--q", "3")
        assert code == 1
        assert json.loads(out)["error"] == "cap-exceeded"
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "dioph", "--psi", "power:6000", "--cmd", "measure", "--q", "7")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit  # lifted for the emit only
        measure = json.loads(out)["measure"]
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(int(measure["num"]), int(measure["den"])) == Fraction(12, 7**6002)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_dioph_quasi(self, capsys):
        code, out, _ = run_cli(capsys, "dioph", "--psi", "constant:1/3", "--cmd", "quasi", "--Q", "2", "--R", "120")
        assert code == 0
        assert out == '{"Q":2,"R":120,"ratio":0.6057643357503142}\n'

    def test_dioph_series_and_hausdorff(self, capsys):
        code, out, _ = run_cli(capsys, "dioph", "--psi", "power:1",
                               "--cmd", "series", "--Q", "1000")
        assert json.loads(out)["khinchinSum"] == pytest.approx(1.6439345, abs=1e-4)
        code, out, _ = run_cli(capsys, "dioph", "--psi", "power:2", "--cmd", "hausdorff")
        assert json.loads(out)["exponent"] == pytest.approx(0.5)


class TestCsvOutputs:
    @pytest.mark.parametrize("argv", [
        ("census", "--sys", "q=10,exclude=7", "--x", "100"),
        ("arcs", "--sys", "q=10,exclude=7", "-k", "3"),
        ("fourier", "--check", "refined", "--q", "11"),
        ("dioph", "--psi", "constant:1/3", "--cmd", "measure", "--Q", "2", "--R", "20"),
        ("gcdgraph", "--cmd", "build", "--set", "{set}", "--B", "2"),
    ])
    def test_one_row_csv_is_well_formed(self, capsys, tmp_path, argv):
        # a nested value is one quoted cell holding its JSON
        (tmp_path / "set.txt").write_text("6 10 15 7\n")
        argv = [a.format(set=tmp_path / "set.txt") for a in argv]
        _, out, _ = run_cli(capsys, *argv)
        want = json.loads(out)
        _, out, _ = run_cli(capsys, "--format", "csv", *argv)
        header, row = csv.reader(io.StringIO(out))
        assert len(header) == len(row) == len(want)
        assert any(isinstance(v, (dict, list)) for v in want.values())
        for key, cell in zip(header, row):
            assert (cell if isinstance(want[key], str) else json.loads(cell)) == want[key], key

    def test_scan_stream(self, capsys):
        code, out, _ = run_cli(capsys, "fourier", "--check", "sin-sum",
                               "--scan", "100..103")
        lines = out.strip().split("\n")
        assert lines[0] == "q,value,threshold,passes"
        assert len(lines) == 5
        q, value, threshold, passes = lines[2].split(",")
        assert q == "101"
        assert 602.8 <= float(value) <= 602.9
        assert passes == "false"
        assert float(value) == F.sin_bound_sum(101).value

    def test_arcs_full_scan(self, capsys):
        code, out, _ = run_cli(capsys, "arcs", "--sys", "q=10,exclude=7",
                               "-k", "4", "--full-scan", "--A", "1.5")
        lines = out.strip().split("\n")
        assert lines[0] == "class,count,mass"
        assert len(lines) == 5
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 10**4


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        _, out1, err1 = run_cli(capsys, "fourier", "--check", "refined", "--q", "31")
        _, out2, err2 = run_cli(capsys, "fourier", "--check", "refined", "--q", "31")
        assert out1 == out2
        assert json.loads(err1)["outputSha256"] == json.loads(err2)["outputSha256"]

    @pytest.mark.parametrize("argv, sha256", [
        (("--psi", "constant:1/3", "--cmd", "measure", "--Q", "2", "--R", "400"),
         "b210d1248f1e9b83b22802670b185894fa7ac1900f79c1de3bd1ffa14afeb510"),
        (("--psi", "constant:1/4", "--cmd", "measure", "--Q", "2", "--R", "400"),
         "793431f787256dca9c2f3cdd1f493f48a069e6c9993ff2f78bbb5fc3b0d03739"),
        (("--psi", "constant:1/5", "--cmd", "measure", "--Q", "2", "--R", "400"),
         "7beb2f082f70d0bc9b639f17fc980101dfd08900bc14760cb5729ea49668a522"),
        (("--psi", "constant:2/5", "--cmd", "measure", "--Q", "2", "--R", "400"),
         "b055cb1a0f65856484f16d9c36ee4ecd963d669d1f4a7f9640d8bcb8454a2c6f"),
        (("--psi", "constant:1/6", "--cmd", "measure", "--Q", "2", "--R", "400"),
         "e68b2de31bb27a1f93f1be9aef7fb4d53a5f1008c19e5abe5548f5d59c47e972"),
        (("--psi", "ds_spread", "--cmd", "series", "--Q", "1000000"),
         "64b257344cbaa535d3d1d3bf6d5d08d850a06a3c15c9db63da06553d2ca41275"),
        (("--psi", "ds_spread", "--cmd", "measure", "--q", "30030"),
         "42622d4c568708af556878d1f7f9571b65dc6090d4d3963f35dba616a6824fb1"),
        (("--psi", "constant:1/2", "--cmd", "pairs", "--q", "30030", "--r", "30000"),
         "6dc643fd833221df436d73e43476746561d72aea095d6c4cf1a2652f12d6a9e1"),
        # exact 4004003/250500250000
        (("--psi", "constant:3", "--cmd", "pairs", "--q", "1001", "--r", "1000"),
         "f2ae049bd2d4e2a560b6ab08129629ed0fc0b25adedc1cf8493de2ccd2b15375"),
        (("--psi", "khinchin:0.5", "--cmd", "pairs", "--q", "4096", "--r", "6000"),
         "b9b06166d6c81e029d281a76cd34b3e591e4679195ced4b0180bc0d777312d5d"),
        # dens past 2^53: the sweep's Python-int side
        (("--psi", "khinchin:0.5", "--cmd", "pairs", "--q", "3", "--r", "4"),
         "a19c9ef7b93c065efb68e6167545daf7932fc62266a5a22bd68b5be87a14f332"),
    ])
    def test_pinned_dioph_outputs(self, capsys, monkeypatch, argv, sha256):
        # exact measures over 2 <= q < 400 and of one event, the ds_spread
        # series at 10^6, and pair overlaps from the sweep, with no pairwise merge
        def refuse(self, other):
            raise AssertionError("pairwise intersection")

        monkeypatch.setattr(_dioph.IntervalUnion, "intersect", refuse)
        _, _, err = run_cli(capsys, "dioph", *argv)
        assert json.loads(err)["outputSha256"] == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (("certify", "--sys", "q=10,exclude=0", "--ell-max", "4"),
         "307ea0e147c112bb61571511f2ad1b11e9321e8be4c7640343c0b559adeeee23"),
        (("certify", "--sys", "q=10,exclude=0", "--ell-max", "4", "--sigma", "1.525974025974026"),
         "56d9c1e8dc00065c7a83c21b8e0b759745a0839ba6aed3e53acd9780c526d7d9"),
        (("certify", "--sys", "q=10,exclude=4", "--ell-max", "4"),
         "f668279fcde3f5c884bbebddab8b09dc2927379ec6821219f21b3e2cbd1844a9"),
        (("certify", "--sys", "q=10,exclude=4", "--ell-max", "4", "--sigma", "1.525974025974026"),
         "0aaa758b1fa9040c5d11c55d3481335c84cdab9a170580d78d987f24df55966d"),
        (("certify", "--sys", "q=10,exclude=7", "--ell-max", "4"),
         "b14a564a27de51ee8c70c69dd642aa29eec715881edb46dae2384d865916b1a6"),
        (("certify", "--sys", "q=10,exclude=7", "--ell-max", "4", "--sigma", "1.525974025974026"),
         "0ea19534fc201623d2b571361aa62bc9edb6dd2f6eb25d644e4777d2c69a8681"),
        (("certify", "--sys", "q=10,exclude=9", "--ell-max", "4"),
         "780d4049cd64d80962ce17bdd8e9149279411b39640fbd10ff4f64d425f3e2db"),
        (("certify", "--sys", "q=10,exclude=9", "--ell-max", "4", "--sigma", "1.525974025974026"),
         "f09ce29d6b3e654647152e6a487087d2b92672c3bd641354c186522834cf0d42"),
        # the third-order remainder at 64 subcells per cell: every digit lower
        (("fourier", "--check", "refined", "--q", "101"),
         "b793c8b88e6514651d2a1da0fecfefcfee2fbd3b53add52fa9ca362321a8e037"),
        (("fourier", "--check", "margin", "--sys", "q=10,exclude=7"),
         "b2ee974338014eaa3cd7727b6992d06e68872da4678598510bea1b932d3fe140"),
    ])
    def test_pinned_kernel_outputs(self, capsys, argv, sha256):
        # certified cell-supremum outputs: the Markov certificates at both
        # sigmas, the refined per-digit sum and the generalized margin
        _, _, err = run_cli(capsys, *argv)
        assert json.loads(err)["outputSha256"] == sha256

    @pytest.mark.parametrize("cmd, sha256", [
        ("model", "d4a1b10e8b1bbfdbfd29e2530074e31f07f1eaeac5704142b8f787be7527a51e"),
        ("compress", "c471e4461bd1aff1a7552144d72298e631c7ddf3e2216fd05bfecaae8fefddb0"),
    ])
    def test_pinned_gcdgraph_outputs(self, capsys, tmp_path, cmd, sha256):
        # 400 distinct integers below 10^9 from a seeded generator
        S = sorted(random.Random(400).sample(range(2, 10**9), 400))
        path = tmp_path / "set.txt"
        path.write_text("\n".join(map(str, S)) + "\n")
        _, _, err = run_cli(capsys, "gcdgraph", "--cmd", cmd, "--set", str(path), "--B", "1000")
        assert json.loads(err)["outputSha256"] == sha256

    @pytest.mark.parametrize("argv, sha256", [
        (("gcdgraph", "--cmd", "build", "--set", "{set}", "--B", "100"),
         "53df83a1bec260932a28d4e6f6493d5c3d2469aefbb21e927d22564e548c4ad2"),
        (("gcdgraph", "--cmd", "green-walker", "--set", "{set}", "--set2", "{set2}", "--B", "100"),
         "78612c4a5486e48ebcf5b48fbdd8310fcfa9488b85b07f74ee117cb009225d49"),
        (("dioph", "--psi", "table:{psi}", "--cmd", "measure", "--Q", "2", "--R", "13"),
         "2dad51005d1bcbdfc84abe4bd51066f16e353d66ad0260389af09d4be7dde411"),
        (("dioph", "--cmd", "counterexample", "--ell-max", "1000"),
         "029a142a5339c1b5a2cd0b20b79281351a1a77f2cf5201f0f0cbf73e955c50e7"),
        # q^2 above the entry cap: the matrix-free ell = 1 bound
        (("certify", "--sys", "q=5000,exclude=1", "--ell-max", "1"),
         "24160695ff9e7cd80008dd5789b4cbca17254955cd10f67ebcbb988ed78e9fd7"),
        # primaryTerm read off the identity grid: 671.4090000000001 -> 671.409;
        # the grid folded over j -> N - j: identitySum 679.9999999999964 -> 680.0000000000003;
        # S_A from one real FFT: identitySum -> 680.0000000000001
        (("arcs", "--sys", "q=10,exclude=7", "-k", "4"),
         "f720c01fd5f0013e8e1ae3e2cc83807101fb299a2d0f7b6343a96d69ad5c4880"),
        # folded masses: primary-major 1141.3269625014236 -> 1141.3269625014286;
        # S_A from one real FFT: -> 1141.3269625014289
        (("arcs", "--sys", "q=10,exclude=7", "-k", "4", "--full-scan", "--A", "1.5"),
         "21b1a213c83470e7680a8b4ff4645aa919d82ee7f8016cd3cab200bfd04c97bc"),
        # N = 7 is prime: the spectrum wraps p = N onto residue 0
        (("arcs", "--sys", "q=7,exclude=3", "-k", "1"),
         "ac8f0b8520f0c45e7506f0dbe97cca91230b2935f1ab605239f678418af306b0"),
        # |A(x)| above the enumerate route: the sieve route
        (("census", "--sys", "q=10,exclude=7", "--x", "10000000"),
         "0b4f4edbf242bdd680a3425cf63f17e142ffdab6f6056b51bd4b24b4f906d7d8"),
        # S_P from two root tables at the slot indices: value 5.4e-14 from
        # 140-bit mpmath (re 120.65510833947573 -> 120.65510833947565,
        # im 42.345067053272466 -> 42.34506705327246)
        (("primes", "--limit", "1000000", "--ap", "10,3", "--exp-sum", "0.123"),
         "a3f26b05233159aa4664286acd4da9c0e178c49979bd2cd1d07e886f9c87f737"),
        (("fourier", "--check", "pairwise", "--q", "20"),
         "e6ceba59a59fb7babcb66134488521926f5c655f432ede15b2475cce0a48759b"),
        # no --R: the union of one q's events
        (("dioph", "--psi", "constant:1/3", "--cmd", "measure", "--q", "7"),
         "1e35500aabfce4eb11c8ecdf7f9185e6d1a62e15b2abd6ec942427d19bdf7eee"),
        # every element is below B: no divisor qualifies
        (("gcdgraph", "--cmd", "model", "--set", "{set}", "--B", "1000000"),
         "958bbed5bd400b6606bf9edf57c21c8fbdd5ae576753d7fb32683cb4b356872f"),
        # one slot past the first segment, whose 2^20 odd slots end at 2^21 - 1:
        # the walk's second segment is the one slot 2^21 + 1; value 5.3e-13
        # from 140-bit mpmath (re -37.039736777383325 -> -37.03973677738259,
        # im 91.37672081775025 -> 91.37672081775037)
        (("primes", "--limit", "2097153", "--ap", "7,0", "--exp-sum", "0.3333"),
         "ed3da06c76ae8bba1d7a6c516c67d3e1c4020842df856ac5c521902536466d1a"),
    ])
    def test_pinned_route_outputs(self, capsys, tmp_path, argv, sha256):
        # seeded sets of 60 and 50 integers below 10^6, and a five-row psi table
        files = {
            "set": "\n".join(map(str, sorted(random.Random(60).sample(range(2, 10**6), 60)))),
            "set2": "\n".join(map(str, sorted(random.Random(61).sample(range(2, 10**6), 50)))),
            "psi": "n,psi\n2,1/3\n3,1/4\n5,2/7\n7,1/9\n12,1/2",
        }
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / name
            paths[name].write_text(text + "\n")
        _, _, err = run_cli(capsys, *(a.format(**paths) for a in argv))
        assert json.loads(err)["outputSha256"] == sha256

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "restricta", "primes", "--limit", "50"],
            capture_output=True,
            text=True,
            # no __pycache__ left behind for later processes to read
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pi"] == 15
        manifest = json.loads(proc.stderr)
        assert manifest["outputSha256"]
