"""Reach guard: every function in src/ is reached by a CLI command, or is
allowlisted with the caller that needs it.

A fixed list of cheap argv covers every subcommand route and every kind of
refusal.  They run in process under ``sys.setprofile``; each Python call
into a src/ module is recorded as (module, qualname) and compared with the
functions that ``ast`` finds there.  The difference must equal ALLOWLIST.
A second guard holds the 64-bit phase format behind ``numutil``: no other
src/ module names its parts.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

from restricta import cli, dioph

SRC = Path(__file__).resolve().parent.parent / "src" / "restricta"

# reached by no command; each is called by the named acceptance test or
# perfbench op, or runs at import
ALLOWLIST = {
    ("restricta.dioph", "IntervalUnion.endpoints_float"): "test_acceptance.py::test_14_exact_measure_sweep_oracle",
    ("restricta.dioph", "IntervalUnion.intersect"): "the merge reference of test_acceptance.py::test_14 and "
    "test_dioph.py::TestFractionOracle; perfbench/tracer.py wraps it by name",
    ("restricta.dioph", "IntervalUnion._scaled"): "intersect, and test_dioph.py::joined in TestFractionOracle",
    ("restricta.dioph", "golden_gap"): "test_acceptance.py::test_12_golden_gap",
    ("restricta.fourier", "FourierProfile.set_size"): "test_acceptance.py::test_11_parseval; moment_tail",
    ("restricta.fourier", "mean_l1"): "perfbench op circle.mean_l1",
    ("restricta.fourier", "minimal_passing_q"): "test_acceptance.py::test_04 and test_05 threshold scans",
    ("restricta.fourier", "moment_tail"): "perfbench op circle.moment_tail",
    ("restricta.fourier", "power_sum"): "test_acceptance.py::test_11_parseval",
    ("restricta.fourier", "restricted_exp_sum"): "test_acceptance.py::test_10_product_formula_oracle",
    ("restricta.fourier", "typical_growth_constant"): "test_acceptance.py::test_01_growth_constant",
    ("restricta.numutil", "catalan_constant"): "typical_growth_constant, for test_acceptance.py::test_01",
    ("restricta.numutil", "_root_table"): "runs once at import, to build _ROOT_COS and _ROOT_SIN",
    ("restricta.markov", "row_sum_bound"): "test_acceptance.py::test_06; perfbench ops certify.sigma1/sigma2",
    ("restricta.primes", "mobius"): "test_acceptance.py::test_09_ramanujan_identity",
    ("restricta.primes", "ramanujan_sum"): "test_acceptance.py::test_09_ramanujan_identity",
}

ARGV = [
    # primes, census (enumerate route, block-sieve route) and their refusals
    "primes --limit 1000 --ap 10,3 --exp-sum 0.25",
    "census --sys q=10,D=1.3 --x 1000",
    "census --sys q=10,D=1.3 --x 10000000",  # 43 primes from 2^16: the strong Lucas test
    "census --sys q=10,exclude=7 --x 1000000",
    f"census --sys q=10,D=1 --x {10**39}",
    f"census --sys q=10,exclude=7 --x {2**40 + 1}",
    "census --sys q=1000000016000000063,D=1 --x 10",
    "census --sys q=10 --x 50",
    # digit systems refused before any digit is built
    "census --sys q=1000000000,exclude=7 --x 10",
    "census --sys q=100000000,D=0-99999999 --x 10",
    "census --sys q=10,D=0-20000000 --x 10",
    # fourier: every check, both scans, and the caps
    "fourier --check sin-sum --q 101",
    "fourier --check pairwise --q 101",
    "fourier --check refined --q 11 --grid 8",
    "fourier --check margin --sys q=10,exclude=7 --grid 4",
    "fourier --check sin-sum --scan 10..12",
    "fourier --check pairwise --scan 10..12",
    "fourier --check refined --q 31250 --grid 128",
    f"fourier --check sin-sum --q {10**400}",
    "fourier --check sin-sum --q 10 --grid 4",
    # certify: matrices, the matrix-free route and its refusal below sigma = 1
    "certify --sys q=10,exclude=7 --ell-max 2",
    "certify --sys q=5000,exclude=7 --ell-max 1",
    "certify --sys q=5000,exclude=7 --ell-max 1 --sigma 0.5",
    f"certify --sys q={10**400},D=1 --ell-max 2",
    # arcs: assembly, full scan, and q^k refused before it is formed
    "arcs --sys q=10,exclude=7 -k 3",
    "arcs --sys q=10,exclude=7 -k 3 --full-scan --A 1.5",
    "arcs --sys q=10,exclude=7 -k 9",
    "arcs --sys q=10,exclude=7 -k 5000 --full-scan",
    # dioph: every psi family and command
    "dioph --psi constant:1/2 --cmd series --Q 100",
    "dioph --psi ds_spread --cmd series --Q 100",
    "dioph --psi ds_base --cmd series --Q 100",
    "dioph --psi khinchin:0.5 --cmd series --Q 100",
    "dioph --psi power:1 --cmd series --Q 100",
    "dioph --psi table:{psi} --cmd series --Q 10",
    "dioph --psi {psi} --cmd measure --q 3",
    "dioph --psi constant:1/2 --cmd measure --q 7",
    "dioph --psi ds_spread --cmd measure --q 30",
    "dioph --psi ds_base --cmd measure --q 30",
    "dioph --psi khinchin:0.5 --cmd measure --q 7",
    "dioph --psi power:1 --cmd measure --q 7",
    "dioph --psi constant:1/3 --cmd measure --Q 2 --R 20",
    "dioph --psi constant:1/2 --cmd pairs --q 6 --r 10",
    "dioph --psi constant:1/3 --cmd quasi --Q 2 --R 20",
    "dioph --psi constant:1/2 --cmd select-r --Q 2",
    "dioph --psi constant:0 --cmd select-r --Q 2 --cap 50",
    "dioph --cmd counterexample --ell-max 100",
    "dioph --psi power:1 --cmd hausdorff",
    "dioph --psi constant:1 --cmd hausdorff",
    f"dioph --psi constant:1/2 --cmd measure --q {10**400}",
    # gcdgraph: every command
    "gcdgraph --cmd build --set {set} --B 6",
    "gcdgraph --cmd model --set {set} --B 6",
    "gcdgraph --cmd chow --y 10",
    "gcdgraph --cmd green-walker --set {set} --B 6",
    "gcdgraph --cmd compress --set {set} --B 6",
    f"gcdgraph --cmd chow --y {10**400}",
]


def defined() -> set:
    """(module, qualname) of every function and method in src/, as the
    code object names it: nested functions sit under "<locals>"."""
    out = set()

    def walk(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((mod, prefix + child.name))
                walk(child, mod, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, mod, f"{prefix}{child.name}.")

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), f"restricta.{path.stem}", "")
    return out


def test_phase_format_stays_in_numutil():
    # the 64-bit phase format is numutil's decision: every other module
    # takes e(x) through numutil.unit and names none of its parts
    parts, named = {"fixed_phase", "fixed_phases", "unit_fixed"}, set()
    for path in SRC.glob("*.py"):
        if path.name != "numutil.py":
            for node in ast.walk(ast.parse(path.read_text())):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
                if name in parts:
                    named.add((path.name, name))
    assert not named


def test_every_function_is_reached_or_allowlisted(tmp_path):
    (tmp_path / "set.txt").write_text("12 18 30 42 60 70 105 210 231 330\n")
    (tmp_path / "psi.csv").write_text("n,psi\n2,1/3\n3,1/4\n")
    files = {"set": tmp_path / "set.txt", "psi": tmp_path / "psi.csv"}
    dioph._log_primorial.cache_clear()  # a cached call would not be seen
    root, reached = str(SRC), set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            reached.add((f"restricta.{Path(frame.f_code.co_filename).stem}", frame.f_code.co_qualname))

    for line in ARGV:
        argv = line.format(**files).split()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(record)
            try:
                cli.main(argv)
            finally:
                sys.setprofile(None)
    assert sorted(defined() - reached) == sorted(ALLOWLIST)
