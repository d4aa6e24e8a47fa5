"""Command-line front door: subcommand routing, canonical JSON/CSV output,
and a run manifest on stderr for reproducibility.

Output on stdout is byte-identical for identical argv and version: JSON is
key-sorted with shortest-roundtrip float formatting, exact rationals are
emitted as {"num": "...", "den": "..."} strings, non-finite floats as null,
and long scans stream CSV rows as they are produced.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
import time
import types
from fractions import Fraction

import numpy as np

from . import __version__
from .digit_systems import DigitSystem, census
from .errors import RestrictaError, UsageError, parsed
from . import arcs as _arcs
from . import dioph as _dioph
from . import fourier as _fourier
from . import gcdgraph as _gcd
from . import markov as _markov
from . import primes as _primes


def canonical(obj):
    """Convert to plain JSON-serialisable values: Fractions to num/den
    strings, numpy scalars to Python, non-finite floats to None, complex
    to re/im (each part as a float), results via their to_json."""
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": canonical(float(obj.real)), "im": canonical(float(obj.imag))}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "to_json"):
        return canonical(obj.to_json())
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _dump_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


def _csv_cell(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ------------------------------------------------------------- handlers


def _split(text: str, sep: str, form: str) -> tuple[int, int]:
    """The two integers of the CLI form "x<sep>y"."""
    parts = text.split(sep)
    if len(parts) != 2:
        raise UsageError(f"{form}: cannot read {text!r}")
    return tuple(parsed(int, x, form) for x in parts)


def _cmd_primes(args):
    table = _primes.sieve_primes(args.limit)
    ap = _split(args.ap, ",", "--ap q,a") if args.ap else None
    pi, count, value = _primes.prime_sums(table, ap, args.exp_sum)
    out = {"N": args.limit, "pi": pi}
    if ap:
        out["ap"] = {"q": ap[0], "a": ap[1], "count": count}
    if value is not None:
        out["value"] = value
    return out


def _cmd_census(args):
    sys_ = DigitSystem.parse(args.sys)
    rep = census(sys_, args.x)
    return {"sys": sys_.to_json(), **rep.to_json()}


# the flags some route of their subcommand does not read; none has an argparse
# default, so a given one shows (Q, cap, ell_max and B are filled in after the check)
_OPTIONAL = ("q", "r", "R", "Q", "cap", "ell_max", "sys", "grid", "unreduced", "set", "set2", "B", "y", "psi")


def _only(args, route: str, *taken: str) -> None:
    """Refuse each flag of _OPTIONAL that was given and that route does not read."""
    for flag in _OPTIONAL:
        given = getattr(args, flag, None)
        if flag not in taken and given is not None and given is not False:  # --q 0 is given
            raise UsageError(f"{route} does not take --{flag.replace('_', '-')}")


def _cmd_fourier(args):
    if args.scan:
        lo, hi = _split(args.scan, "..", "--scan qmin..qmax")
        if args.check not in _fourier.SCANS:
            raise UsageError("--scan supports sin-sum and pairwise")
        _only(args, "--scan")
        reports = _fourier.scan_bound(args.check, lo, hi)
        first = list(itertools.islice(reports, 1))  # a q the check refuses is refused before the header
        rows = ((q, rep.value, rep.threshold, rep.passes) for q, rep in itertools.chain(first, reports))
        return ("csv", ("q", "value", "threshold", "passes"), rows)
    grid = {} if args.grid is None else {"grid": args.grid}  # else each check's default
    if args.check == "margin":
        _only(args, "--check margin", "sys", "grid")
        if not args.sys:
            raise UsageError("--check margin needs --sys")
        return _fourier.generalized_margin(DigitSystem.parse(args.sys), **grid).to_json()
    checks = {**_fourier.SCANS, "refined": lambda q: _fourier.refined_digit_sum(q, **grid)}
    if args.check not in checks:
        raise UsageError(f"unknown check {args.check!r}")
    taken = ("q", "grid") if args.check == "refined" else ("q",)
    _only(args, f"--check {args.check}", *taken)
    if args.q is None:
        raise UsageError(f"--check {args.check} needs --q")
    return {**checks[args.check](args.q).to_json(), "q": args.q}


def _cmd_certify(args):
    sys_ = DigitSystem.parse(args.sys)
    cert = _markov.certify_base(sys_, args.ell_max, sigma=args.sigma)
    return {"q": sys_.q, **cert.to_json()}


def _cmd_arcs(args):
    sys_ = DigitSystem.parse(args.sys)
    if args.full_scan:
        A = _arcs.DEFAULT_A if args.A is None else args.A
        breakdown = _arcs.arc_mass_breakdown(sys_, args.k, A)

        def rows():
            for name in _arcs.CLASS_NAMES:
                yield (name, breakdown["count"][name], breakdown["mass"][name])

        return ("csv", ("class", "count", "mass"), rows())
    if args.A is not None:
        raise UsageError("--A needs --full-scan")
    rep = _arcs.main_term_assembly(sys_, args.k)
    return {"sys": sys_.to_json(), "k": args.k, **rep.to_json()}


def _cmd_dioph(args):
    cmd = args.cmd
    if cmd == "measure" and args.R is not None:
        _only(args, "--cmd measure --R", "psi", "Q", "R", "unreduced")
    else:
        taken = {"series": ("psi", "Q"), "measure": ("psi", "q", "unreduced"), "pairs": ("psi", "q", "r"),
                 "quasi": ("psi", "Q", "R"), "select-r": ("psi", "Q", "cap"), "counterexample": ("ell_max",)}
        _only(args, f"--cmd {cmd}", *taken.get(cmd, ("psi",)))
    args.Q = 1 if args.Q is None else args.Q
    if cmd == "counterexample":  # it builds its own psi pair
        return _dioph.ds_counterexample(10**5 if args.ell_max is None else args.ell_max).to_json()
    if args.psi is None:
        raise UsageError(f"--cmd {cmd} needs --psi")
    psi = _dioph.PsiFunction.parse(args.psi)
    if cmd == "series":
        kh, ds = _dioph.series_partial(psi, args.Q)
        return {"Q": args.Q, "khinchinSum": kh, "dsSum": ds}
    if cmd == "measure":
        if args.R is not None:
            m = _dioph.truncated_limsup_measure(psi, args.Q, args.R, reduced=not args.unreduced)
            return {"Q": args.Q, "R": args.R, "measure": m}
        if args.q is None:
            raise UsageError("--cmd measure needs --q, or --R for a range")
        ev = _dioph.event_union(args.q, psi, reduced=not args.unreduced)
        return {"q": args.q, "measure": ev.measure, "intervals": len(ev)}
    if cmd == "pairs":
        if args.q is None or args.r is None:
            raise UsageError("--cmd pairs needs --q and --r")
        exact, pv = _dioph.pair_overlap(args.q, args.r, psi)
        return {"q": args.q, "r": args.r, "exact": exact, "pvBound": pv}
    if cmd == "quasi":
        if args.R is None:
            raise UsageError("--cmd quasi needs --R")
        return {"Q": args.Q, "R": args.R, "ratio": _dioph.quasi_independence_ratio(psi, args.Q, args.R)}
    if cmd == "select-r":
        return {"Q": args.Q, "R": _dioph.select_R(psi, args.Q, cap=10**6 if args.cap is None else args.cap)}
    if cmd == "hausdorff":
        expo = _dioph.hausdorff_exponent(psi)
        return {
            "exponent": expo,
            "slopeBelow": _dioph.hausdorff_slope(psi, expo - 0.05),
            "slopeAbove": _dioph.hausdorff_slope(psi, expo + 0.05),
        }
    raise UsageError(f"unknown dioph cmd {cmd!r}")


def _read_instance(path: str, B: int) -> _gcd.GcdInstance:
    """The set file's integers with threshold B, checked by ``GcdInstance``
    (nonempty, positive, B >= 1)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read set {path!r}: {exc.strerror}") from None
    return _gcd.GcdInstance(tuple(parsed(int, word, "set element") for word in text.split()), B)


def _cmd_gcdgraph(args):
    cmd = args.cmd
    _only(args, f"--cmd {cmd}", *{"chow": ("y",), "green-walker": ("set", "set2", "B")}.get(cmd, ("set", "B")))
    if cmd == "chow":
        if args.y is None:
            raise UsageError("chow needs --y")
        return _gcd.chow_counterexample(args.y).to_json()
    if not args.set:
        raise UsageError(f"{cmd} needs --set")
    args.B = 1 if args.B is None else args.B
    inst = _read_instance(args.set, args.B)
    if cmd == "build":
        g = _gcd.build_gcd_graph(inst)
        return {
            "B": args.B,
            "edges": [[str(u), str(v)] for u, v in g.edges],
            "density": g.density,
        }
    if cmd == "model":
        res = _gcd.model_problem_search(inst)
        if res is None:
            return {"B": args.B, "found": False}
        g, mult = res
        return {"B": args.B, "found": True, "g": str(g), "multiplicity": mult}
    if cmd == "green-walker":
        other = _read_instance(args.set2, args.B) if args.set2 else inst
        delta, ratio = _gcd.green_walker_ratio(inst, other)
        return {"B": args.B, "delta": delta, "ratio": ratio}
    if cmd == "compress":
        g = _gcd.compress_greedy(inst)
        return {
            "B": args.B,
            "V": [str(v) for v in g.V],
            "W": [str(w) for w in g.W],
            "a": str(g.a),
            "b": str(g.b),
            "quality": g.quality,
        }
    raise UsageError(f"unknown gcdgraph cmd {cmd!r}")


# --------------------------------------------------------------- plumbing


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="restricta",
        description="Digit-restricted prime counting, circle-method arcs, "
        "Markov eigenvalue certificates, and exact Diophantine measures.",
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("primes", help="sieve, count, and evaluate S_P")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--ap", help="q,a: count primes = a (mod q)")
    sp.add_argument("--exp-sum", type=float, dest="exp_sum")
    sp.set_defaults(func=_cmd_primes)

    sp = sub.add_parser("census", help="count a digit-restricted set and its primes")
    sp.add_argument("--sys", required=True)
    sp.add_argument("--x", type=int, required=True)
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("fourier", help="certified bound sums for window sums")
    sp.add_argument("--check", choices=("sin-sum", "refined", "pairwise", "margin"))
    sp.add_argument("--q", type=int)
    sp.add_argument("--sys")
    sp.add_argument("--grid", type=int, help="Taylor subcells per cell")
    sp.add_argument("--scan", help="qmin..qmax, stream CSV rows")
    sp.set_defaults(func=_cmd_fourier)

    sp = sub.add_parser("certify", help="Markov eigenvalue certificates")
    sp.add_argument("--sys", required=True)
    sp.add_argument("--ell-max", type=int, required=True, dest="ell_max")
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("arcs", help="circle dissection and main-term assembly")
    sp.add_argument("--sys", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--full-scan", action="store_true", dest="full_scan")
    sp.add_argument("--A", type=float, help=f"full-scan arc width (default {_arcs.DEFAULT_A})")
    sp.set_defaults(func=_cmd_arcs)

    sp = sub.add_parser("dioph", help="metric approximation experiments")
    sp.add_argument("--psi", help="family[:params] or file.csv; every --cmd but counterexample")
    sp.add_argument("--cmd", required=True,
                    choices=("series", "measure", "pairs", "quasi", "select-r", "counterexample", "hausdorff"))
    sp.add_argument("--Q", type=int, help="series, measure --R, quasi, select-r (default 1)")
    sp.add_argument("--R", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--cap", type=int, help="select-r (default 10^6)")
    sp.add_argument("--ell-max", type=int, dest="ell_max", help="counterexample (default 10^5)")
    sp.add_argument("--unreduced", action="store_true")
    sp.set_defaults(func=_cmd_dioph)

    sp = sub.add_parser("gcdgraph", help="GCD-graph laboratory")
    sp.add_argument("--cmd", required=True,
                    choices=("build", "model", "chow", "green-walker", "compress"))
    sp.add_argument("--set", help="newline-delimited integers")
    sp.add_argument("--set2", help="second set for green-walker")
    sp.add_argument("--B", type=int, help="every --cmd but chow (default 1)")
    sp.add_argument("--y", type=int)
    sp.set_defaults(func=_cmd_gcdgraph)
    return p


def _emit(result, fmt: str, out) -> str:
    """Write the result; return the sha256 digest of the emitted bytes.
    Exact rationals print in full, past Python's int-to-str digit limit."""
    digest = hashlib.sha256()

    def write(text: str):
        digest.update(text.encode())
        out.write(text)

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    table = csv.writer(types.SimpleNamespace(write=write), lineterminator="\n")  # RFC 4180 quoting
    try:
        if isinstance(result, tuple) and result and result[0] == "csv":
            _, header, rows = result
            table.writerow(header)
            for row in rows:
                table.writerow(_csv_cell(c) for c in row)
                out.flush()
        elif fmt == "csv" and isinstance(result, dict):
            items = sorted(canonical(result).items())
            table.writerow(k for k, _ in items)
            table.writerow(_csv_cell(v) if not isinstance(v, (dict, list)) else json.dumps(v, sort_keys=True) for _, v in items)
        else:
            write(_dump_json(result) + "\n")
    finally:
        sys.set_int_max_str_digits(limit)
    return digest.hexdigest()


def _status(exc: RestrictaError) -> int:
    """Exit status of a refusal: 2 for a usage error, 1 for the rest."""
    return 2 if isinstance(exc, UsageError) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    start = time.time()
    status = 0
    try:
        result = args.func(args)
    except RestrictaError as exc:
        result = {"error": exc.kind, "message": str(exc)}
        status = _status(exc)
    try:
        digest = _emit(result, args.format, sys.stdout)
    except RestrictaError as exc:  # streamed computations may fail mid-scan
        sys.stdout.write("\n")
        result = {"error": exc.kind, "message": str(exc)}
        digest = _emit(result, "json", sys.stdout)
        status = _status(exc)
    manifest = {
        "subcommand": args.subcommand,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
        "wallTimeSec": round(time.time() - start, 6),
        "outputSha256": digest,
    }
    sys.stderr.write(json.dumps(manifest, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
