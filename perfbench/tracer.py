"""Span tracer installed from outside the program.

The wrappers are placed at every module binding of each public function of
the layer modules, so calls made through an alias (``arcs.prime_spectrum``,
``gcdgraph.divisors``, ``cli.census``, the package re-exports) are seen as
well.  A few private functions and methods carry a named stage of the
program and are wrapped too (see ``EXTRA_TARGETS``).  Generators are traced
per ``next()``: each step is its own span under whichever span consumed it.

Spans are kept in memory and written when the run ends.  A span that has no
child spans is folded into one aggregate record per (parent, name), so that
hot leaves such as ``is_prime_int`` cost a counter update, not a record,
while every parent's self time stays exact.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "primes", "digit_systems", "fourier", "markov", "arcs", "dioph", "gcdgraph")

# Functions that carry one of the program's named stages; their spans are
# named "<layer>.<stage>" so that a later in-program tracer lines up.
STAGES = {
    "primes.sieve_primes": "sieve",
    "primes.count_primes_digit_filtered": "digit_filter",
    "markov.build_matrix": "cell_sup_build",
    "markov._iterate": "power_iteration",
    "primes.prime_spectrum": "spectrum",
    "dioph.IntervalUnion._normalize": "interval_normalisation",
    "primes.factorize": "factorization",
}

# (module, class or None, attribute): private stage functions and methods.
EXTRA_TARGETS = (
    ("markov", None, "_iterate"),
    ("dioph", "IntervalUnion", "_normalize"),
    ("dioph", "IntervalUnion", "intersect"),
)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _note_build(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"cell_evals": a["sys"].q ** (a["ell"] + 1) * (a["grid"] + 1)}


def _note_refined(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"evals": a["q"] * a["q"] * (a["grid"] + 1)}


# Work counts read from a traced call's arguments or result.
NOTES = {
    "markov.build_matrix": _note_build,
    "markov._iterate": lambda fn, a, k, r: {"iterations": r[2]},
    "fourier.refined_digit_sum": _note_refined,
    "fourier.sa_chunks": lambda fn, a, k, r: {"points": len(r[1])},
    "primes.sieve_primes": lambda fn, a, k, r: {"sieved": r.limit},
    "digit_systems.enumerate_restricted": lambda fn, a, k, r: {"members": len(r)},
    "dioph.IntervalUnion._normalize": lambda fn, a, k, r: {"intervals_out": len(r)},
}


class Tracer:
    """Collects spans while ``active``; inactive wrappers call straight through."""

    def __init__(self):
        self.active = False
        self.records: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._undo: list[tuple] = []
        self._error_type = Exception

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name):
        # frame: id, name, start, seconds in child spans, leaf aggregates, has children
        frame = [self._next_id, name, time.perf_counter(), 0.0, None, False]
        self._next_id += 1
        if self._stack:
            self._stack[-1][5] = True
        self._stack.append(frame)
        return frame

    def _close(self, frame, counts=None, error=None):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[2]
        errors = 0
        if error is not None and not getattr(error, "_perfbench_counted", False):
            error._perfbench_counted = True
            errors = 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if parent is not None and not frame[5]:
            aggs = parent[4]
            if aggs is None:
                aggs = parent[4] = {}
            agg = aggs.get(frame[1])
            if agg is None:
                aggs[frame[1]] = [1, dur, frame[2], end, dict(counts or {}), errors]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[3] = end
                agg[5] += errors
                if counts:
                    for k, v in counts.items():
                        agg[4][k] = agg[4].get(k, 0) + v
            return
        pid = parent[0] if parent is not None else None
        self.records.append({
            "id": frame[0], "parent": pid, "name": frame[1], "n": 1,
            "start": frame[2], "end": end, "dur": dur, "self": dur - frame[3],
            "counts": dict(counts or {}), "errors": errors,
        })
        for name, (n, total, start, last, cnt, errs) in (frame[4] or {}).items():
            self.records.append({
                "id": self._next_id, "parent": frame[0], "name": name, "n": n,
                "start": start, "end": last, "dur": total, "self": total,
                "counts": cnt, "errors": errs,
            })
            self._next_id += 1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one of its operations."""
        if not self.active:
            yield
            return
        frame = self._open(name)
        try:
            yield
        except self._error_type as exc:
            self._close(frame, error=exc)
            raise
        except BaseException:
            self._close(frame)
            raise
        self._close(frame)

    def _traced(self, name, note, fn, args, kwargs, step):
        """Run step() inside a span; note reads work counts from its result."""
        frame = self._open(name)
        try:
            result = step()
        except self._error_type as exc:
            self._close(frame, error=exc)
            raise
        except BaseException:
            self._close(frame)
            raise
        self._close(frame, note(fn, args, kwargs, result) if note else None)
        return result

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, note):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        if tracer.active:
                            yield tracer._traced(name, note, fn, args, kwargs, lambda: next(it))
                        else:
                            yield next(it)
                except StopIteration:
                    return
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._traced(name, note, fn, args, kwargs, lambda: fn(*args, **kwargs))

        return wrapper

    def install(self):
        """Wrap the layer functions at every binding in the restricta modules."""
        from restricta.errors import RestrictaError

        self._error_type = RestrictaError
        mods = {layer: importlib.import_module(f"restricta.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}  # id of an original function -> its wrapper
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue  # cli helpers count as cli self time
                key = f"{layer}.{attr}"
                span = f"{layer}.{STAGES.get(key, attr)}"
                replace[id(obj)] = self._wrap(obj, span, NOTES.get(key))
        for layer, cls_name, attr in EXTRA_TARGETS:
            owner = mods[layer] if cls_name is None else getattr(mods[layer], cls_name)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            key = f"{layer}.{attr}" if cls_name is None else f"{layer}.{cls_name}.{attr}"
            span = f"{layer}.{STAGES[key]}" if key in STAGES else key
            wrapped = self._wrap(fn, span, NOTES.get(key))
            if cls_name is None:
                replace[id(fn)] = wrapped
            else:
                new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "restricta" or mod_name.startswith("restricta.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ------------------------------------------------------------ layer metrics


def _totals(records):
    out: dict[str, dict] = {}
    for rec in records:
        t = out.setdefault(rec["name"], {"n": 0, "dur": 0.0, "self": 0.0, "counts": {}})
        t["n"] += rec["n"]
        t["dur"] += rec["dur"]
        t["self"] += rec["self"]
        for k, v in rec["counts"].items():
            t["counts"][k] = t["counts"].get(k, 0) + v
    return out


def _routes(records):
    """Census calls by route: the sieve route opens a sieve span below the
    census span, the enumerate route an enumeration span."""
    census_ids = {r["id"] for r in records if r["name"] == "digit_systems.census"}
    sieve = {r["parent"] for r in records if r["name"] == "primes.sieve" and r["parent"] in census_ids}
    enum = {r["parent"] for r in records
            if r["name"] == "digit_systems.enumerate_restricted" and r["parent"] in census_ids}
    return len(sieve), len(enum)


def layer_metrics(records, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced repetition."""
    t = _totals(records)

    def dur(name):
        return t.get(name, {}).get("dur", 0.0)

    def selft(name):
        return t.get(name, {}).get("self", 0.0)

    def calls(name):
        return t.get(name, {}).get("n", 0)

    def count(name, key):
        return t.get(name, {}).get("counts", {}).get(key, 0)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    route_sieve, route_enum = _routes(records)
    m = {
        "markov.build_s": dur("markov.cell_sup_build"),
        "markov.cell_evals": count("markov.cell_sup_build", "cell_evals"),
        "markov.cell_evals_per_s": rate(count("markov.cell_sup_build", "cell_evals"), dur("markov.cell_sup_build")),
        "markov.power_s": dur("markov.power_iteration"),
        "markov.iterations": count("markov.power_iteration", "iterations"),
        "fourier.refined_s": dur("fourier.refined_digit_sum"),
        "fourier.refined_evals": count("fourier.refined_digit_sum", "evals"),
        "fourier.scan_s": dur("fourier.scan_bound"),
        "fourier.sa_s": dur("fourier.sa_chunks"),
        "fourier.sa_points_per_s": rate(count("fourier.sa_chunks", "points"), dur("fourier.sa_chunks")),
        "primes.sieve_s": dur("primes.sieve"),
        "primes.sieve_rate": rate(count("primes.sieve", "sieved"), dur("primes.sieve")),
        "primes.digit_filter_s": dur("primes.digit_filter"),
        "primes.is_prime_calls": calls("primes.is_prime_int"),
        "primes.is_prime_s": dur("primes.is_prime_int"),
        "primes.ap_s": dur("primes.count_primes_ap"),
        "primes.exp_sum_s": dur("primes.prime_exp_sum"),
        "primes.spectrum_s": dur("primes.spectrum"),
        "primes.factorize_calls": calls("primes.factorization"),
        "primes.factorize_s": dur("primes.factorization"),
        "digit_systems.route_sieve": route_sieve,
        "digit_systems.route_enumerate": route_enum,
        "digit_systems.enumerate_s": dur("digit_systems.enumerate_restricted"),
        "digit_systems.members": count("digit_systems.enumerate_restricted", "members"),
        "arcs.classify_s": dur("arcs.classify_all"),
        "arcs.assembly_self_s": selft("arcs.main_term_assembly"),
        "arcs.breakdown_self_s": selft("arcs.arc_mass_breakdown"),
        "dioph.event_union_calls": calls("dioph.event_union"),
        "dioph.event_union_s": dur("dioph.event_union"),
        "dioph.normalize_s": dur("dioph.interval_normalisation"),
        "dioph.intervals_out": count("dioph.interval_normalisation", "intervals_out"),
        "dioph.intersect_calls": calls("dioph.IntervalUnion.intersect"),
        "dioph.intersect_s": dur("dioph.IntervalUnion.intersect"),
        "dioph.series_s": dur("dioph.series_partial"),
        "gcdgraph.model_s": dur("gcdgraph.model_problem_search"),
        "gcdgraph.compress_s": dur("gcdgraph.compress_greedy"),
        "gcdgraph.chow_s": dur("gcdgraph.chow_counterexample"),
        "cli.self_s": selft("cli.main"),
    }
    errors = {layer: 0 for layer in LAYERS}
    for rec in records:
        layer = rec["name"].split(".", 1)[0]
        if layer in errors:
            errors[layer] += rec["errors"]
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
    m["trace.overhead_s"] = overhead_s
    return m
