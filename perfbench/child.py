"""One workload run in a fresh single-threaded process (started by run.py).

Imports the program from ``src/`` of the current directory, generates the
seeded inputs, then either reports its set-up time and exits (``--probe``)
or runs the workload: repetitions of the operation sequence until
``--seconds`` have passed (at least one), each output checked by its oracle
outside the timed part.  With ``--trace 1`` it makes an untraced, a traced
and another untraced repetition; the traced outputs must equal the
untraced ones.  The last stdout line is a JSON record for run.py.

Times are reported twice: as measured, and rescaled to a reference core
speed.  On a shared host the speed of a core drifts by up to 2x over
minutes (the process's CPU time grows with its wall time, so the core runs
slower rather than being taken away).  A calibration kernel of plain
Python and numpy arithmetic, which runs no program code, is timed before
and after every operation; an operation's rescaled time is its wall time
times ``CAL_REF_S`` over the mean of the two kernel times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
CAL_REF_S = 0.010  # calibration kernel time at the reference speed (a quiet 2-vCPU Xeon host)


_CAL_X = None


def _kernel():
    """About equal time in interpreted Python and in numpy, like the
    workloads; the arrays are allocated once, so that the kernel's time does
    not depend on what the allocator was left with by the last operation."""
    global _CAL_X
    import numpy as np

    if _CAL_X is None:
        _CAL_X = (np.linspace(0.0, 1.0, 1 << 16) * (2j * np.pi), np.empty(1 << 16, dtype=np.complex128))
    x, buf = _CAL_X
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(3):
        np.exp(x, out=buf)
        acc += float(np.abs(buf).sum())
    return acc


def core_seconds() -> float:
    """Fastest of three runs of the calibration kernel: interference only
    ever slows a run down."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def run_rep(ops, refs, tracer=None):
    """One pass over the operation sequence.

    Returns the wall seconds of the operations, the same rescaled to the
    reference speed, the kernel times, the outputs, and a message for each
    operation that raised or failed its oracle.
    """
    import workloads

    wall = scaled = 0.0
    cal = [core_seconds()]
    outputs, failures = {}, {}
    for op in ops:
        text = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                text = op.run()
            else:
                with tracer.span(f"op.{op.name}"):
                    text = op.run()
        except Exception as exc:  # a raised error is a failed operation
            failures[op.name] = f"raised {exc!r}"
        dt = time.perf_counter() - t0
        cal.append(core_seconds())
        wall += dt
        scaled += dt * CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
        outputs[op.name] = text
        if text is not None:
            problems = workloads.check(op, text, refs)
            if problems:
                failures[op.name] = "; ".join(problems)
    return wall, scaled, cal, outputs, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    import restricta

    if not Path(restricta.__file__).resolve().is_relative_to(src.resolve()):
        print(f"restricta imported from {restricta.__file__}, not from {src}", file=sys.stderr)
        return 3
    import workloads

    work = root / OUT_DIR
    work.mkdir(exist_ok=True)
    choice = workloads.choose(args.workload, args.seed)
    inputs = workloads.setup(args.workload, choice, work)
    setup_s = time.monotonic() - args.spawned_at
    try:
        record = {"setup_s": setup_s, "setup_cal_s": core_seconds()}
        if not args.probe:
            record.update(measure(args, root, work, choice, inputs))
    finally:
        for path in inputs.get("files", ()):
            os.unlink(path)
    print(json.dumps(record))
    return 0


def measure(args, root, work, choice, inputs) -> dict:
    import numpy
    import workloads

    with open(HERE / "references.json") as fh:
        refs = json.load(fh)
    ops = workloads.ops(args.workload, inputs)
    walls, scaled, cal, failures, attempted = [], [], [], [], 0
    first_outputs = None
    start = time.perf_counter()
    while True:
        wall, wall_scaled, rep_cal, outputs, fails = run_rep(ops, refs)
        walls.append(wall)
        scaled.append(wall_scaled)
        cal += rep_cal
        attempted += len(ops)
        failures += [f"{name}: {msg}" for name, msg in fails.items()]
        if first_outputs is None:
            first_outputs = outputs
        if args.trace or time.perf_counter() - start >= args.seconds:
            break

    record = {
        "choice": choice,
        "walls": walls,
        "walls_scaled": scaled,
        "cal_s": cal,
        "numpy": numpy.__version__,
    }
    if args.workload == "certify":
        ratios = []
        for name in ("certify.sigma1", "certify.sigma2"):
            if first_outputs.get(name):
                cert = json.loads(first_outputs[name])
                ratios.append(cert["bound"] / cert["threshold"])
        record["cert_ratio"] = max(ratios) if len(ratios) == 2 else None

    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tracer.install()
        tracer.active = True
        traced_wall, _, _, traced_outputs, fails = run_rep(ops, refs, tracer)
        tracer.active = False
        tracer.uninstall()
        # the first repetition also warms caches and lazy imports, so the
        # overhead is taken against an untraced repetition after the traced one
        after_wall, _, _, _, after_fails = run_rep(ops, refs)
        attempted += 2 * len(ops)
        for op in ops:
            if traced_outputs[op.name] != first_outputs[op.name]:
                fails.setdefault(op.name, "traced output differs from untraced output")
        failures += [f"{name}: {msg}" for name, msg in fails.items()]
        failures += [f"{name}: {msg}" for name, msg in after_fails.items()]
        record["layers"] = tr.layer_metrics(tracer.records, traced_wall - after_wall)
        spans = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        record["spans"] = str(spans.relative_to(root))

    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["failures"] = [f[:300] for f in failures[:20]]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


if __name__ == "__main__":
    sys.exit(main())
