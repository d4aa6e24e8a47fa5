"""Benchmark of the restricta lab: time, memory and certificate quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one table

Each run starts a fresh single-threaded child process (``child.py``) for
the workload, after ``PROBES`` set-up probes that only import the program
and generate the inputs.  The last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it records the seed's inputs, the
machine, ``failed_frac``, ``cert_ratio`` (certify) and every sample.

End-to-end metrics:
  wall_s       median wall time of one pass over the workload's operations
  setup_s      median time from process start, through ``import restricta``
               and input generation, to the first operation
  peak_rss_mb  peak resident set size of the workload process (rusage)
Both times are rescaled to a reference core speed measured by a
calibration kernel next to each operation and each set-up (see child.py);
the times as measured are in the detail line.
Also reported, not gated: failed_frac (failed / attempted operations,
0 at the reference commit) and cert_ratio (worst certified bound over its
threshold on certify; deterministic per seed, so a change that loosens
the certificates shows).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import CAL_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES = 7
CHILD_TIMEOUT = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every process compiles the same sources
    return env


def spawn(root: Path, argv: list, deadline: float) -> dict:
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("out of time before the workload process started")
    cmd = [sys.executable, str(HERE / "child.py"), *argv, "--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cache_size(level: str):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            if (idx / "level").read_text().strip() == level and (idx / "type").read_text().strip() != "Instruction":
                return (idx / "size").read_text().strip()
        except OSError:
            return None
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(root: Path, *args):
    try:
        proc = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(root: Path, numpy_version) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "l2": _cache_size("2"),
        "l3": _cache_size("3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": _git(root, "--version"),
        "git_rev": _git(root, "rev-parse", "HEAD"),
        "src_sha256": digest.hexdigest(),
        "threads": {k: env[k] for k in THREAD_VARS},
    }


def run_workload(root: Path, bench: dict, workload: str, seed: int, seconds: float, trace: int):
    """Returns (result line, detail record)."""
    deadline = time.monotonic() + CHILD_TIMEOUT
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    probes = [spawn(root, [*common, "--probe"], deadline) for _ in range(PROBES)]
    rec = spawn(root, [*common, "--trace", str(trace)], deadline)
    setups = [p["setup_s"] for p in (*probes, rec)]
    setups_scaled = [p["setup_s"] * CAL_REF_S / p["setup_cal_s"] for p in (*probes, rec)]
    if trace:
        spec = bench["per_layer"]
        values = rec["layers"]
    else:
        spec = bench["end_to_end"]
        values = {
            "wall_s": statistics.median(rec["walls_scaled"]),
            "setup_s": statistics.median(setups_scaled),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "inputs": rec["choice"],
        "failed_frac": rec["failed"] / rec["attempted"],
        "cert_ratio": rec.get("cert_ratio"),
        "wall_s_samples": rec["walls_scaled"],
        "setup_s_samples": setups_scaled,
        "wall_s_measured": rec["walls"],
        "setup_s_measured": setups,
        "core_speed": CAL_REF_S / statistics.median(rec["cal_s"]),
        "failures": rec["failures"],
        "spans": rec.get("spans"),
        "machine": machine(root, rec["numpy"]),
    }
    return result, detail


def print_table(rows, bench, trace):
    if trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        print(f"{'metric':34s}" + "".join(f"{w:>14s}" for w, _, _ in rows))
        for n in names:
            cells = "".join(f"{res['metrics'][n]['value']:>14.6g}" for _, res, _ in rows)
            print(f"{n + ' [' + units[n] + ']':34s}{cells}")
        return
    print(f"{'workload':10s}{'wall_s [s]':>14s}{'setup_s [s]':>14s}{'peak_rss_mb [MB]':>18s}"
          f"{'failed_frac [1]':>17s}{'cert_ratio [1]':>16s}")
    for w, res, det in rows:
        m = res["metrics"]
        ratio = det["cert_ratio"]
        print(f"{w:10s}{m['wall_s']['value']:>14.4f}{m['setup_s']['value']:>14.4f}"
              f"{m['peak_rss_mb']['value']:>18.1f}{det['failed_frac']:>17.4f}"
              f"{(f'{ratio:.9f}' if ratio is not None else '-'):>16s}")


def main(argv=None) -> int:
    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"run from the checkout root: cannot read BENCHMARK.json ({exc})", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (root / "src" / "restricta" / "__init__.py").is_file():
        print(f"no program to measure: {root / 'src' / 'restricta'} is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    try:
        for w in names:
            result, detail = run_workload(root, bench, w, args.seed, args.seconds, args.trace)
            rows.append((w, result, detail))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print_table(rows, bench, args.trace)
        summary = {
            "correct": all(r["correct"] for _, r, _ in rows),
            "attempted": sum(r["attempted"] for _, r, _ in rows),
            "failed": sum(r["failed"] for _, r, _ in rows),
            "metrics": {f"{w}.{k}": v for w, r, _ in rows for k, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
        return 0
    _, result, detail = rows[0]
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
