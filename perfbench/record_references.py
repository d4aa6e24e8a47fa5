"""Record the reference output of every family member from the current program.

    python3 perfbench/record_references.py

Run from the root of a checkout, on the commit whose outputs become the
reference (about five minutes).  Checks every recorded output against the
oracles' independent witnesses, then rewrites ``perfbench/references.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from oracles import parse  # noqa: E402

FAMILIES = {
    "certify": {"b": wl.B_FAMILY},
    "census": {"b": wl.B_FAMILY, "pair": wl.PAIR_FAMILY, "a": wl.AP_FAMILY, "theta": wl.THETA_FAMILY},
    "circle": {"b": wl.B_FAMILY},
    "dioph": {"c": wl.C_FAMILY, "set": wl.GCD_SETS},
}


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_out"
    work.mkdir(exist_ok=True)
    refs: dict = {}
    for workload, fams in FAMILIES.items():
        outputs = {}
        for values in itertools.product(*fams.values()):
            inputs = wl.setup(workload, dict(zip(fams, values)), work)
            try:
                for op in wl.ops(workload, inputs):
                    if op.key not in outputs:
                        outputs[op.key] = (op, op.run())
                        print(f"recorded {op.key}", file=sys.stderr, flush=True)
            finally:
                for generated in inputs.get("files", ()):
                    os.unlink(generated)
        for key, (_, text) in outputs.items():
            refs[key] = parse(text)
        bad = 0
        for key, (op, text) in outputs.items():
            problems = wl.check(op, text, refs)
            if problems:
                bad += 1
                print(f"{key}: {problems}", file=sys.stderr)
        if bad:
            print(f"{bad} recorded outputs fail their oracles", file=sys.stderr)
            return 1
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
