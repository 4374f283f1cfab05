"""Record the reference outputs the workload checks compare against.

    python3 perfbench/record_reference.py [verify] [moduli]

Run from the root of a checkout, on the commit that defines the expected
behaviour; writes perfbench/reference/<workload>.json.  The references are
verify verdicts per pool seed and the moduli family list per (n, k).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def record_verify() -> dict:
    from isoparam import cli

    out = {}
    for seed in range(wl.VERIFY_POOL):
        rc, stdout = wl.run_verify(cli, seed)
        if rc != 0:
            raise SystemExit(f"verify seed {seed} exits {rc}")
        out[str(seed)] = wl.verify_verdicts(json.loads(stdout))
    return out


def record_moduli() -> dict:
    from isoparam import classifier

    return {"%d,%d" % q: wl.moduli_families(classifier.enumerate_profiles(*q))
            for q in wl.MODULI_QUERIES}


RECORDERS = {"verify": record_verify, "moduli": record_moduli}


def main(names) -> int:
    wl.REFERENCE.mkdir(exist_ok=True)
    for name in names or RECORDERS:
        data = RECORDERS[name]()
        path = wl.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
