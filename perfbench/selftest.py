"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs each workload for a few ops, from the root of a checkout, and checks:

* every metric BENCHMARK.json names is emitted, end-to-end ones with
  tracing off and per-layer ones with tracing on, and every op passes;
* in every traced op, the summed self time of the layers is at most the
  op's wall time;
* the counts (`*.calls_per_op`, `anvector_new_per_op`,
  `passes_per_classify`, `strata_pairs_per_op`) repeat exactly across two
  traced runs at one seed.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 11
OPS = {"verify": 1, "tube-sweep": 24, "moduli": 40}
COUNT_SUFFIXES = (".calls_per_op", ".anvector_new_per_op", ".passes_per_classify",
                  ".strata_pairs_per_op")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--trace", str(trace), "--ops", str(OPS[workload])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        results = {}
        for trace, label in ((0, "plain"), (1, "traced"), (1, "traced again")):
            result, detail = run(workload, trace)
            results[label] = result
            if set(result["metrics"]) != names[trace]:
                problems.append(f"{workload} {label}: metrics {sorted(set(result['metrics']) ^ names[trace])} "
                                "missing or unnamed")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: {result['failed']} failed ops {detail['failures']}")
            if trace and detail["max_self_over_wall"] > 1.0 + 1e-9:
                problems.append(f"{workload} {label}: layer self time exceeds op wall time "
                                f"({detail['max_self_over_wall']:.6f})")
        first, again = results["traced"]["metrics"], results["traced again"]["metrics"]
        for name in sorted(names[1]):
            if name.endswith(COUNT_SUFFIXES) and first[name]["value"] != again[name]["value"]:
                problems.append(f"{workload}: {name} differs across runs "
                                f"({first[name]['value']} vs {again[name]['value']})")
        print(f"{workload}: checked", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
