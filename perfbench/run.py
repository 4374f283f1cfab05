"""The isoparam benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
./src.  Workloads: verify, tube-sweep, moduli (see
perfbench/README.md for why each exists and what each metric should move).

--trace 0 times ops with tracing off and reports the end-to-end metrics.
--trace 1 runs half the time untraced and half traced, then reports the
per-layer metrics; the spans are written to .perfbench/spans-<workload>.npz.
--workload all runs every workload both ways and prints every metric.

Output: a `machine` line, a `detail` line, one `<metric> <value> <unit>`
line per metric, and as the last line a JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without a result when the checkout
has no src/isoparam.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; one thread keeps runs steady on a shared host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402

# `spans` loads lazily: the set-up children timed for setup_s must not pay for it

SETUP_REPS = 5  # fresh interpreters whose set-up time gives setup_s
IMPORT_REPS = 3  # fresh interpreters per import timing
SUITES = ("cartan", "jordan", "tube", "kahler", "group", "lift")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine block


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_block(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement


def measure(wl, seconds: float, max_ops, tracer=None) -> dict:
    """Closed loop, one op in flight, in rounds that each replay the
    workload's op list `wl.round`.  A new round starts while more than half
    a round is left of `seconds`.  With an op budget the run is one round of
    exactly `max_ops` ops, taken from the op list in order."""
    if max_ops is None:
        ops = wl.round
    else:
        ops = [wl.round[j % len(wl.round)] for j in range(max_ops)]
    rounds, failures, i = [], {}, 0
    deadline = time.perf_counter() + seconds
    while True:
        lat, failed = [], 0
        t_round = time.perf_counter()
        for spec in ops:
            t0 = time.perf_counter()
            try:
                out = tracer.run_op(i, wl.call, spec) if tracer else wl.call(spec)
                error = None
            except Exception as exc:  # a failed op is counted, never fatal
                error = type(exc).__name__
            lat.append(time.perf_counter() - t0)
            i += 1
            if error is None:
                try:
                    error = None if wl.check(spec, out) else "mismatch"
                except Exception as exc:
                    error = f"check:{type(exc).__name__}"
            if error:
                failed += 1
                failures[error] = failures.get(error, 0) + 1
        rounds.append({"latencies": lat, "failed": failed})
        now = time.perf_counter()
        if max_ops is not None or now + (now - t_round) / 2 >= deadline:
            break
    return {"rounds": rounds, "failures": failures, "attempted": i,
            "failed": sum(r["failed"] for r in rounds)}


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def best_times(run: dict) -> list:
    """Each op's fastest time over the run's rounds, which all replay the
    same op list.  A slow phase of the shared host only ever adds time to
    an op, and fast moments come often, so an op's best time is the
    steadiest measure of its cost; the first, cold round never sets it
    unless it is the only one."""
    return [min(col) for col in zip(*(r["latencies"] for r in run["rounds"]))]


def best_rate(run: dict) -> float:
    """Correct ops per second of best op time."""
    best = best_times(run)
    return (len(best) - max(r["failed"] for r in run["rounds"])) / sum(best)


def child_env() -> dict:
    """Environment for a fresh interpreter that imports isoparam from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, timeout: float = 120, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run with a blocking wait, so the end of a timed child is
    seen at once (a wait with a timeout polls), and a watchdog that kills a
    child still running after `timeout` seconds."""
    kwargs.setdefault("env", child_env())
    with subprocess.Popen(argv, **kwargs) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)




def timed_children(argv_list, reps: int) -> float:
    """Median wall time of `reps` fresh interpreters running each argv."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, *argv_list], cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv_list} exited {proc.returncode}")
    return statistics.median(times)


def import_seconds(module: str) -> float:
    """Median time to import `module` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                             env=child_env(), capture_output=True, timeout=120)
        values.append(float(out.stdout))
    return statistics.median(values)


def end_to_end(name: str, run: dict, seed: int) -> tuple[dict, dict]:
    tail = workloads.WORKLOADS[name].tail_percentile
    best = best_times(run)
    setup = timed_children([str(HERE / "run.py"), "--setup-only", "--workload", name,
                            "--seed", str(seed)], SETUP_REPS)
    metrics = {
        "ops_per_s": (best_rate(run), "1/s"),
        "op_p50_ms": (percentile(best, 50) * 1e3, "ms"),
        "op_tail_ms": (percentile(best, tail) * 1e3, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    round_ops = len(best)
    detail = {"rounds": len(run["rounds"]), "round_ops": round_ops, "op_tail_percentile": tail,
              "op_tail_samples_beyond": round_ops - math.ceil(round_ops * tail / 100),
              "timed_s": sum(sum(r["latencies"]) for r in run["rounds"]),
              "setup_reps": SETUP_REPS}
    return metrics, detail


def per_layer(summary: dict, untraced: dict, traced: dict) -> dict:
    import spans

    ops = max(summary["ops"], 1)
    counts = summary["counts"]
    metrics = {}
    for layer in (*spans.LAYERS, spans.NUMPY_LAYER):
        metrics[f"{layer}.calls_per_op"] = (summary["calls"].get(layer, 0) / ops, "count")
        metrics[f"{layer}.self_ms_per_op"] = (summary["self_s"].get(layer, 0.0) / ops * 1e3, "ms")
    metrics["solvable_model.anvector_new_per_op"] = (
        counts.get("solvable_model.ANVector.__init__", 0) / ops, "count")
    classify_calls = counts.get("indefinite_linalg.classify_jordan", 0)
    metrics["indefinite_linalg.passes_per_classify"] = (
        counts.get("indefinite_linalg._classify_pass", 0) / classify_calls if classify_calls else 0.0,
        "count")
    metrics["classifier.strata_pairs_per_op"] = (counts.get("classifier._specializes", 0) / ops, "count")
    for suite in SUITES:
        metrics[f"verification.{suite}_ms"] = (summary["suite_s"].get(suite, 0.0) / ops * 1e3, "ms")
    metrics["cli.import_ms"] = (import_seconds("isoparam.cli") * 1e3, "ms")
    metrics["numpy.import_ms"] = (import_seconds("numpy") * 1e3, "ms")

    metrics["trace.overhead_ratio"] = (best_rate(traced) / best_rate(untraced), "ratio")
    return metrics


def run_one(name: str, seed: int, seconds: float, trace: bool, max_ops) -> tuple[dict, dict]:
    import spans

    wl = workloads.WORKLOADS[name](seed)
    if not trace:
        run = measure(wl, seconds, max_ops)
        metrics, detail = end_to_end(name, run, seed)
        runs = [run]
    else:
        untraced = measure(wl, seconds / 2, max_ops)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(wl, seconds / 2, max_ops, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        tracer.write(OUT / f"spans-{name}.npz")
        metrics = per_layer(summary, untraced, traced)
        metrics["defect_band.failed_op_ratio"] = (workloads.defect_band(seed), "ratio")
        detail = {"untraced_ops": untraced["attempted"], "traced_ops": summary["ops"],
                  "max_self_over_wall": summary["max_self_over_wall"]}
        runs = [untraced, traced]
    failures = {}
    for run in runs:
        for k, v in run["failures"].items():
            failures[k] = failures.get(k, 0) + v
    detail["failures"] = failures
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def print_result(result: dict, detail: dict, machine: dict):
    print("machine " + json.dumps(machine, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


def run_all(seed: int, seconds: float, max_ops) -> int:
    """Every workload with tracing off and on, each in its own process."""
    names = [w["name"] for w in load_benchmark()["workloads"]]
    ok = True
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            if max_ops is not None:
                argv += ["--ops", str(max_ops)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = proc.stdout.splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            ok = ok and result is not None and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many ops per phase instead of --seconds")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "isoparam" / "__init__.py").is_file():
        print(f"no isoparam sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = importlib.util.find_spec("isoparam")
    if spec is None or Path(spec.origin).resolve().parent != SRC / "isoparam":
        print(f"isoparam does not resolve to {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, args.ops)
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    result, detail = run_one(args.workload, args.seed, seconds, bool(args.trace), args.ops)
    machine = machine_block(args.seed)
    machine.update(workload=args.workload, seconds=seconds, trace=args.trace)
    print_result(result, detail, machine)
    return 0


if __name__ == "__main__":
    sys.exit(main())
