"""Fingerprint the outputs that a behaviour-preserving change must keep.

    python3 tools/fingerprint.py [--root CHECKOUT]

Imports isoparam from CHECKOUT/src and the benchmark workloads from
CHECKOUT/perfbench (default: the checkout holding this script), so the
same script can fingerprint another commit's tree, and prints:

- `verify <seed> <exit code> <md5>`: md5 of `isoparam verify --suite all
  --output json` at seeds 0, 7, 42 and 63;
- `sweep <seed> <op> <family> <n> <outcome> <md5>`: each of the 720
  tube-sweep ops of seeds 1-3 (240 a seed), its outcome and the md5 of
  its lift (Jordan type, real eigenvalues, complex pair, epsilon, diagonal,
  the adapted basis's bytes with signed zeros, the projected spectrum) and,
  for a W-tube, of its downstairs spectrum, roots and constraint residuals;
- `band <lo>..<hi> <seed> <op> <family> <n> <r> <outcome>`: each op of the
  three radius bands (n = 10 and 30, seeds 1-3, 144 ops a band), then one
  `band <lo>..<hi> totals` line per band.

An outcome is right, wrong (the tube-sweep check fails) or `raised <Error>`.

Every float is written through repr, so a last-digit move changes the
line.  Diff two runs to see what a change moved; the script itself exits
non-zero only when it raises.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the verify verdicts are recorded on one thread

VERIFY_SEEDS = (0, 7, 42, 63)
SWEEP_SEEDS = (1, 2, 3)
BANDS = ((1e-6, 1e-4), (1e-4, 0.05), (3.0, 12.0))
BAND_NS, BAND_CYCLES = (10, 30), 6  # 8 ops a cycle: 48 a seed


def _md5(*parts) -> str:
    return hashlib.md5(repr(parts).encode()).hexdigest()


def _spectrum(spec):
    return spec.entries, spec.hopf_value, spec.unresolved_dims, spec.family


def _lift(cls):
    basis = cls.adapted_basis
    return (cls.jtype, cls.real_eigs, cls.complex_pair, cls.epsilon, cls.diag,
            basis.shape, basis.tobytes())


def sweep_digest(family, out) -> str:
    from isoparam import IsoparamError, hopf_lift  # from the checkout main() put on sys.path
    from workloads import CURVATURE

    if family != "w-tube":
        return _md5(_lift(out["cls"]), _spectrum(out["projected"]))
    try:
        projected = _spectrum(hopf_lift.project_spectrum(out["cls"], CURVATURE))
    except IsoparamError as exc:  # a W-tube's projection is part of its fingerprint
        projected = type(exc).__name__
    checks = [(ch.name, ch.residual, ch.passed) for ch in out["constraints"].checks]
    return _md5(_lift(out["cls"]), projected, out["numeric"].tobytes(), out["roots"].tobytes(),
                out["phi"], out["report"].case, checks)


def run_op(sweep, spec):
    """(outcome, output): outcome is right, wrong or `raised <Error>`."""
    try:
        out = sweep.call(spec)
    except Exception as exc:
        return f"raised {type(exc).__name__}", None
    return ("right" if sweep.check(spec, out) else "wrong"), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ are fingerprinted")
    root = parser.parse_args(argv).root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from isoparam import cli

    for seed in VERIFY_SEEDS:
        rc, out = workloads.run_verify(cli, seed)
        print("verify", seed, rc, hashlib.md5(out.encode()).hexdigest())

    for seed in SWEEP_SEEDS:
        sweep = workloads.TubeSweep(seed)
        for i, spec in enumerate(sweep.round):
            outcome, out = run_op(sweep, spec)
            digest = "-" if out is None else sweep_digest(spec["family"], out)
            print("sweep", seed, i, spec["family"], spec["n"], outcome, digest)

    for lo, hi in BANDS:
        totals = {"right": 0, "wrong": 0, "raised": 0}
        for seed in SWEEP_SEEDS:
            sweep = workloads.TubeSweep(seed, r_range=(lo, hi), ns=BAND_NS, cycles=BAND_CYCLES)
            for i, spec in enumerate(sweep.round):
                outcome, _ = run_op(sweep, spec)
                totals[outcome.split()[0]] += 1
                print("band", f"{lo!r}..{hi!r}", seed, i, spec["family"], spec["n"],
                      repr(spec["r"]), outcome)
        print("band", f"{lo!r}..{hi!r}", "totals",
              " ".join(f"{key} {count}" for key, count in totals.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
