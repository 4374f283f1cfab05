"""Command-line front end.

Subcommands: spectrum, classify, lift, moduli, verify, horocycle.

Exit codes: 0 success, 2 numeric or validation failure (a machine-readable
error record is printed), 64 usage error, 66 input file not found.  A
command accepts only the flags that it reads: --curvature every command
but moduli, --seed lift, verify and horocycle, and --tol lift and
horocycle.  --tol, and the environment variable ISOPARAM_TOL that it
overrides, must be a finite positive number.  For a fixed argv and seed
the JSON output is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

import numpy as np

from . import classifier, hopf_lift
from . import kahler_angle as ka
from . import solvable_model as sm
from . import tube_geometry as tg
from .errors import InvalidK, IsoparamError
from .verification import SUITES, RunConfig, verify_suites

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

EXAMPLES = ("tube-chk", "tube-rhn", "horosphere", "lohnherr")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _checked(parse, valid, expected: str):
    """An argparse type: parse(text), accepted only where valid."""

    def convert(text: str):
        try:
            if valid(parse(text)):
                return parse(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


# numpy seeds its generators from non-negative integers; NaN fails 0 < v
_seed = _checked(int, lambda v: v >= 0, "a non-negative integer")
_tol = _checked(
    float, lambda v: 0 < v < np.inf, "a finite positive number (--tol or ISOPARAM_TOL)"
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="isoparam", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command")

    def common(p, output="json", curvature=True, tol=False, seed=True):
        # each flag only where the command reads it; the default output is a
        # human-readable table for enumerative output, a JSON record otherwise
        if curvature:
            p.add_argument("--curvature", type=float, default=-4.0, help="ambient curvature c < 0")
        if tol:
            # argparse runs a string default through _tol as well
            default = os.environ.get("ISOPARAM_TOL") or "1e-9"
            p.add_argument("--tol", type=_tol, default=default, help="numeric tolerance > 0")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--output", choices=("json", "csv", "table"), default=output)

    # spectrum and classify read the same example or subspace and tube
    for name, output, text in (
        ("spectrum", "table", "principal curvatures of an example or a W_w tube"),
        ("classify", "json", "classify an isoparametric family into cases i-vi"),
    ):
        p = sub.add_parser(name, help=text)
        common(p, output, seed=False)
        p.add_argument("--example", choices=EXAMPLES)
        p.add_argument("--subspace", help="JSON file with the defining subspace w")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, default=None)
        p.add_argument("--radius", type=float, default=None)
        p.add_argument("--angle", type=float, default=None, help="Kahler angle of the normal direction")

    p = sub.add_parser("lift", help="Lorentzian lift: Jordan type and constraint residuals")
    common(p, tol=True)
    p.add_argument("--example", choices=EXAMPLES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--radius", type=float, default=None)

    p = sub.add_parser("moduli", help="admissible Kahler-angle profiles for given (n, k)")
    common(p, "table", curvature=False, seed=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    common(p, "table")
    p.add_argument(
        "--suite",
        default="all",
        help="comma-separated subset of {%s} or 'all'" % ",".join(SUITES),
    )

    p = sub.add_parser("horocycle", help="generate horocycle points inside a W_w")
    common(p, tol=True)
    p.add_argument("--subspace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, default=8)

    return parser


def _load_subspace(path: str) -> ka.RealSubspace:
    with open(path) as fh:
        return ka.RealSubspace.from_json(fh.read())


def _random_hyperplane(n: int, seed: int) -> ka.RealSubspace:
    """A random real hyperplane w of C^(n-1)."""
    if n < 2:
        raise InvalidK("need n >= 2")
    return ka.random_subspace(n - 1, 2 * (n - 1) - 1, seed)


def _spectrum_record(spec: tg.TubeSpectrum, **extra) -> dict:
    rec = {
        "entries": [[v, a, g] for v, a, g in spec.entries],
        "hopf_value": spec.hopf_value,
    }
    rec.update(extra)
    return rec


def _cmd_spectrum(args) -> dict:
    c = args.curvature
    if args.example:
        if args.example == "lohnherr":
            if args.radius in (None, 0.0):
                spec = tg.lohnherr_spectrum(args.n, c)
            else:
                spec = tg.tube_char_spectrum(args.n, 1, args.radius, np.pi / 2, c)
            rec = _spectrum_record(spec, example=args.example, n=args.n, r=args.radius or 0.0)
        else:
            spec = tg.standard_spectrum(args.example, args.n, r=args.radius, c=c, k=args.k)
            rec = _spectrum_record(spec, example=args.example, n=args.n, r=args.radius)
            if args.k is not None:
                rec["k"] = args.k
        return {"curvature": c, "spectra": [rec]}

    if args.subspace:
        w = _load_subspace(args.subspace)
        W = sm.build_w(w, args.n, c)
        if args.radius is None:
            raise ValueError("--radius is required with --subspace")
        if args.angle is not None:
            angles = [(args.angle, None)]
        else:
            profile, _, _ = ka.kahler_profile(W.w.perp)
            angles = [(a, m) for a, m in profile.entries]
        spectra = []
        for angle, mult in angles:
            spec = tg.tube_char_spectrum(args.n, W.k, args.radius, angle, c)
            spectra.append(
                _spectrum_record(spec, n=args.n, k=W.k, r=args.radius, normal_angle=angle)
            )
        return {"curvature": c, "spectra": spectra}

    raise UsageError("spectrum needs --example or --subspace")


def _cmd_classify(args) -> dict:
    c = args.curvature
    kwargs = dict(n=args.n, c=c, r=args.radius)
    if args.example:
        kwargs["family"] = args.example
        kwargs["k"] = args.k
    elif args.subspace:
        kwargs["w"] = _load_subspace(args.subspace)
    elif args.k is not None and args.angle is not None:
        kwargs["k"] = args.k
        kwargs["angle"] = args.angle
    else:
        raise UsageError("classify needs --example, --subspace, or --k with --angle")
    return classifier.classify(**kwargs).to_dict()


def _cmd_lift(args) -> dict:
    c = args.curvature
    if args.example == "lohnherr":
        if args.radius in (None, 0.0):
            # the ruled hypersurface itself is not Hopf: J xi is the unit
            # P xi, splitting evenly between the +-sqrt(-c)/2 directions
            spec = tg.lohnherr_spectrum(args.n, c)
            values = spec.expanded()
            s0 = np.sqrt(-c) / 2
            b = np.zeros(len(values))
            b[int(np.argmin(np.abs(values + s0)))] = 1 / np.sqrt(2)
            b[int(np.argmax(values))] = 1 / np.sqrt(2)
            data = hopf_lift.LiftedShapeData(spec, b, c)
        else:
            w = _random_hyperplane(args.n, args.seed)
            W = sm.build_w(w, args.n, c)
            xi = W.normal_frame()[0]
            data = hopf_lift.tube_lift_data(tg.TubeSpec(W, args.radius), xi)
    else:
        spec = tg.standard_spectrum(args.example, args.n, r=args.radius, c=c, k=args.k)
        data = hopf_lift.hopf_lift_data(spec, c)
    cls = hopf_lift.classify_lift(data)
    report = classifier.check_type_constraints(cls, c, tol=args.tol)
    projected = hopf_lift.project_spectrum(cls, c)
    return {
        "curvature": c,
        "example": args.example,
        "n": args.n,
        "r": args.radius,
        "jordan_type": cls.jtype,
        "eigenvalues": [[v, a, g] for v, a, g in cls.real_eigs],
        "complex_pair": list(cls.complex_pair) if cls.complex_pair else None,
        "epsilon": cls.epsilon,
        "constraints": [
            {"name": ch.name, "residual": ch.residual, "passed": ch.passed}
            for ch in report.checks
        ],
        "admissible": report.admissible,
        "projected": _spectrum_record(projected),
    }


def _cmd_moduli(args) -> dict:
    families = classifier.enumerate_profiles(args.n, args.k)
    return {
        "n": args.n,
        "k": args.k,
        "families": [
            {"entries": fam.to_list(), "free_angles": fam.free_count} for fam in families
        ],
    }


def _cmd_verify(args) -> dict:
    config = RunConfig(curvature_c=args.curvature, seed=args.seed)
    names = SUITES if args.suite == "all" else tuple(s for s in args.suite.split(",") if s)
    return verify_suites(config, names)


def _cmd_horocycle(args) -> dict:
    c = args.curvature
    n = args.n
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    rng = np.random.default_rng(args.seed)
    if args.subspace:
        w = _load_subspace(args.subspace)
    else:
        w = _random_hyperplane(n, args.seed)
    W = sm.build_w(w, n, c)
    if w.dim == 0:
        raise ValueError("w must contain a direction for the horocycle")
    coefs = rng.standard_normal(w.dim)
    U_flat = coefs @ w.basis
    U_flat /= np.linalg.norm(U_flat)
    U = sm.ANVector(0.0, U_flat[0::2] + 1j * U_flat[1::2], 0.0, c)
    points = []
    p = sm.ANPoint.origin(n, c)
    for i in range(args.steps):
        t = float(rng.uniform(-2.0, 2.0))
        p = sm.horocycle_point(p, U, t)
        record = p.coords.to_record()
        record["in_w_tube_core"] = sm.contains_point(p, W, args.tol)
        points.append(record)
    return {
        "curvature": c,
        "n": n,
        "direction": U.to_record(),
        "points": points,
    }


# ---------------------------------------------------------------------------
# rendering


def _render_table(command: str, record: dict) -> str:
    lines = []
    if command == "spectrum":
        for spec in record["spectra"]:
            head = ", ".join(
                f"{k}={spec[k]}" for k in ("example", "n", "k", "r", "normal_angle") if k in spec and spec[k] is not None
            )
            lines.append(head)
            lines.append(f"{'value':>22s} {'alg':>4s} {'geo':>4s}  hopf")
            for v, a, g in spec["entries"]:
                hopf = "*" if spec["hopf_value"] is not None and abs(v - spec["hopf_value"]) < 1e-9 else ""
                lines.append(f"{v:22.12g} {a:4d} {g:4d}  {hopf}")
    elif command == "verify":
        for suite in record["suites"]:
            lines.append(f"suite {suite['suite']}: {suite['passed']} passed, {suite['failed']} failed")
            for ch in suite["checks"]:
                flag = "PASS" if ch["passed"] else "FAIL"
                res = "non-finite" if ch["max_residual"] is None else f"{ch['max_residual']:.3e}"
                lines.append(
                    f"  {flag} {ch['name']:40s} samples={ch['samples']:5d}"
                    f" max_residual={res} tol={ch['tol']:.1e}"
                )
        lines.append("ok" if record["ok"] else "FAILURES")
    elif command == "moduli":
        lines.append(f"n={record['n']} k={record['k']}: {len(record['families'])} maximal families")
        for fam in record["families"]:
            parts = []
            for angle, mult in fam["entries"]:
                label = "free" if angle is None else f"{angle:.6g}"
                parts.append(f"({label}, {mult})")
            lines.append("  {" + ", ".join(parts) + "}")
    else:
        for key, value in sorted(record.items()):
            lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _render_csv(command: str, record: dict) -> str:
    rows = []
    if command == "spectrum":
        rows.append("example,n,k,r,normal_angle,value,alg_mult,geo_mult,is_hopf")
        for spec in record["spectra"]:
            for v, a, g in spec["entries"]:
                hopf = (
                    spec["hopf_value"] is not None and abs(v - spec["hopf_value"]) < 1e-9
                )
                rows.append(
                    ",".join(
                        [
                            str(spec.get("example", "")),
                            str(spec.get("n", "")),
                            str(spec.get("k", "")),
                            "" if spec.get("r") is None else _fmt(spec["r"]),
                            "" if spec.get("normal_angle") is None else _fmt(spec["normal_angle"]),
                            _fmt(v),
                            str(a),
                            str(g),
                            str(int(hopf)),
                        ]
                    )
                )
    elif command == "verify":
        rows.append("suite,check,samples,max_residual,tol,passed")
        for suite in record["suites"]:
            for ch in suite["checks"]:
                rows.append(
                    ",".join(
                        [
                            suite["suite"],
                            ch["name"],
                            str(ch["samples"]),
                            "" if ch["max_residual"] is None else _fmt(ch["max_residual"]),
                            _fmt(ch["tol"]),
                            str(int(ch["passed"])),
                        ]
                    )
                )
    else:
        rows.append("key,value")
        for key, value in sorted(record.items()):
            rows.append(f"{key},{json.dumps(value, sort_keys=True)}")
    return "\n".join(rows) + "\n"


def _emit(command: str, record: dict, output: str):
    if output == "json":
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    elif output == "csv":
        sys.stdout.write(_render_csv(command, record))
    else:
        sys.stdout.write(_render_table(command, record))


# each command's function; _build_parser declares its flags and default output
_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "lift": _cmd_lift,
    "moduli": _cmd_moduli,
    "verify": _cmd_verify,
    "horocycle": _cmd_horocycle,
}


def _error(kind: str, message: str, code: int) -> int:
    """Print the machine-readable error record; returns the exit code."""
    record = {"error": {"type": kind, "message": message}}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return code


def run(argv: Optional[list[str]] = None) -> int:
    """Parse argv, run the subcommand, print the report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        record = _COMMANDS[args.command](args)
    except UsageError as exc:
        return _error("usage", str(exc), EXIT_USAGE)
    except FileNotFoundError as exc:
        return _error("file_not_found", str(exc), EXIT_NOINPUT)
    except (IsoparamError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _error(type(exc).__name__, str(exc), EXIT_VALIDATION)
    _emit(args.command, record, args.output)
    if args.command == "verify" and not record["ok"]:
        return EXIT_VALIDATION
    return EXIT_OK


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
