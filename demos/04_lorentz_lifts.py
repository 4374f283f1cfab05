"""Lifting hypersurfaces to the anti-De Sitter quadric.

A hypersurface of CH^n pulls back, through the circle bundle, to a
Lorentzian hypersurface one dimension up.  Its shape operator there is a
bordered matrix built from the downstairs curvatures and the Hopf
coefficients, self-adjoint for an indefinite metric, and therefore may
fail to be diagonalizable: exactly four Jordan shapes can occur, and they
separate the isoparametric families.

    type I   diagonalizable        -> tubes around CH^k
    type II  one 2x2 Jordan block  -> horospheres
    type III one 3x3 Jordan block  -> tubes around the ruled W_w
    type IV  a complex pair        -> tubes around RH^n
"""

import numpy as np

from isoparam import (
    TubeSpec,
    build_w,
    check_type_constraints,
    classify_lift,
    hopf_lift_data,
    lift_shape_operator,
    normal_kahler_angle,
    project_spectrum,
    random_subspace,
    standard_spectrum,
    tube_lift_data,
)
from isoparam.solvable_model import ANVector

c, n, r = -4.0, 3, 0.9

print("Lift, classify, and project back, for each standard family:")
for fam in ("tube-chk", "horosphere", "tube-rhn"):
    spec = standard_spectrum(fam, n, r=r, c=c, k=1 if fam == "tube-chk" else None)
    data = hopf_lift_data(spec, c)
    cls = classify_lift(data)
    back = project_spectrum(cls, c)
    ok = spec.matches(back, tol=1e-8)
    extra = ""
    if cls.complex_pair:
        a, b = cls.complex_pair
        extra = f", complex pair {a:.4f} +- {b:.4f} i"
    print(f"  {fam:12s} -> type {cls.jtype:3s}{extra}; round trip reproduces spectrum: {ok}")

print("\nThe horosphere block, written out (n = 2):")
lifted, _ = lift_shape_operator(hopf_lift_data(standard_spectrum("horosphere", 2, c=c), c))
print(np.array_str(lifted, precision=3, suppress_small=True))
print("  eigenvalue 1 has algebraic multiplicity 4 but geometric 3: one Jordan block")

print("\nA W_w tube at a normal direction of intermediate angle -> type III:")
w = random_subspace(n - 1, 1, seed=5)
W = build_w(w, n, c)
spec = TubeSpec(W, r)
rng = np.random.default_rng(2)
xi = None
while xi is None:
    coef = rng.standard_normal(W.k)
    v = W.w_perp_basis.T @ coef
    v /= np.linalg.norm(v)
    cand = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, c)
    if 0.3 < normal_kahler_angle(W, cand) < 1.2:
        xi = cand
cls = classify_lift(tube_lift_data(spec, xi))
lam = cls.defective_eig
print(f"  type {cls.jtype}, defective eigenvalue lambda = {lam:.6f}")
print(f"  (the tube parameter: sqrt(-c)/2 tanh(r sqrt(-c)/2) = {np.tanh(r):.6f})")

print("\nAlgebraic admissibility constraints per type:")
for fam in ("horosphere", "tube-rhn"):
    spec = standard_spectrum(fam, n, r=r, c=c)
    cls = classify_lift(hopf_lift_data(spec, c))
    report = check_type_constraints(cls, c)
    print(f"  {fam} (type {cls.jtype}): admissible = {report.admissible}")
    for ch in report.checks:
        print(f"    {ch.name:20s} residual {ch.residual:10.3e}  {'ok' if ch.passed else 'FAIL'}")
