"""Principal curvature spectra of tubes.

The classical Hopf examples (tubes around CH^k, tubes around RH^n,
horospheres) have closed-form spectra.  Tubes around the ruled minimal
submanifolds W_w are richer: their curvatures at a point depend on the
Kahler angle of the normal direction through a cubic factor of the
characteristic polynomial, so a nonconstant-angle w_perp produces an
isoparametric hypersurface whose principal curvatures vary from point to
point while the mean curvature stays constant.
"""

import numpy as np

from isoparam import (
    TubeSpec,
    build_w,
    normal_kahler_angle,
    numeric_shape_operator,
    parallel_data,
    random_subspace,
    standard_spectrum,
    tube_char_roots,
    tube_mean_curvature,
    tube_spectrum_at,
)
from isoparam.solvable_model import ANVector

c, n, r = -4.0, 3, 1.0


def show(label, spec):
    entries = ", ".join(f"{v:.6f} x{a}" for v, a, _ in spec.entries)
    hopf = f"  (Hopf value {spec.hopf_value:.6f})" if spec.hopf_value is not None else ""
    print(f"  {label:34s} {entries}{hopf}")


print(f"Closed-form spectra at n={n}, r={r}, c={c}:")
show("tube around CH^1", standard_spectrum("tube-chk", n, r=r, c=c, k=1))
show("tube around RH^3", standard_spectrum("tube-rhn", n, r=r, c=c))
show("horosphere", standard_spectrum("horosphere", n, c=c))

print("\nA W_w tube probed along normal directions of different angle:")
w = random_subspace(n - 1, 1, seed=5)  # w_perp has angles {0, pi/2}
W = build_w(w, n, c)
spec = TubeSpec(W, r)
rng = np.random.default_rng(1)
for _ in range(3):
    coef = rng.standard_normal(W.k)
    v = W.w_perp_basis.T @ coef
    v /= np.linalg.norm(v)
    xi = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, c)
    phi = normal_kahler_angle(W, xi)
    show(f"normal angle phi = {phi:.3f}", tube_spectrum_at(spec, xi))
H = tube_mean_curvature(n, W.k, r, c)
print(f"  ...yet the trace is always the mean curvature H = {H:.6f}")

print("\nCross-check: a fully numeric Jacobi-field operator vs the char poly:")
coef = rng.standard_normal(W.k)
v = W.w_perp_basis.T @ coef
v /= np.linalg.norm(v)
xi = ANVector(0.0, v[0::2] + 1j * v[1::2], 0.0, c)
S = numeric_shape_operator(spec, xi)
evals = np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))
roots = tube_char_roots(n, W.k, r, normal_kahler_angle(W, xi), c)
print(f"  max |eigenvalue - root| = {np.abs(evals - roots).max():.2e}")

print("\nMarching toward the focal set (r = 1, c = -4):")
print(f"  {'t':>6s} {'lambda(t)':>12s} {'mu(t)':>12s}")
for t in (0.0, 0.5, 0.9, 0.999, 1.0):
    lam, mu, _, _, focal = parallel_data(r, t, c)
    mu_str = "inf" if focal else f"{mu:12.4f}"
    print(f"  {t:6.3f} {lam:12.6f} {mu_str:>12s}{'   <- focal submanifold' if focal else ''}")
