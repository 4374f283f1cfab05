"""Jacobi-field calculus for tubes and parallel hypersurfaces.

Along a unit-speed geodesic of CH^n the normal Jacobi equation decouples,
in a parallel frame, into a component along J gamma' (curvature c) and the
complement (curvature c/4).  The scalar solutions

    g_nu(t) = cosh(t sqrt(-c)/2) - (2 nu / sqrt(-c)) sinh(t sqrt(-c)/2),
    h(t)    = -(2 / sqrt(-c)) sinh(t sqrt(-c)/2)

drive every spectrum in this module: the closed-form principal curvatures
of the classical Hopf examples, the characteristic polynomial of tubes
around the ruled minimal submanifolds W_w, and a fully numeric assembly of
the same shape operator used to cross-check the closed forms.

All tube curvatures refer to the inward unit normal (pointing back to the
core submanifold), which makes them positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    FocalRadius,
    InvalidCodimension,
    InvalidK,
    NotNormal,
    check_curvature,
)
from .indefinite_linalg import cluster
from .kahler_angle import apply_J
from .solvable_model import NORMAL_TOL, ANVector, SubmanifoldW, _galpha_flat

CLUSTER_TOL = 1e-7


@dataclass(frozen=True)
class TubeSpectrum:
    """Principal curvatures with multiplicities of a hypersurface.

    entries are (value, algebraic mult, geometric mult) sorted ascending.
    hopf_value is the curvature of the J xi direction when the
    hypersurface is Hopf.  unresolved_dims counts dimensions whose
    curvatures are not determined by the available data (only populated
    by partial projections); family optionally tags those spectra.
    """

    entries: tuple[tuple[float, int, int], ...]
    hopf_value: Optional[float] = None
    unresolved_dims: int = 0
    family: Optional[str] = None

    def __post_init__(self):
        ents = tuple(sorted((float(v), int(a), int(g)) for v, a, g in self.entries))
        if any(a <= 0 or g <= 0 for _, a, g in ents):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "entries", ents)

    @property
    def dim(self) -> int:
        return sum(a for _, a, _ in self.entries) + self.unresolved_dims

    @property
    def values(self) -> np.ndarray:
        return np.array([v for v, _, _ in self.entries])

    def expanded(self) -> np.ndarray:
        """All curvatures with algebraic multiplicity, ascending."""
        return np.repeat(self.values, [a for _, a, _ in self.entries])

    def trace(self) -> float:
        return float(sum(v * a for v, a, _ in self.entries))

    def matches(self, other: "TubeSpectrum", tol: float = 1e-8) -> bool:
        if len(self.entries) != len(other.entries):
            return False
        return all(
            a1 == a2 and abs(v1 - v2) <= tol
            for (v1, a1, _), (v2, a2, _) in zip(self.entries, other.entries)
        )


def _merged_entries(values: np.ndarray, mults: np.ndarray):
    """TubeSpectrum entries of ascending values with multiplicities.

    Neighbours a, b name one curvature when
    |a - b| <= CLUSTER_TOL (1 + max(|a|, |b|)); its value is the mean of its
    run and its multiplicity their sum.
    """
    mags = np.abs(values)
    runs = cluster(values, CLUSTER_TOL * (1.0 + np.maximum(mags[:-1], mags[1:])))
    sums = [int(mults[run].sum()) for run in runs]
    return tuple((float(values[run].mean()), m, m) for run, m in zip(runs, sums))


def spectrum_from_values(values, **kw) -> TubeSpectrum:
    """Cluster raw curvature values into a TubeSpectrum."""
    values = np.sort(np.asarray(values, dtype=float))
    return TubeSpectrum(_merged_entries(values, np.ones(values.size)), **kw)


def _check_radius(r):
    """Raise FocalRadius unless the tube radius r is positive and finite."""
    if r is None or not 0 < r < np.inf:  # also rejects NaN
        raise FocalRadius("tube radius must be positive and finite")


@dataclass(frozen=True)
class TubeSpec:
    """A tube of radius r around a submanifold W_w."""

    Wspec: SubmanifoldW
    r: float

    def __post_init__(self):
        _check_radius(self.r)

    @property
    def n(self) -> int:
        return self.Wspec.n

    @property
    def c(self) -> float:
        return self.Wspec.c

    @property
    def k(self) -> int:
        return self.Wspec.k


# ---------------------------------------------------------------------------
# scalar Jacobi solutions


def jacobi_scalars(nu: float, t: float, c: float):
    """(g_nu(t), g_nu'(t), h(t), h'(t)) for curvature c < 0."""
    check_curvature(c)
    s0 = np.sqrt(-c) / 2
    ch, sh = np.cosh(s0 * t), np.sinh(s0 * t)
    g = ch - (nu / s0) * sh
    gp = s0 * sh - nu * ch
    h = -sh / s0
    hp = -ch
    return float(g), float(gp), float(h), float(hp)


def parallel_data(r: float, t: float, c: float):
    """Evolved data of the parallel-hypersurface family at distance t.

    Returns (lambda_t, mu_t, alpha_t, beta_t, focal): the two principal
    curvatures and the frame coefficients of the evolved semi-null basis.
    At t = r the family collapses onto the focal submanifold: lambda_t = 0,
    mu_t = +inf (sentinel) and focal = True.
    """
    check_curvature(c)
    if not 0 <= t <= r:
        raise ValueError("need 0 <= t <= r")
    s0 = np.sqrt(-c) / 2
    lam = s0 * np.tanh(s0 * (r - t))
    alpha = (np.cosh(s0 * r) ** 3 / np.cosh(s0 * (r - t)) ** 3) * np.sinh(s0 * t) / s0
    beta = np.cosh(s0 * r) ** 2 / np.cosh(s0 * (r - t)) ** 2
    if t == r:
        return 0.0, np.inf, float(alpha), float(beta), True
    mu = s0 / np.tanh(s0 * (r - t))
    return float(lam), float(mu), float(alpha), float(beta), False


# ---------------------------------------------------------------------------
# closed-form spectra


def _tube_lambda(r: float, c: float) -> float:
    s0 = np.sqrt(-c) / 2
    return float(s0 * np.tanh(s0 * r))


def angle_factor_cubic(lam: float, phi: float, c: float) -> np.ndarray:
    """Coefficients (degree 3 first) of the angle-dependent cubic factor
    of the tube characteristic polynomial:

    f(x) = -x^3 + (-c/(4 lam) + 3 lam) x^2 + (c - 6 lam^2) x / 2
           + (16 lam^4 - 16 c lam^2 - c^2 + (c + 4 lam^2)^2 cos(2 phi)) / (32 lam).
    """
    return np.array(
        [
            -1.0,
            -c / (4 * lam) + 3 * lam,
            0.5 * (c - 6 * lam**2),
            (16 * lam**4 - 16 * c * lam**2 - c**2 + (c + 4 * lam**2) ** 2 * np.cos(2 * phi))
            / (32 * lam),
        ]
    )


def _char_factors(n: int, k: int, r: float, phi: float, c: float):
    """Factors of the tube characteristic polynomial, inputs validated:
    (lam, mu, the angle factor, power of (lam - x), power of (mu - x))."""
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    _check_radius(r)
    check_curvature(c)
    if not 0 <= phi <= np.pi / 2 + 1e-12:
        raise ValueError("phi must lie in [0, pi/2]")
    lam = _tube_lambda(r, c)
    mu = -c / (4 * lam)
    if k == 1:
        quad, _ = np.polydiv(angle_factor_cubic(lam, np.pi / 2, c), np.array([-1.0, mu]))
        return lam, mu, quad, 2 * n - 3, 0
    return lam, mu, angle_factor_cubic(lam, phi, c), 2 * n - k - 2, k - 2


def tube_char_poly(n: int, k: int, r: float, phi: float, c: float) -> np.ndarray:
    """Characteristic polynomial of the tube shape operator, degree 2n-1.

    p(x) = (lam - x)^(2n-k-2) (-c/(4 lam) - x)^(k-2) f_{lam,phi}(x) with
    lam = (sqrt(-c)/2) tanh(r sqrt(-c)/2).  For k = 1 the angle is pi/2
    and -c/(4 lam) is an exact root of the cubic, so the polynomial is
    read as (lam - x)^(2n-3) times the quadratic f / (-c/(4 lam) - x).

    Returns coefficients with the highest degree first.
    """
    lam, mu, poly, power_lam, power_mu = _char_factors(n, k, r, phi, c)
    for _ in range(power_lam):
        poly = np.polymul(poly, np.array([-1.0, lam]))
    for _ in range(power_mu):
        poly = np.polymul(poly, np.array([-1.0, mu]))
    return poly


def tube_char_roots(n: int, k: int, r: float, phi: float, c: float) -> np.ndarray:
    """Roots of tube_char_poly, ascending.  The cubic (or quadratic) factor
    is solved through the companion matrix; the power factors contribute
    their roots exactly."""
    lam, mu, factor, power_lam, power_mu = _char_factors(n, k, r, phi, c)
    roots = list(_poly_roots(factor)) + [lam] * power_lam + [mu] * power_mu
    return np.sort(np.array(roots))


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a low-degree polynomial via its companion matrix."""
    coeffs = np.asarray(coeffs, dtype=float)
    monic = coeffs / coeffs[0]
    deg = len(monic) - 1
    comp = np.zeros((deg, deg))
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[::-1][:-1]
    roots = np.linalg.eigvals(comp)
    return np.sort(roots.real)


def tube_mean_curvature(n: int, k: int, r: float, c: float) -> float:
    """Mean curvature of the tube of radius r around a (2n-k)-dim W_w:

    H = 2 s0 (k - 1) / sinh(2 s0 r) + 2n s0 tanh(s0 r),  s0 = sqrt(-c)/2,

    with 1/sinh(x) = 2 e^(-x) / (1 - e^(-2x)), which cannot overflow.
    Constant in the normal direction (and hence in the Kahler angle): the
    tubes are isoparametric.  For k = 1, r = 0 is allowed and gives the
    minimal ruled hypersurface itself.
    """
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    if not 0 <= r < np.inf:  # also rejects NaN
        raise FocalRadius("tube radius must be nonnegative and finite")
    check_curvature(c)
    if r == 0:
        if k > 1:
            raise FocalRadius("r = 0 degenerates the tube to the focal submanifold")
        return 0.0
    s0 = np.sqrt(-c) / 2
    csch = 2 * np.exp(-2 * s0 * r) / -np.expm1(-4 * s0 * r)
    return float(2 * s0 * (k - 1) * csch + 2 * n * s0 * np.tanh(s0 * r))


def standard_spectrum(example: str, n: int, r: float = None, c: float = -4.0, k: int = None) -> TubeSpectrum:
    """Principal curvatures of the classical Hopf examples.

    example is one of 'tube-chk' (tube of radius r around a totally
    geodesic CH^k, 0 <= k <= n-1), 'tube-rhn' (tube around a totally
    geodesic RH^n) or 'horosphere'.  Multiplicities are (2k, 2(n-k-1), 1),
    (n-1, n-1, 1) and (2(n-1), 1); the last value is the Hopf curvature.
    """
    if n < 2:
        raise InvalidK("need n >= 2")
    check_curvature(c)
    if example not in ("horosphere", "tube-chk", "tube-rhn"):
        raise InvalidK(f"unknown example {example!r}")
    if example == "tube-chk" and (k is None or not 0 <= k <= n - 1):
        raise InvalidK(f"tube-chk needs 0 <= k <= n-1, got {k}")
    # the horosphere ignores r, but an r that is given is finite
    if example != "horosphere" or (r is not None and not np.isfinite(r)):
        _check_radius(r)
    s0 = np.sqrt(-c) / 2
    with np.errstate(over="ignore", divide="ignore"):
        if example == "horosphere":
            raw = [(s0, 2 * (n - 1)), (2 * s0, 1)]
        elif example == "tube-chk":
            t = np.tanh(s0 * r)
            raw = [(s0 * t, 2 * k), (s0 / t, 2 * (n - k - 1)), (2 * s0 / np.tanh(2 * s0 * r), 1)]
        else:
            t = np.tanh(s0 * r)
            raw = [(s0 * t, n - 1), (s0 / t, n - 1), (2 * s0 * np.tanh(2 * s0 * r), 1)]
    if not np.isfinite([v for v, _ in raw]).all():  # 1/tanh overflows at a tiny r
        raise FocalRadius(f"a principal curvature at r = {r} is not finite")
    hopf = raw[-1][0]
    # merge coincident values (tube-rhn at r = log(2+sqrt(3))/sqrt(-c))
    values, mults = np.array(sorted((v, m) for v, m in raw if m > 0)).T
    return TubeSpectrum(_merged_entries(values, mults), hopf_value=float(hopf))


def lohnherr_spectrum(n: int, c: float = -4.0) -> TubeSpectrum:
    """Principal curvatures of the minimal ruled hypersurface W^(2n-1):
    {-sqrt(-c)/2, 0, +sqrt(-c)/2} with multiplicities {1, 2n-3, 1}."""
    check_curvature(c)
    s0 = np.sqrt(-c) / 2
    return TubeSpectrum(((-s0, 1, 1), (0.0, 2 * n - 3, 2 * n - 3), (s0, 1, 1)))


# ---------------------------------------------------------------------------
# spectra of tubes around W_w


def _check_unit_normal(Wspec: SubmanifoldW, xi: ANVector):
    if xi.n != Wspec.n or xi.c != Wspec.c:
        raise DimensionMismatch("xi does not match the submanifold data")
    v = _galpha_flat(xi)
    res = np.linalg.norm(v - Wspec.w_perp_basis.T @ (Wspec.w_perp_basis @ v))
    if abs(xi.a) > NORMAL_TOL or abs(xi.x) > NORMAL_TOL or res > NORMAL_TOL:
        raise NotNormal("xi is not normal to W_w")
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise NotNormal("xi is not a unit vector")


def normal_kahler_angle(Wspec: SubmanifoldW, xi: ANVector) -> float:
    """Kahler angle of the unit normal xi with respect to w_perp."""
    _check_unit_normal(Wspec, xi)
    v = _galpha_flat(xi)
    F = Wspec.w_perp_basis.T @ (Wspec.w_perp_basis @ apply_J(v))
    return float(np.arccos(min(1.0, np.linalg.norm(F))))


def tube_spectrum_at(spec: TubeSpec, xi: ANVector) -> TubeSpectrum:
    """Spectrum of the tube at the point reached from o along xi.

    Equals the spectrum of a tube of the same radius around a
    constant-angle submanifold with angle phi_xi, so it generally varies
    with the normal direction: only constant-angle w_perp gives a
    hypersurface with globally constant principal curvatures.
    """
    phi = normal_kahler_angle(spec.Wspec, xi)
    roots = tube_char_roots(spec.n, spec.k, spec.r, phi, spec.c)
    return spectrum_from_values(roots)


def numeric_shape_operator(spec: TubeSpec, xi: ANVector) -> np.ndarray:
    """Shape operator of the tube at gamma_xi(r), assembled from Jacobi fields.

    Tangent generators evolve with initial data (X, -A_xi X), normal ones
    with (0, X); each is split into its J xi component (curvature c) and
    the rest (curvature c/4) in a parallel frame, and the operator with
    respect to the inward normal is recovered from the derivative of the
    evolved frame.  Its eigenvalues match tube_char_roots.

    Returns the (2n-1) x (2n-1) matrix in an orthonormal frame; ValueError
    unless it is symmetric within 1e-8 of its largest entry.
    """
    S, _ = tube_operator_frame(spec, xi)
    if not np.abs(S - S.T).max() <= 1e-8 * np.abs(S).max():
        raise ValueError("shape operator is not symmetric")
    return S


def tube_operator_frame(spec: TubeSpec, xi: ANVector):
    """(shape operator matrix, coordinates of J xi) in a fixed orthonormal
    frame of the xi-orthocomplement at the base point.

    The frame is parallel along the radial geodesic, so the second output
    also expands -J eta at the tube point, eta being the inward normal.
    """
    Wspec, r, c, n = spec.Wspec, spec.r, spec.c, spec.n
    _check_unit_normal(Wspec, xi)
    d = 2 * n
    s0 = np.sqrt(-c) / 2

    def emb(v: np.ndarray) -> np.ndarray:
        out = np.zeros(d)
        out[1:-1] = v
        return out

    B = np.zeros(d)
    B[0] = 1.0
    Zv = np.zeros(d)
    Zv[-1] = 1.0

    xi_g = _galpha_flat(xi)
    jxi_g = apply_J(xi_g)
    pxi = Wspec.w.project(jxi_g)  # tangential part of J xi

    tangent_cols = [B, Zv]
    tangent_cols += [emb(row) for row in Wspec.c_part_basis]
    tangent_cols += [emb(row) for row in Wspec.p_perp_basis]
    T = np.column_stack(tangent_cols)

    # w_perp minus the xi direction
    coef = Wspec.w_perp_basis @ xi_g
    rest = Wspec.w_perp_basis - np.outer(coef, xi_g)
    q, s, _ = np.linalg.svd(rest.T, full_matrices=False)
    Nf = np.column_stack([emb(q[:, i]) for i in range(spec.k - 1)]) if spec.k > 1 else np.zeros((d, 0))

    M = np.hstack([T, Nf])  # orthonormal basis of the xi-orthocomplement
    pxi_full = emb(pxi)
    z_full = Zv

    def a_xi(v: np.ndarray) -> np.ndarray:
        # shape operator of W_w: rank two, swapping Z and P xi
        return s0 * (v[-1] * pxi_full + (v @ pxi_full) * z_full)

    # J xi in ambient flat coordinates: xi has no B/Z component
    jxi = np.zeros(d)
    jxi[1:-1] = jxi_g
    u = M.T @ jxi

    gens = [(M.T @ T[:, i], M.T @ (-a_xi(T[:, i]))) for i in range(T.shape[1])]
    gens += [(np.zeros(2 * n - 1), M.T @ Nf[:, i]) for i in range(Nf.shape[1])]

    C1, S1 = np.cosh(s0 * r), np.sinh(s0 * r) / s0
    C1p, S1p = s0 * np.sinh(s0 * r), np.cosh(s0 * r)
    C2, S2 = np.cosh(2 * s0 * r), np.sinh(2 * s0 * r) / (2 * s0)
    C2p, S2p = 2 * s0 * np.sinh(2 * s0 * r), np.cosh(2 * s0 * r)

    Zm = np.zeros((2 * n - 1, 2 * n - 1))
    Zp = np.zeros_like(Zm)
    for j, (X, Xp) in enumerate(gens):
        xu, xpu = X @ u, Xp @ u
        X_perp, Xp_perp = X - xu * u, Xp - xpu * u
        Zm[:, j] = (xu * C2 + xpu * S2) * u + C1 * X_perp + S1 * Xp_perp
        Zp[:, j] = (xu * C2p + xpu * S2p) * u + C1p * X_perp + S1p * Xp_perp
    S = Zp @ np.linalg.inv(Zm)
    return S, u
