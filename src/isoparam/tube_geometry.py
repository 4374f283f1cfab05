"""Jacobi-field calculus for tubes and parallel hypersurfaces.

Along a unit-speed geodesic of CH^n the normal Jacobi equation decouples,
in a parallel frame, into a component along J gamma' (curvature c) and the
complement (curvature c/4).  The scalar solutions

    g_nu(t) = cosh(t sqrt(-c)/2) - (2 nu / sqrt(-c)) sinh(t sqrt(-c)/2),
    h(t)    = -(2 / sqrt(-c)) sinh(t sqrt(-c)/2)

drive every spectrum in this module: the closed-form principal curvatures
of the classical Hopf examples, the characteristic polynomial of tubes
around the ruled minimal submanifolds W_w, and the shape operator of those
tubes evolved from the Jacobi fields, which cross-checks the closed forms.
Write J xi = P xi + F xi with P xi in w and F xi in w_perp.  The shape
operator A_xi of W_w couples only Z with P w_perp, so the tube operator
leaves span{Z, P xi, F xi} invariant and is lambda = s0 tanh(s0 r) on the
rest of the tangent space of W_w and mu = s0 coth(s0 r) on the rest of
w_perp minus xi, s0 = sqrt(-c)/2: the factorisation
(lambda - x)^(2n-k-2) (mu - x)^(k-2) f_phi(x) of tube_char_poly.
_tube_block evolves only that 3 x 3 block, and numeric_shape_operator the
whole frame, with no closed form in it, to check the factorisation.

All tube curvatures refer to the inward unit normal (pointing back to the
core submanifold), which makes them positive.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    FocalRadius,
    InvalidCodimension,
    InvalidK,
    NotNormal,
    check_curvature,
    check_radius,
)
from .indefinite_linalg import cluster
from .kahler_angle import apply_J
from .solvable_model import (
    ANVector,
    SubmanifoldW,
    _check_normal,
    _zp_coupling,
    shape_operator,
)

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
        hopf = [] if self.hopf_value is None else [self.hopf_value]
        if not np.isfinite([v for v, _, _ in ents] + hopf).all():
            raise ValueError("curvatures must be finite")
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


def spectrum_from_pairs(pairs, **kw) -> TubeSpectrum:
    """The TubeSpectrum of (value, multiplicity) pairs; kw go to TubeSpectrum.

    Pairs of multiplicity 0 are dropped and the rest sorted.  Neighbours a,
    b name one curvature when |a - b| <= CLUSTER_TOL (1 + max(|a|, |b|)): its
    multiplicity is the run's sum and its value the mean over all copies,
    v0 + sum m_i (v_i - v0) / sum m_i, so a lone pair keeps its value bit for
    bit.  Raises ValueError for a value that is not finite or a negative
    multiplicity, before any arithmetic.
    """
    pairs = [(v, m) for v, m in pairs if m != 0]
    values = np.array([v for v, _ in pairs], dtype=float)
    mults = np.array([m for _, m in pairs], dtype=int)
    if not np.isfinite(values).all() or (mults < 0).any():
        raise ValueError("curvatures must be finite and multiplicities non-negative")
    order = np.argsort(values, kind="stable")
    values, mults = values[order], mults[order]
    mags = np.abs(values)
    entries = []
    for run in cluster(values, CLUSTER_TOL * (1.0 + np.maximum(mags[:-1], mags[1:]))):
        v, m = values[run], mults[run]
        total = int(m.sum())
        value = v[0] + (m * (v - v[0])).sum() / total if len(v) > 1 else v[0]
        entries.append((float(value), total, total))
    return TubeSpectrum(tuple(entries), **kw)


@dataclass(frozen=True)
class TubeSpec:
    """A tube of radius r around a submanifold W_w."""

    Wspec: SubmanifoldW
    r: float

    def __post_init__(self):
        check_radius(self.r)

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
    """(g_nu(t), g_nu'(t), h(t), h'(t)) for curvature c < 0.  Raises
    ValueError unless nu and t are finite, and FocalRadius when a value
    overflows."""
    check_curvature(c)
    if not (np.isfinite(nu) and np.isfinite(t)):
        raise ValueError(f"need finite nu and t, got nu = {nu}, t = {t}")
    s0 = np.sqrt(-c) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(s0 * t), np.sinh(s0 * t)
        g = ch - (nu / s0) * sh
        gp = s0 * sh - nu * ch
        h = -sh / s0
        hp = -ch
    if not np.isfinite([g, gp, h, hp]).all():
        raise FocalRadius(f"the Jacobi scalars at t = {t}, nu = {nu} overflow")
    return float(g), float(gp), float(h), float(hp)


def parallel_data(r: float, t: float, c: float):
    """Evolved data of the parallel-hypersurface family at distance t.

    Returns (lambda_t, mu_t, alpha_t, beta_t, focal): the two principal
    curvatures and the frame coefficients of the evolved semi-null basis,
    alpha_t = q^3 sinh(s0 t) / s0 and beta_t = q^2 with
    q = cosh(s0 r) / cosh(s0 (r - t)), written as
    e^(s0 t) (1 + e^(-2 s0 r)) / (1 + e^(-2 s0 (r - t))) so that it does not
    overflow at a large r.  At t = r the family collapses onto the focal
    submanifold: lambda_t = 0, mu_t = +inf (sentinel) and focal = True.
    Raises FocalRadius unless r is finite and positive, or when alpha_t,
    beta_t or mu_t overflows.
    """
    check_curvature(c)
    check_radius(r)
    if not 0 <= t <= r:
        raise ValueError("need 0 <= t <= r")
    s0 = np.sqrt(-c) / 2
    lam = s0 * np.tanh(s0 * (r - t))
    with np.errstate(over="ignore", divide="ignore"):
        q = np.exp(s0 * t) * (1 + np.exp(-2 * s0 * r)) / (1 + np.exp(-2 * s0 * (r - t)))
        alpha, beta = q**3 * np.sinh(s0 * t) / s0, q**2
        mu = np.inf if t == r else s0 / np.tanh(s0 * (r - t))
    if not np.isfinite([alpha, beta]).all() or (t != r and not np.isfinite(mu)):
        raise FocalRadius(f"the parallel data at r = {r}, t = {t} overflow")
    if t == r:
        return 0.0, np.inf, float(alpha), float(beta), True
    return float(lam), float(mu), float(alpha), float(beta), False


# ---------------------------------------------------------------------------
# closed-form spectra


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
    (lam, mu, the angle factor, power of (lam - x), power of (mu - x)).
    Computed in float64; raises FocalRadius when the factor, or mu for
    k > 2, is not finite (lam underflows to 0 or an entry overflows)."""
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    check_radius(r)
    check_curvature(c)
    if not 0 <= phi <= np.pi / 2 + 1e-12:
        raise ValueError("phi must lie in [0, pi/2]")
    s0 = np.sqrt(-c) / 2
    lam, c = s0 * np.tanh(s0 * r), np.float64(c)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = -c / (4 * lam)
        if k == 1:
            factor = np.polydiv(angle_factor_cubic(lam, np.pi / 2, c), np.array([-1.0, mu]))[0]
        else:
            factor = angle_factor_cubic(lam, phi, c)
    if not np.isfinite(factor).all() or (k > 2 and not np.isfinite(mu)):
        raise FocalRadius(f"the tube characteristic polynomial at r = {r}, c = {c} is not finite")
    if k == 1:
        return float(lam), float(mu), factor, 2 * n - 3, 0
    return float(lam), float(mu), factor, 2 * n - k - 2, k - 2


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


def tube_char_spectrum(n: int, k: int, r: float, phi: float, c: float) -> TubeSpectrum:
    """tube_char_roots as a spectrum: lam, mu with their powers and the angle factor's roots."""
    lam, mu, factor, p_lam, p_mu = _char_factors(n, k, r, phi, c)
    return spectrum_from_pairs([(lam, p_lam), (mu, p_mu), *((x, 1) for x in _poly_roots(factor))])


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

    with 1/sinh(x) = 2 e^(-x) / (1 - e^(-2x)), and no such term for k = 1.
    Constant in the normal direction (and hence in the Kahler angle): the
    tubes are isoparametric.  For k = 1, r = 0 is allowed and gives the
    minimal ruled hypersurface itself.  Raises FocalRadius when H is not
    finite (1/sinh overflows at a tiny r).
    """
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    check_radius(r, zero_ok=k == 1)
    check_curvature(c)
    if r == 0:
        return 0.0
    s0 = np.sqrt(-c) / 2
    H = 2 * n * s0 * np.tanh(s0 * r)
    if k > 1:
        with np.errstate(over="ignore", divide="ignore"):
            H = 2 * s0 * (k - 1) * (2 * np.exp(-2 * s0 * r) / -np.expm1(-4 * s0 * r)) + H
    if not np.isfinite(H):
        raise FocalRadius(f"the mean curvature at r = {r} is not finite")
    return float(H)


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
        check_radius(r)
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
    # coincident values merge (tube-rhn at r = log(2+sqrt(3))/sqrt(-c))
    return spectrum_from_pairs(raw, hopf_value=float(raw[-1][0]))


def lohnherr_spectrum(n: int, c: float = -4.0) -> TubeSpectrum:
    """Principal curvatures of the minimal ruled hypersurface W^(2n-1):
    {-sqrt(-c)/2, 0, +sqrt(-c)/2} with multiplicities {1, 2n-3, 1}."""
    if n < 2:
        raise InvalidK("need n >= 2")
    check_curvature(c)
    s0 = np.sqrt(-c) / 2
    return TubeSpectrum(((-s0, 1, 1), (0.0, 2 * n - 3, 2 * n - 3), (s0, 1, 1)))


# ---------------------------------------------------------------------------
# spectra of tubes around W_w


def _check_unit_normal(Wspec: SubmanifoldW, xi: ANVector) -> np.ndarray:
    """The g_alpha coordinates of xi; NotNormal unless it is a unit normal."""
    v = _check_normal(Wspec, xi)
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise NotNormal("xi is not a unit vector")
    return v


def normal_kahler_angle(Wspec: SubmanifoldW, xi: ANVector) -> float:
    """Kahler angle of the unit normal xi with respect to w_perp."""
    v = _check_unit_normal(Wspec, xi)
    F = Wspec.w_perp_basis.T @ (Wspec.w_perp_basis @ apply_J(v))
    return float(np.arccos(min(1.0, np.linalg.norm(F))))


def tube_spectrum_at(spec: TubeSpec, xi: ANVector) -> TubeSpectrum:
    """Spectrum of the tube at the point reached from o along xi.

    Equals the spectrum of a tube of the same radius around a
    constant-angle submanifold with angle phi_xi, so it generally varies
    with the normal direction: only constant-angle w_perp gives a
    hypersurface with globally constant principal curvatures.
    """
    return tube_char_spectrum(spec.n, spec.k, spec.r, normal_kahler_angle(spec.Wspec, xi), spec.c)


def _jacobi_operator(X0, X1, u, s0: float, r: float) -> np.ndarray:
    """Zp Zm^-1, the tube shape operator at t = r of the Jacobi fields that
    start from the columns of X0 (values) and X1 (derivatives) in a parallel
    orthonormal frame in which J xi is u.  The curvature is c along u and
    c/4 elsewhere, so Zm = C1 X0 + S1 X1 + u u^T ((C2 - C1) X0 + (S2 - S1) X1)
    with C1 = cosh(s0 r), S1 = sinh(s0 r) / s0 (C2, S2 the same at 2 s0), and
    Zp is its derivative.  FocalRadius unless Zm is invertible and all three
    matrices are finite.
    """
    def evolve(c1, s1, c2, s2):
        return c1 * X0 + s1 * X1 + np.outer(u, u @ ((c2 - c1) * X0 + (s2 - s1) * X1))

    a, b = s0 * r, 2 * s0 * r
    with np.errstate(over="ignore", invalid="ignore"):
        Zm = evolve(np.cosh(a), np.sinh(a) / s0, np.cosh(b), np.sinh(b) / (2 * s0))
        Zp = evolve(s0 * np.sinh(a), np.cosh(a), 2 * s0 * np.sinh(b), np.cosh(b))
    if np.isfinite([Zm, Zp]).all():
        with contextlib.suppress(np.linalg.LinAlgError):  # Zm singular: s0 r is 0
            S = np.linalg.solve(Zm.T, Zp.T).T
            if np.isfinite(S).all():
                return S
    raise FocalRadius(f"the tube shape operator at r = {r} is not finite")


def _tube_block(spec: TubeSpec, xi: ANVector):
    """The tube shape operator on its coupled block V = span{Z, P xi, F xi}.

    In the basis of V along Z, P xi and F xi, A_xi Z = s0 P xi makes the
    Jacobi fields start from X0 = diag(1, 1, 0) and
    X1 = [[0, -s0 sP, 0], [-s0 sP, 0, 0], [0, 0, 1]], and J xi is
    u_V = (0, sP, sN) with sP = |P xi| = sin phi and sN = |F xi| = cos phi;
    the block is _jacobi_operator of these.  For k = 1, F xi = 0 and
    V = span{Z, P xi}.

    Returns (lambda, mu, multiplicity of lambda, multiplicity of mu, block,
    u_V), the multiplicities 2n - k - 2 and max(k - 2, 0).  Raises NotNormal
    unless xi is a unit normal and the Z-P coupling read off the frames of
    W_w (the row of shape_operator) is s0 P xi within 1e-12 (1 + |coupling|),
    and FocalRadius when the block, or mu for k > 2, is not finite.
    """
    W, r = spec.Wspec, spec.r
    v = _check_unit_normal(W, xi)
    jxi = apply_J(v)
    s0 = np.sqrt(-spec.c) / 2
    u_p = W.p_perp_basis @ jxi
    coef = _zp_coupling(W) @ (W.w_perp_basis @ v)
    res = np.linalg.norm(coef - s0 * u_p)  # 0.0 when p = 0 (complex w_perp)
    if not res <= 1e-12 * (1.0 + np.linalg.norm(coef)):
        raise NotNormal(f"the Z-P coupling of xi differs from s0 P xi by {res:.2e}")
    sP = np.linalg.norm(u_p)
    X0 = np.diag([1.0, 1.0, 0.0])
    X1 = np.array([[0.0, -s0 * sP, 0.0], [-s0 * sP, 0.0, 0.0], [0.0, 0.0, 1.0]])
    u = np.array([0.0, sP, np.linalg.norm(W.w_perp_basis @ jxi)])
    if spec.k == 1:
        X0, X1, u = X0[:2, :2], X1[:2, :2], u[:2]
    block = _jacobi_operator(X0, X1, u, s0, r)
    t = np.tanh(s0 * r)
    with np.errstate(over="ignore", divide="ignore"):
        mu = s0 / t  # not finite at a subnormal r
    if spec.k > 2 and not np.isfinite(mu):
        raise FocalRadius(f"mu = s0 coth(s0 r) at r = {r} is not finite")
    return s0 * t, mu, W.tangent_dim - 2, max(spec.k - 2, 0), block, u


def numeric_shape_operator(spec: TubeSpec, xi: ANVector) -> np.ndarray:
    """Shape operator of the tube at gamma_xi(r), evolved from Jacobi fields.

    The frame, parallel along the radial geodesic, is the tangent frame of
    W_w followed by one thin SVD of w_perp minus xi.  Tangent generators
    start from (X, -A_xi X), A_xi = shape_operator(W, xi), and normal ones
    from (0, X): X0 = [I 0; 0 0] and X1 = [-A_xi 0; 0 I].  The whole frame
    is evolved and no closed form enters, so the eigenvalues are an
    independent check of tube_char_roots.

    Returns the (2n-1) x (2n-1) matrix; FocalRadius unless it is finite and
    symmetric within 1e-8 of its largest entry (at a large r, from about
    r = 20 at c = -4, the evolution loses the symmetry before it overflows).
    """
    W, D = spec.Wspec, 2 * spec.n - 1
    v = _check_unit_normal(W, xi)
    A = shape_operator(W, xi)
    d = len(A)
    N = W.w_perp_basis
    _, _, rest = np.linalg.svd(N - np.outer(N @ v, v), full_matrices=False)
    # J xi lies in g_alpha, so the g_alpha parts of the frame rows expand it
    u = np.vstack([W._frame_rows()[0][:, 1:-1], rest[: D - d]]) @ apply_J(v)
    X0 = np.diag((np.arange(D) < d) * 1.0)
    X1 = np.eye(D) - X0
    X1[:d, :d] = -A
    S = _jacobi_operator(X0, X1, u, np.sqrt(-spec.c) / 2, spec.r)
    asym = np.abs(S - S.T).max()
    if not asym <= 1e-8 * np.abs(S).max():
        raise FocalRadius(f"the tube shape operator at r = {spec.r} is not symmetric: "
                          f"asymmetry {asym:.2e} above 1e-8 of its largest entry")
    return S
