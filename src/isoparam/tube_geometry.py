"""Jacobi-field calculus for tubes and parallel hypersurfaces.

The geometry at curvature c and radius r is s0 times the geometry at c = -4
and radius x = s0 r, s0 = sqrt(-c)/2 from check_curvature.  So each public
function converts once, x = s0 r (t -> s0 t, nu -> nu / s0), computes at
s0 = 1 and scales on the way out: curvatures by s0, h and alpha by 1/s0.
At c = -4, s0 = 1.0 and x = r exactly.

Along a unit-speed geodesic of CH^n the normal Jacobi equation decouples,
in a parallel frame, into a component along J gamma' (curvature c) and the
complement (curvature c/4).  The scalar solutions, with x = s0 t,
g_nu(t) = cosh x - (nu / s0) sinh x and h(t) = -sinh(x) / s0,
drive every spectrum in this module: the closed-form principal curvatures
of the classical Hopf examples, the characteristic polynomial of tubes
around the ruled minimal submanifolds W_w, and the shape operator of those
tubes evolved from the Jacobi fields, which cross-checks the closed forms.
Write J xi = P xi + F xi with P xi in w and F xi in w_perp.  The shape
operator A_xi of W_w couples only Z with P w_perp, so the tube operator
leaves span{Z, P xi, F xi} invariant and is lambda = s0 tanh x on the rest
of the tangent space of W_w and mu = s0 coth x on the rest of w_perp minus
xi: the factorisation (lambda - z)^(2n-k-2) (mu - z)^(k-2) f_phi(z) of
tube_char_poly, with the angle cubic f_phi(z) = -(z - lambda)^2
(z - lambda - mu) - lambda (mu - lambda)^2 sin^2(phi) solved in
y = z - lambda, exact to rounding at every radius.  _tube_block evolves
only that 3 x 3 block, and numeric_shape_operator the whole frame, with no
closed form in it, to check the factorisation.

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
    s0 = check_curvature(c)
    if not (np.isfinite(nu) and np.isfinite(t)):
        raise ValueError(f"need finite nu and t, got nu = {nu}, t = {t}")
    x, nu_unit = s0 * t, nu / s0
    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh = np.cosh(x), np.sinh(x)
        g, gp, h, hp = ch - nu_unit * sh, s0 * (sh - nu_unit * ch), -sh / s0, -ch
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
    s0 = check_curvature(c)
    check_radius(r)
    if not 0 <= t <= r:
        raise ValueError("need 0 <= t <= r")
    x, tau = s0 * r, s0 * t
    lam = np.tanh(x - tau)
    with np.errstate(over="ignore", divide="ignore"):
        q = np.exp(tau) * (1 + np.exp(-2 * x)) / (1 + np.exp(-2 * (x - tau)))
        alpha, beta, mu = q**3 * np.sinh(tau) / s0, q**2, s0 / lam
    if not np.isfinite([alpha, beta]).all() or (t != r and not np.isfinite(mu)):
        raise FocalRadius(f"the parallel data at r = {r}, t = {t} overflow")
    if t == r:
        return 0.0, np.inf, float(alpha), float(beta), True
    return float(s0 * lam), float(mu), float(alpha), float(beta), False


# ---------------------------------------------------------------------------
# closed-form spectra


def _unit_tube(x: float, s0: float, strict: bool = True):
    """The bulk closed forms of a tube at s0 = 1 and radius x = s0 r: lam = tanh x,
    mu = 1 / lam, g = mu - lam = 4 q / (1 - q^2) (q = e^(-2x), exact to rounding
    at every x) and the Hopf values 2 / tanh 2x = mu + lam (tube-chk, the largest
    form) and 2 tanh 2x (tube-rhn).  When strict, FocalRadius unless s0 (mu + lam)
    is finite: mu, g and it are about 1/x, inf at a subnormal x."""
    lam = np.tanh(x)
    with np.errstate(over="ignore", divide="ignore"):
        t2 = np.tanh(2 * x)
        forms = lam, 1 / lam, 4 * np.exp(-2 * x) / -np.expm1(-4 * x), 2 / t2, 2 * t2
        if strict and not np.isfinite(s0 * forms[3]):
            raise FocalRadius(f"a curvature of the tube at s0 r = {x} is not finite")
    return forms


def _angle_factor(lam: float, mu: float, g: float, phi: float, k: int) -> np.ndarray:
    """Coefficients in y = x - lam, highest degree first, of the angle factor:
    f_phi(x) = -(x - lam)^2 (x - lam - mu) - lam g^2 sin^2(phi), g = mu - lam
    (c = -4 lam mu), is -y^3 + mu y^2 - lam g^2 sin^2(phi).  For k = 1, phi is
    pi/2 and y = g a root: the factor is f_phi / (mu - x) = y^2 - lam y - lam g."""
    if k == 1:
        return np.array([1.0, -lam, -lam * g])
    return np.array([-1.0, mu, 0.0, -(lam * g) * g * np.sin(phi) ** 2])


def angle_factor_cubic(lam: float, phi: float, c: float) -> np.ndarray:
    """Coefficients (degree 3 first) in x of the angle cubic f_phi of the
    tube characteristic polynomial at lam, with mu = -c/(4 lam): the factor
    of _angle_factor composed with y = x - lam."""
    mu = -c / (4 * lam)
    f = list(_angle_factor(lam, mu, mu - lam, phi, 2))
    for top in (3, 2, 1):  # Horner's Taylor shift, f(y) -> f(x - lam)
        for j in range(1, top + 1):
            f[j] -= lam * f[j - 1]
    return np.array(f)


def _char_factors(n: int, k: int, r: float, phi: float, c: float):
    """Factors of the tube characteristic polynomial at s0 = 1, inputs validated:
    (s0, lam, mu, the angle factor in y = x - lam, power of (lam - x), power
    of (mu - x)) from _unit_tube, whose FocalRadius covers the factor."""
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    check_radius(r)
    s0 = check_curvature(c)
    if not 0 <= phi <= np.pi / 2 + 1e-12:
        raise ValueError("phi must lie in [0, pi/2]")
    lam, mu, g, _, _ = _unit_tube(s0 * r, s0)
    return s0, float(lam), float(mu), _angle_factor(lam, mu, g, phi, k), 2 * n - k - 2, max(k - 2, 0)


def tube_char_poly(n: int, k: int, r: float, phi: float, c: float) -> np.ndarray:
    """Characteristic polynomial of the tube shape operator, degree 2n-1, highest
    degree first: (lam - x)^(2n-k-2) (mu - x)^max(k-2, 0) f(x - lam), f the angle
    factor of _char_factors, composed at s0 = 1 and its x^j scaled by
    s0^(2n-1-j).  FocalRadius when a coefficient (~ lam^(2n-1)) overflows."""
    s0, lam, mu, factor, power_lam, power_mu = _char_factors(n, k, r, phi, c)
    x = np.poly1d([1.0, 0.0])
    poly = (np.poly1d(factor)(x - lam) * (lam - x) ** power_lam * (mu - x) ** power_mu).coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        poly = poly * s0 ** np.arange(len(poly))
    if not np.isfinite(poly).all():
        raise FocalRadius(f"the tube characteristic polynomial at r = {r}, c = {c} overflows")
    return poly


def tube_char_roots(n: int, k: int, r: float, phi: float, c: float) -> np.ndarray:
    """Roots of tube_char_poly, ascending: s0 times lam plus each
    companion-matrix root of the angle factor in y, and lam and mu with
    their powers, all at s0 = 1."""
    s0, lam, mu, factor, power_lam, power_mu = _char_factors(n, k, r, phi, c)
    return s0 * np.sort([*(lam + _poly_roots(factor)), *[lam] * power_lam, *[mu] * power_mu])


def tube_char_spectrum(n: int, k: int, r: float, phi: float, c: float) -> TubeSpectrum:
    """tube_char_roots as a spectrum: lam, mu with their powers and the angle factor's roots."""
    s0, lam, mu, factor, p_lam, p_mu = _char_factors(n, k, r, phi, c)
    roots = s0 * (lam + _poly_roots(factor))
    return spectrum_from_pairs([(s0 * lam, p_lam), (s0 * mu, p_mu), *((x, 1) for x in roots)])


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of a low-degree polynomial via its companion matrix."""
    monic = np.asarray(coeffs, dtype=float) / coeffs[0]
    comp = np.eye(len(monic) - 1, k=-1)
    comp[:, -1] = -monic[:0:-1]
    return np.sort(np.linalg.eigvals(comp).real)


def tube_mean_curvature(n: int, k: int, r: float, c: float) -> float:
    """Mean curvature of the tube of radius r around a (2n-k)-dim W_w:

    H = s0 ((k - 1) g + 2n tanh x),  g = 2 / sinh 2x,  x = s0 r,

    g from _unit_tube, with no such term for k = 1.
    Constant in the normal direction (and hence in the Kahler angle): the
    tubes are isoparametric.  For k = 1, r = 0 is allowed and gives the
    minimal ruled hypersurface itself.  Raises FocalRadius when H is not
    finite (g overflows at a tiny r).
    """
    if n < 2 or not 1 <= k <= 2 * n - 3:
        raise InvalidCodimension(f"need n >= 2 and 1 <= k <= 2n-3, got n={n}, k={k}")
    check_radius(r, zero_ok=k == 1)
    s0 = check_curvature(c)
    if r == 0:
        return 0.0
    lam, _, g, _, _ = _unit_tube(s0 * r, s0, strict=False)
    with np.errstate(over="ignore"):
        H = s0 * ((k - 1) * g + 2 * n * lam if k > 1 else 2 * n * lam)
    if not np.isfinite(H):
        raise FocalRadius(f"the mean curvature at r = {r} is not finite")
    return float(H)


def standard_spectrum(example: str, n: int, r: float = None, c: float = -4.0, k: int = None) -> TubeSpectrum:
    """Principal curvatures of the classical Hopf examples.

    example is one of 'tube-chk' (tube of radius r around a totally
    geodesic CH^k, 0 <= k <= n-1), 'tube-rhn' (tube around a totally
    geodesic RH^n) or 'horosphere'.  Multiplicities are (2k, 2(n-k-1), 1),
    (n-1, n-1, 1) and (2(n-1), 1); the last value is the Hopf curvature.
    The values are s0 times those of _unit_tube (1 and 2 for the horosphere).
    """
    if n < 2:
        raise InvalidK("need n >= 2")
    s0 = check_curvature(c)
    if example not in ("horosphere", "tube-chk", "tube-rhn"):
        raise InvalidK(f"unknown example {example!r}")
    if example == "tube-chk" and (k is None or not 0 <= k <= n - 1):
        raise InvalidK(f"tube-chk needs 0 <= k <= n-1, got {k}")
    # the horosphere ignores r, but an r that is given is finite
    if example != "horosphere" or (r is not None and not np.isfinite(r)):
        check_radius(r)
    if example == "horosphere":
        raw = [(1.0, 2 * (n - 1)), (2.0, 1)]
    else:
        lam, mu, _, chk, rhn = _unit_tube(s0 * r, s0)
        raw = ([(lam, 2 * k), (mu, 2 * (n - k - 1)), (chk, 1)] if example == "tube-chk"
               else [(lam, n - 1), (mu, n - 1), (rhn, 1)])
    raw = [(s0 * v, m) for v, m in raw]
    # coincident values merge (tube-rhn at s0 r = log(2 + sqrt(3)))
    return spectrum_from_pairs(raw, hopf_value=float(raw[-1][0]))


def lohnherr_spectrum(n: int, c: float = -4.0) -> TubeSpectrum:
    """Principal curvatures of the minimal ruled hypersurface W^(2n-1):
    {-s0, 0, +s0} with multiplicities {1, 2n-3, 1}."""
    if n < 2:
        raise InvalidK("need n >= 2")
    s0 = check_curvature(c)
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


def _jacobi_operator(X0, X1, u, x: float, s0: float) -> np.ndarray:
    """s0 Zp Zm^-1: the tube shape operator at radius x = s0 r, evolved at
    s0 = 1 and scaled, of the Jacobi fields that start from the columns of X0
    (values) and X1 (derivatives over s0) in a parallel orthonormal frame in
    which J xi is u.  The curvature is -4 along u and -1 elsewhere, so
    Zm = C1 X0 + S1 X1 + u u^T ((C2 - C1) X0 + (S2 - S1) X1) with C1 = cosh x,
    S1 = sinh x (C2, S2 = cosh 2x, sinh(2x) / 2), and Zp is its derivative in
    x.  Scaling a column of both X0 and X1 leaves Zp Zm^-1 unchanged.
    FocalRadius unless Zm is invertible and all three matrices are finite.
    """
    def evolve(c1, s1, c2, s2):
        return c1 * X0 + s1 * X1 + np.outer(u, u @ ((c2 - c1) * X0 + (s2 - s1) * X1))

    with np.errstate(over="ignore", invalid="ignore"):
        ch, sh, ch2, sh2 = np.cosh(x), np.sinh(x), np.cosh(2 * x), np.sinh(2 * x)
        Zm, Zp = evolve(ch, sh, ch2, sh2 / 2), evolve(sh, ch, 2 * sh2, ch2)
        if np.isfinite([Zm, Zp]).all():
            with contextlib.suppress(np.linalg.LinAlgError):  # Zm singular: s0 r is 0
                S = np.linalg.solve(Zm.T, Zp.T).T
                S *= s0
                if np.isfinite(S).all():
                    return S
    raise FocalRadius(f"the tube shape operator at s0 r = {x} is not finite")


def _tube_block(spec: TubeSpec, xi: ANVector):
    """The tube shape operator on its coupled block V = span{Z, P xi, F xi}.

    In the basis of V along Z, P xi and F xi, A_xi Z = s0 P xi makes the
    Jacobi fields start from X0 = diag(1, 1, 0) and, over s0 and with the
    F xi column scaled back, X1 = [[0, -sP, 0], [-sP, 0, 0], [0, 0, 1]], and
    J xi is u_V = (0, sP, sN) with sP = |P xi| = sin phi and
    sN = |F xi| = cos phi; the block is _jacobi_operator of these.  For k = 1,
    F xi = 0 and V = span{Z, P xi}.

    Returns (lambda, mu, multiplicity of lambda, multiplicity of mu, block,
    u_V), the multiplicities 2n - k - 2 and max(k - 2, 0).  Raises NotNormal
    unless xi is a unit normal and the Z-P coupling read off the frames of
    W_w (the row of shape_operator) is s0 P xi within 1e-12 (1 + |coupling|),
    and FocalRadius when the block, or mu for k > 2, is not finite.
    """
    W = spec.Wspec
    v = _check_unit_normal(W, xi)
    jxi = apply_J(v)
    s0 = check_curvature(spec.c)
    u_p = W.p_perp_basis @ jxi
    coef = _zp_coupling(W) @ (W.w_perp_basis @ v)
    res = np.linalg.norm(coef - s0 * u_p)  # 0.0 when p = 0 (complex w_perp)
    if not res <= 1e-12 * (1.0 + np.linalg.norm(coef)):
        raise NotNormal(f"the Z-P coupling of xi differs from s0 P xi by {res:.2e}")
    sP = np.linalg.norm(u_p)
    X0 = np.diag([1.0, 1.0, 0.0])
    X1 = np.array([[0.0, -sP, 0.0], [-sP, 0.0, 0.0], [0.0, 0.0, 1.0]])
    u = np.array([0.0, sP, np.linalg.norm(W.w_perp_basis @ jxi)])
    if spec.k == 1:
        X0, X1, u = X0[:2, :2], X1[:2, :2], u[:2]
    x = s0 * spec.r
    block = _jacobi_operator(X0, X1, u, x, s0)
    lam, mu, _, _, _ = _unit_tube(x, s0, strict=spec.k > 2)  # mu, of mult 0 for k <= 2, may be inf
    return s0 * float(lam), s0 * float(mu), W.tangent_dim - 2, max(spec.k - 2, 0), block, u


def numeric_shape_operator(spec: TubeSpec, xi: ANVector) -> np.ndarray:
    """Shape operator of the tube at gamma_xi(r), evolved from Jacobi fields.

    The frame, parallel along the radial geodesic, is the tangent frame of
    W_w followed by one thin SVD of w_perp minus xi.  Tangent generators
    start from (X, -A_xi X), A_xi = shape_operator(W, xi), and normal ones
    from (0, X): X0 = [I 0; 0 0] and X1 = [-A_xi 0; 0 I].  The whole frame
    is evolved (at s0 = 1, with X1 over s0) and no closed form enters, so
    the eigenvalues are an independent check of tube_char_roots.

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
    s0 = check_curvature(spec.c)
    X1[:d, :d] = -A / s0
    S = _jacobi_operator(X0, X1, u, s0 * spec.r, s0)
    asym = np.abs(S - S.T).max()
    if not asym <= 1e-8 * np.abs(S).max():
        raise FocalRadius(f"the tube shape operator at r = {spec.r} is not symmetric: "
                          f"asymmetry {asym:.2e} above 1e-8 of its largest entry")
    return S
