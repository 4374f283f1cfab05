"""The solvable group model of complex hyperbolic space.

CH^n of holomorphic sectional curvature c < 0 is realized as the solvable
part AN of the Iwasawa decomposition of its isometry group, acting simply
transitively.  Its Lie algebra is a + g_alpha + g_2alpha with

    a = R B,   g_alpha = C^(n-1),   g_2alpha = R Z,   Z = J B,

and all structure constants proportional to sqrt(-c).  An ANVector is an
element a B + U + x Z of the algebra; an ANPoint is the group element
Exp(a B + U + x Z) acting on the base point, stored in these canonical
exponential coordinates.

The algebra is computed in flat coordinates

    [a, re u1, im u1, ..., re u_(n-1), im u_(n-1), x]   in R^(2n),

an orthonormal basis e_i of the left-invariant metric.  One structure-
constant tensor C[i,j,k] = <[e_i, e_j], e_k> per (n, c) gives the bracket.
The Levi-Civita connection of a left-invariant metric follows from the
Koszul formula in an orthonormal basis,

    Gamma[i,j,k] = <nabla_(e_i) e_j, e_k> = (C[i,j,k] - C[j,k,i] + C[k,i,j]) / 2,

and the curvature is the closed form in the matrix of J, written once for
vectors that broadcast over batches and frames; on the basis vectors of a
frame it gives the tensor R[i,j,k,l] = <R(e_i, e_j) e_k, e_l>.  The dense
C and Gamma have (2n)^3 entries, so bracket and levi_civita cost O(n^3).
ANVector is the validated API boundary only: the public functions take and
return ANVectors but compute on flat arrays, validating one ANVector for
their result.

The ruled minimal submanifolds W_w are orbits of the subgroups with
Lie algebra a + w + g_2alpha for a proper real subspace w of g_alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormal, NotTangent, WNotProper, check_curvature
from .kahler_angle import RANK_TOL, RealSubspace, apply_J, complex_structure

NORMAL_TOL = 1e-9  # tangency and normality residual at the base point


@dataclass(frozen=True)
class ANVector:
    """a B + U + x Z with U in C^(n-1); c is the ambient curvature."""

    a: float
    U: np.ndarray
    x: float
    c: float = -4.0

    def __post_init__(self):
        U = np.atleast_1d(np.asarray(self.U, dtype=complex))
        if not np.isfinite(U).all() or not np.isfinite([self.a, self.x]).all():
            raise ValueError("non-finite entries")
        check_curvature(self.c)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "x", float(self.x))

    @property
    def n(self) -> int:
        return len(self.U) + 1

    def __add__(self, other: "ANVector") -> "ANVector":
        _check_compatible(self, other)
        return ANVector(self.a + other.a, self.U + other.U, self.x + other.x, self.c)

    def __sub__(self, other: "ANVector") -> "ANVector":
        _check_compatible(self, other)
        return ANVector(self.a - other.a, self.U - other.U, self.x - other.x, self.c)

    def __mul__(self, t: float) -> "ANVector":
        return ANVector(t * self.a, t * self.U, t * self.x, self.c)

    __rmul__ = __mul__

    def __neg__(self) -> "ANVector":
        return self * -1.0

    def flat(self) -> np.ndarray:
        """Coordinates [a, re u1, im u1, ..., x] in R^(2n)."""
        out = np.empty(2 * self.n)
        out[0] = self.a
        out[1:-1:2] = self.U.real
        out[2:-1:2] = self.U.imag
        out[-1] = self.x
        return out

    @staticmethod
    def from_flat(v: np.ndarray, c: float) -> "ANVector":
        v = np.asarray(v, dtype=float)
        U = v[1:-1:2] + 1j * v[2:-1:2]
        return ANVector(v[0], U, v[-1], c)

    @staticmethod
    def zero(n: int, c: float) -> "ANVector":
        return ANVector(0.0, np.zeros(n - 1, dtype=complex), 0.0, c)

    def to_record(self) -> dict:
        """JSON record {"a": ..., "U": [re, im, ...], "x": ...}."""
        return {
            "a": self.a,
            "U": [float(val) for z in self.U for val in (z.real, z.imag)],
            "x": self.x,
        }


def _check_compatible(X: ANVector, Y: ANVector):
    if X.n != Y.n:
        raise DimensionMismatch(f"vectors live in different algebras: n={X.n} vs n={Y.n}")
    if X.c != Y.c:
        raise DimensionMismatch(f"different curvatures: {X.c} vs {Y.c}")


def _flat_J(n: int) -> np.ndarray:
    """Matrix of J on flat coordinates: J B = Z, J Z = -B, J U = i U."""
    J = np.zeros((2 * n, 2 * n))
    J[1:-1, 1:-1] = complex_structure(n - 1)
    J[-1, 0], J[0, -1] = 1.0, -1.0
    return J


def _structure(n: int, c: float) -> np.ndarray:
    """Structure constants C[i, j, k] = <[e_i, e_j], e_k> in flat coordinates."""
    N = 2 * n
    sq = np.sqrt(-c)
    C = np.zeros((N, N, N))
    g = np.arange(1, N - 1)
    C[0, g, g], C[g, 0, g] = sq / 2, -sq / 2  # 2 [B, U] = sqrt(-c) U
    C[0, -1, -1], C[-1, 0, -1] = sq, -sq  # [B, Z] = sqrt(-c) Z
    C[1:-1, 1:-1, -1] = sq * complex_structure(n - 1).T  # [U, V] = sqrt(-c) <JU, V> Z
    return C


def _koszul(C: np.ndarray) -> np.ndarray:
    """Connection Gamma[i, j, k] = <nabla_(e_i) e_j, e_k> of a left-invariant
    metric from its structure constants C in an orthonormal frame."""
    return 0.5 * (C - np.einsum("jki->ijk", C) + np.einsum("kij->ijk", C))


def _curvature(x: np.ndarray, y: np.ndarray, z: np.ndarray, J: np.ndarray, c: float):
    """R(x, y) z in an orthonormal frame where J acts as the matrix J,
    broadcasting over leading axes:

    R(X,Y)Z = (c/4) ( <Y,Z>X - <X,Z>Y + <JY,Z>JX - <JX,Z>JY - 2<JX,Y>JZ ).
    """
    Jx, Jy, Jz = x @ J.T, y @ J.T, z @ J.T

    def dot(u, v):
        return (u * v).sum(-1, keepdims=True)

    return (c / 4.0) * (
        dot(y, z) * x - dot(x, z) * y + dot(Jy, z) * Jx - dot(Jx, z) * Jy - 2.0 * dot(Jx, y) * Jz
    )


def _contract(T: np.ndarray, X: ANVector, Y: ANVector) -> ANVector:
    """The vector T(X, Y) of a flat-coordinate bilinear map T[i, j, k]."""
    return ANVector.from_flat(Y.flat() @ np.tensordot(X.flat(), T, axes=1), X.c)


def an_inner(X: ANVector, Y: ANVector) -> float:
    """Left-invariant Riemannian metric: B, Z unit, g_alpha standard."""
    _check_compatible(X, Y)
    return float(X.flat() @ Y.flat())


def an_J(X: ANVector) -> ANVector:
    """Complex structure: J B = Z, J Z = -B, J U = i U."""
    return ANVector.from_flat(_flat_J(X.n) @ X.flat(), X.c)


def an_norm(X: ANVector) -> float:
    return float(np.sqrt(an_inner(X, X)))


def bracket(X: ANVector, Y: ANVector) -> ANVector:
    """Lie bracket of a + g_alpha + g_2alpha:

    [B, Z] = sqrt(-c) Z, 2 [B, U] = sqrt(-c) U,
    [U, V] = sqrt(-c) <JU, V> Z, [Z, U] = 0.
    """
    _check_compatible(X, Y)
    return _contract(_structure(X.n, X.c), X, Y)


def levi_civita(X: ANVector, Y: ANVector) -> ANVector:
    """Levi-Civita connection nabla_X Y on left-invariant fields (Koszul).

    nabla_{aB+U+xZ}(bB+V+yZ) = sqrt(-c) { (<U,V>/2 + x y) B
        - (b U + y J U + x J V)/2 + (<JU,V>/2 - b x) Z }.
    """
    _check_compatible(X, Y)
    return _contract(_koszul(_structure(X.n, X.c)), X, Y)


def curvature_tensor(X: ANVector, Y: ANVector, Zv: ANVector) -> ANVector:
    """Curvature of CH^n:

    R(X,Y)Z = (c/4) ( <Y,Z>X - <X,Z>Y + <JY,Z>JX - <JX,Z>JY - 2<JX,Y>JZ ).
    """
    _check_compatible(X, Y)
    _check_compatible(X, Zv)
    R = _curvature(X.flat(), Y.flat(), Zv.flat(), _flat_J(X.n), X.c)
    return ANVector.from_flat(R, X.c)


def rho(s: float) -> float:
    """(e^s - 1)/s, with the removable singularity filled by Taylor series."""
    if abs(s) < 1e-3:
        # 6 terms: relative error below 1e-21 at |s| = 1e-3
        return 1.0 + s / 2 + s**2 / 6 + s**3 / 24 + s**4 / 120 + s**5 / 720
    return float(np.expm1(s) / s)


@dataclass(frozen=True)
class ANPoint:
    """A point of CH^n = AN in exponential coordinates: Exp(coords) . o."""

    coords: ANVector

    @property
    def n(self) -> int:
        return self.coords.n

    @property
    def c(self) -> float:
        return self.coords.c

    @staticmethod
    def origin(n: int, c: float) -> "ANPoint":
        return ANPoint(ANVector.zero(n, c))


def _product(g: np.ndarray, h: np.ndarray, c: float) -> np.ndarray:
    """group_product on flat exponential coordinates."""
    a, b = float(g[0]), float(h[0])
    ra, rb, ea = rho(a / 2), rho(b / 2), np.exp(a / 2)
    u, v = g[1:-1], h[1:-1]
    juv = u[0::2] @ v[1::2] - u[1::2] @ v[0::2]  # <JU, V>
    out = np.empty_like(g)
    out[0] = a + b
    out[1:-1] = (ra * u + ea * rb * v) * (1.0 / rho((a + b) / 2))
    out[-1] = (
        rho(a) * g[-1] + np.exp(a) * rho(b) * h[-1] + 0.5 * ea * np.sqrt(-c) * ra * rb * juv
    ) / rho(a + b)
    return out


def group_product(g: ANPoint, h: ANPoint) -> ANPoint:
    """Product of AN in exponential coordinates.

    Exp(aB+U+xZ) Exp(bB+V+yZ) = Exp( (a+b) B
        + rho((a+b)/2)^-1 ( rho(a/2) U + e^(a/2) rho(b/2) V )
        + rho(a+b)^-1 ( rho(a) x + e^a rho(b) y
                        + e^(a/2) sqrt(-c) rho(a/2) rho(b/2) <JU,V> / 2 ) Z ).
    """
    _check_compatible(g.coords, h.coords)
    return ANPoint(ANVector.from_flat(_product(g.coords.flat(), h.coords.flat(), g.c), g.c))


# ---------------------------------------------------------------------------
# the ruled minimal submanifolds W_w


@dataclass(frozen=True)
class SubmanifoldW:
    """The orbit W_w of the group with Lie algebra a + w + g_2alpha.

    w is a proper real subspace of g_alpha = C^(n-1).  At the base point
    the tangent space splits as a + (w - P w_perp) + P w_perp + g_2alpha
    and the normal space is w_perp; the shape operator couples Z with
    P w_perp and nothing else.  Stored frames, all orthonormal rows in the
    interleaved coordinates of g_alpha:

        w_perp_basis   normal space, k = dim w_perp,
        p_perp_basis   P w_perp, the projection of J w_perp onto w,
        c_part_basis   w - P w_perp, the complex subspace of w orthogonal
                       to J w_perp (the g_alpha part of the maximal
                       complex subalgebra).

    _frame_rows() turns them into the flat tangent frame [B, Z, c_part,
    P w_perp] and normal frame of the shape and tube operators.
    """

    n: int
    c: float
    w: RealSubspace
    w_perp_basis: np.ndarray
    p_perp_basis: np.ndarray
    c_part_basis: np.ndarray

    @property
    def k(self) -> int:
        return self.w_perp_basis.shape[0]

    @property
    def tangent_dim(self) -> int:
        return 2 * self.n - self.k

    def _frame_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat coordinates of tangent_frame() and normal_frame(), as rows."""
        T = np.zeros((self.tangent_dim, 2 * self.n))
        T[0, 0] = T[1, -1] = 1.0
        T[2:, 1:-1] = np.vstack([self.c_part_basis, self.p_perp_basis])
        V = np.zeros((self.k, 2 * self.n))
        V[:, 1:-1] = self.w_perp_basis
        return T, V

    def tangent_frame(self) -> list[ANVector]:
        """Orthonormal tangent frame at o: [B, Z, c_part..., P w_perp...]."""
        return [ANVector.from_flat(row, self.c) for row in self._frame_rows()[0]]

    def normal_frame(self) -> list[ANVector]:
        return [ANVector.from_flat(row, self.c) for row in self._frame_rows()[1]]


def build_w(w: RealSubspace, n: int, c: float) -> SubmanifoldW:
    """Assemble the frames of W_w from a proper real subspace w of C^(n-1).

    w_perp is w.perp, the complement that w computes once (one full SVD)
    and shares with complement(w).  K = w.basis (J w_perp)^T
    is P w_perp written in w's own coordinates, of size (2m - k) x k; its
    singular values are the sines of the Kahler angles of w_perp.  One SVD
    of K splits w: the left singular vectors with singular value above
    RANK_TOL span P w_perp, the others its complement c_part.

    Raises WNotProper when w is all of g_alpha.
    """
    check_curvature(c)
    if w.ambient_cdim != n - 1:
        raise DimensionMismatch(f"w lives in C^{w.ambient_cdim}, expected C^{n - 1}")
    m = n - 1
    if w.dim == 2 * m:
        raise WNotProper("w must be a proper subspace of g_alpha")
    w_perp = w.perp.basis
    u, s, _ = np.linalg.svd(w.basis @ apply_J(w_perp).T)
    rank = int((s > RANK_TOL).sum())
    frame = u.T @ w.basis
    return SubmanifoldW(n, c, w, w_perp, frame[:rank], frame[rank:])


def _galpha_flat(X: ANVector) -> np.ndarray:
    """Interleaved real coordinates of the g_alpha component."""
    return X.flat()[1:-1]


def _tangent_residual(Wspec: SubmanifoldW, X: ANVector) -> float:
    """Norm of the w_perp component of X (zero for tangent vectors)."""
    return float(np.linalg.norm(Wspec.w_perp_basis @ _galpha_flat(X)))


def _zp_coupling(Wspec: SubmanifoldW) -> np.ndarray:
    """K[e, j] = <II(Z, P_e), xi_j> = -(sqrt(-c)/2) <J P_e, xi_j> for the rows
    P_e of p_perp_basis and xi_j of w_perp_basis: in the adapted frame these
    are the only nonzero components of the second fundamental form."""
    return -0.5 * np.sqrt(-Wspec.c) * apply_J(Wspec.p_perp_basis) @ Wspec.w_perp_basis.T


def second_fundamental_form(Wspec: SubmanifoldW, X: ANVector, Y: ANVector) -> ANVector:
    """Second fundamental form of W_w at the base point.

    The only nonzero products pair the Z direction with P w_perp:
        2 II(Z, P xi) = -sqrt(-c) (J P xi)^perp,
    extended as a symmetric bilinear map vanishing on all other frame
    pairs.  Returns a normal vector; raises NotTangent for non-tangent
    arguments.
    """
    for V in (X, Y):
        if V.n != Wspec.n or V.c != Wspec.c:
            raise DimensionMismatch("vector does not match the submanifold data")
        if _tangent_residual(Wspec, V) > NORMAL_TOL * max(1.0, an_norm(V)):
            raise NotTangent("argument is not tangent to W_w at o")
    P = Wspec.p_perp_basis
    coef = (X.x * (P @ _galpha_flat(Y)) + Y.x * (P @ _galpha_flat(X))) @ _zp_coupling(Wspec)
    out = np.zeros(2 * Wspec.n)
    out[1:-1] = coef @ Wspec.w_perp_basis
    return ANVector.from_flat(out, Wspec.c)


def _check_normal(Wspec: SubmanifoldW, xi: ANVector) -> np.ndarray:
    """The g_alpha coordinates of xi; NotNormal unless xi is normal to W_w at o."""
    if xi.n != Wspec.n or xi.c != Wspec.c:
        raise DimensionMismatch("normal vector does not match the submanifold data")
    v = _galpha_flat(xi)
    res = np.linalg.norm(v - Wspec.w_perp_basis.T @ (Wspec.w_perp_basis @ v))
    if (Wspec.k == 0 or res > NORMAL_TOL * max(1.0, an_norm(xi))
            or abs(xi.a) > NORMAL_TOL or abs(xi.x) > NORMAL_TOL):
        raise NotNormal("xi is not normal to W_w at o")
    return v


def shape_operator(Wspec: SubmanifoldW, xi: ANVector) -> np.ndarray:
    """Matrix of the shape operator of W_w in the tangent_frame() basis.

    <A_xi X, Y> = <II(X, Y), xi>.  Only the Z row and column are filled, off
    the diagonal, so the trace is exactly zero: W_w is minimal.
    """
    v = _check_normal(Wspec, xi)
    coef = _zp_coupling(Wspec) @ (Wspec.w_perp_basis @ v)
    d = Wspec.tangent_dim
    A = np.zeros((d, d))
    A[1, d - len(coef):] = A[d - len(coef):, 1] = coef
    return A


def fundamental_equation_residuals(Wspec: SubmanifoldW) -> tuple[float, float, float]:
    """Largest components of the Gauss, Codazzi and Ricci equations for W_w.

    On left-invariant fields every object is a constant tensor in the
    adapted orthonormal frame (tangent_frame() then normal_frame()): the
    ambient connection is Gamma in that frame, the intrinsic and normal
    connections are its tangent-tangent-tangent and tangent-normal-normal
    blocks, and the second fundamental form h is the closed-form Z/P
    coupling.  With R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y] the three
    equations are identities between tensors on the frame:

        Gauss    R(a,b,c,d) = R_int(a,b,c,d) - <h(b,c),h(a,d)> + <h(a,c),h(b,d)>
        Codazzi  R(a,b,c,x) = (nabla_a h)(b,c,x) - (nabla_b h)(a,c,x)
        Ricci    R_perp(a,b,x,y) = R(a,b,x,y) + <[A_x, A_y] a, b>

    Returns the largest absolute component of each difference; all three
    vanish to rounding error.  The curvature tensors have (2n)^4 entries.
    """
    T, V = Wspec._frame_rows()
    F = np.vstack([T, V])
    C = _structure(Wspec.n, Wspec.c)
    CF = np.einsum("ia,jb,kc,abc->ijk", F, F, F, C, optimize=True)
    G = _koszul(CF)
    JF = F @ _flat_J(Wspec.n) @ F.T
    E = np.eye(len(F))
    R = _curvature(E[:, None, None], E[None, :, None], E[None, None, :], JF, Wspec.c)
    d = len(T)
    t, v = slice(0, d), slice(d, None)
    Ct, Gt, Gn = CF[t, t, t], G[t, t, t], G[t, v, v]
    K = _zp_coupling(Wspec)
    h = np.zeros((d, d, Wspec.k))
    h[1, d - len(K):] = h[d - len(K):, 1] = K
    ein = np.einsum
    r_int = (
        ein("bce,aed->abcd", Gt, Gt) - ein("ace,bed->abcd", Gt, Gt) - ein("abe,ecd->abcd", Ct, Gt)
    )
    gauss = R[t, t, t, t] - r_int + ein("bcx,adx->abcd", h, h) - ein("acx,bdx->abcd", h, h)
    dh = ein("bcy,ayx->abcx", h, Gn) - ein("abe,ecx->abcx", Gt, h) - ein("ace,bex->abcx", Gt, h)
    codazzi = R[t, t, t, v] - dh + dh.transpose(1, 0, 2, 3)
    r_perp = (
        ein("bxz,azy->abxy", Gn, Gn) - ein("axz,bzy->abxy", Gn, Gn) - ein("abe,exy->abxy", Ct, Gn)
    )
    ricci = r_perp - R[t, t, v, v] - ein("aey,ebx->abxy", h, h) + ein("aex,eby->abxy", h, h)
    return tuple(float(np.abs(E).max()) for E in (gauss, codazzi, ricci))


def horocycle_point(p: ANPoint, U: ANVector, t: float) -> ANPoint:
    """The point p . Exp(t U) on the horocycle through p tangent to U.

    U must be a unit vector of g_alpha; the integral curves of such
    left-invariant fields are horocycles of geodesic curvature
    sqrt(-c)/2 inside totally geodesic real hyperbolic planes.
    """
    if abs(U.a) > 1e-12 or abs(U.x) > 1e-12:
        raise ValueError("U must lie in g_alpha")
    if abs(an_norm(U) - 1.0) > 1e-10:
        raise ValueError("U must be a unit vector")
    _check_compatible(p.coords, U)
    return ANPoint(ANVector.from_flat(_product(p.coords.flat(), t * U.flat(), p.c), p.c))


def contains_point(p: ANPoint, Wspec: SubmanifoldW, tol: float = NORMAL_TOL) -> bool:
    """Membership of p in W_w: the coordinates have no w_perp component.

    W_w is the orbit of the simply connected solvable group S_w, so it is
    exactly Exp(a + w + g_2alpha) applied to the base point.
    """
    if p.n != Wspec.n or p.c != Wspec.c:
        raise DimensionMismatch("point does not match the submanifold data")
    return _tangent_residual(Wspec, p.coords) <= tol
