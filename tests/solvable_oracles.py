"""Hand-written group-model formulas, kept as oracles for the tensor code.

`isoparam.solvable_model` derives the bracket, the Levi-Civita connection
and the curvature from one structure-constant tensor, and checks the
Gauss, Codazzi and Ricci equations as exact tensor identities.  The
functions here are the component formulas written out on ANVectors, and
the sampled form of those equations, for tests to compare against.
"""

import numpy as np

from isoparam import ANVector
from isoparam.kahler_angle import complex_structure
from isoparam.solvable_model import _galpha_flat


def an_inner(X, Y):
    return float(X.a * Y.a + np.real(np.vdot(Y.U, X.U)) + X.x * Y.x)


def an_J(X):
    return ANVector(-X.x, 1j * X.U, X.a, X.c)


def bracket(X, Y):
    """[B, Z] = sqrt(-c) Z, 2 [B, U] = sqrt(-c) U, [U, V] = sqrt(-c) <JU, V> Z."""
    sq = np.sqrt(-X.c)
    U_part = 0.5 * sq * (X.a * Y.U - Y.a * X.U)
    juv = np.real(np.vdot(Y.U, 1j * X.U))  # <J U_X, U_Y>
    x_part = sq * (X.a * Y.x - Y.a * X.x + juv)
    return ANVector(0.0, U_part, x_part, X.c)


def levi_civita(X, Y):
    """nabla_{aB+U+xZ}(bB+V+yZ) = sqrt(-c) { (<U,V>/2 + x y) B
    - (b U + y J U + x J V)/2 + (<JU,V>/2 - b x) Z }."""
    sq = np.sqrt(-X.c)
    uv = np.real(np.vdot(Y.U, X.U))
    juv = np.real(np.vdot(Y.U, 1j * X.U))
    a_part = sq * (0.5 * uv + X.x * Y.x)
    U_part = -0.5 * sq * (Y.a * X.U + Y.x * (1j * X.U) + X.x * (1j * Y.U))
    x_part = sq * (0.5 * juv - Y.a * X.x)
    return ANVector(a_part, U_part, x_part, X.c)


def curvature_tensor(X, Y, Zv):
    """R(X,Y)Z = (c/4) (<Y,Z>X - <X,Z>Y + <JY,Z>JX - <JX,Z>JY - 2<JX,Y>JZ)."""
    JX, JY, JZ = an_J(X), an_J(Y), an_J(Zv)
    out = (
        an_inner(Y, Zv) * X
        - an_inner(X, Zv) * Y
        + an_inner(JY, Zv) * JX
        - an_inner(JX, Zv) * JY
        - 2.0 * an_inner(JX, Y) * JZ
    )
    return (X.c / 4.0) * out


def second_fundamental_form(Wspec, X, Y):
    """2 II(Z, P xi) = -sqrt(-c) (J P xi)^perp, symmetric, zero on other pairs."""
    J = complex_structure(Wspec.n - 1)
    P, N = Wspec.p_perp_basis, Wspec.w_perp_basis

    def p_component(V):
        return P.T @ (P @ _galpha_flat(V))

    out = -0.5 * np.sqrt(-Wspec.c) * (
        X.x * N.T @ (N @ (J @ p_component(Y))) + Y.x * N.T @ (N @ (J @ p_component(X)))
    )
    return ANVector(0.0, out[0::2] + 1j * out[1::2], 0.0, Wspec.c)


def sampled_fundamental_residuals(Wspec, samples=10, seed=0):
    """Max residuals of the Gauss, Codazzi and Ricci equations on random
    tangent vectors X, Y, Z, W and normal vectors xi, eta, built from the
    oracle formulas above."""
    rng = np.random.default_rng(seed)
    tang = Wspec.tangent_frame()
    norm = Wspec.normal_frame()
    zero = 0.0 * tang[0]

    def tan(V):
        return sum((an_inner(V, E) * E for E in tang), zero)

    def nor(V):
        return sum((an_inner(V, E) * E for E in norm), zero)

    def ii(X, Y):
        return second_fundamental_form(Wspec, X, Y)

    def nab(X, Y):
        return tan(levi_civita(X, Y))

    def nab_perp(X, xi):
        return nor(levi_civita(X, xi))

    def r_int(X, Y, Z):
        return nab(X, nab(Y, Z)) - nab(Y, nab(X, Z)) - nab(bracket(X, Y), Z)

    def r_perp(X, Y, xi):
        return (
            nab_perp(X, nab_perp(Y, xi))
            - nab_perp(Y, nab_perp(X, xi))
            - nab_perp(bracket(X, Y), xi)
        )

    def shape(xi, X):
        return sum((an_inner(ii(X, E), xi) * E for E in tang), zero)

    def d_ii(X, Y, Z):
        return nor(levi_civita(X, ii(Y, Z))) - ii(nab(X, Y), Z) - ii(Y, nab(X, Z))

    gauss = codazzi = ricci = 0.0
    for _ in range(samples):
        X, Y, Z, Wv = (
            sum((rng.standard_normal() * E for E in tang), zero) for _ in range(4)
        )
        xi, eta = (sum((rng.standard_normal() * E for E in norm), zero) for _ in range(2))
        lhs = an_inner(curvature_tensor(X, Y, Z), Wv)
        rhs = (
            an_inner(r_int(X, Y, Z), Wv)
            - an_inner(ii(Y, Z), ii(X, Wv))
            + an_inner(ii(X, Z), ii(Y, Wv))
        )
        gauss = max(gauss, abs(lhs - rhs))
        lhs = an_inner(curvature_tensor(X, Y, Z), xi)
        rhs = an_inner(d_ii(X, Y, Z) - d_ii(Y, X, Z), xi)
        codazzi = max(codazzi, abs(lhs - rhs))
        lhs = an_inner(r_perp(X, Y, xi), eta)
        rhs = an_inner(curvature_tensor(X, Y, xi), eta) + an_inner(
            shape(xi, shape(eta, X)) - shape(eta, shape(xi, X)), Y
        )
        ricci = max(ricci, abs(lhs - rhs))
    return gauss, codazzi, ricci

