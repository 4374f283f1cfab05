"""Tests for the solvable group model of CH^n and the submanifolds W_w."""

import numpy as np
import pytest
import solvable_oracles as oracle
import w_frame_oracles

from isoparam import solvable_model as sm
from isoparam import (
    ANPoint,
    ANVector,
    NotNormal,
    NotTangent,
    RealSubspace,
    WNotProper,
    an_J,
    an_inner,
    an_norm,
    bracket,
    build_w,
    contains_point,
    curvature_tensor,
    group_product,
    horocycle_point,
    kahler_profile,
    levi_civita,
    random_subspace,
    second_fundamental_form,
    shape_operator,
    subspace_from_blocks,
    unitary_conjugate,
)
from isoparam.kahler_angle import ANGLE_TOL, apply_J

C = -4.0  # sqrt(-c) = 2 keeps the structure constants legible


def basis_B(n=3):
    return ANVector(1.0, np.zeros(n - 1, complex), 0.0, C)


def basis_Z(n=3):
    return ANVector(0.0, np.zeros(n - 1, complex), 1.0, C)


def galpha(u, n=3):
    U = np.zeros(n - 1, complex)
    U[: len(u)] = u
    return ANVector(0.0, U, 0.0, C)


def rand_vec(rng, n=3, c=C):
    return ANVector(
        rng.standard_normal(),
        rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1),
        rng.standard_normal(),
        c,
    )


def to_anvector(row, c=C):
    return ANVector(0.0, row[0::2] + 1j * row[1::2], 0.0, c)


class TestBracket:
    def test_b_z(self):
        out = bracket(basis_B(), basis_Z())
        assert out.a == 0.0 and an_norm(out - 2.0 * basis_Z()) < 1e-15

    def test_u_ju_gives_z(self):
        U, JU = galpha([1]), galpha([1j])
        out = bracket(U, JU)
        assert an_norm(out - 2.0 * basis_Z()) < 1e-15

    def test_z_u_vanishes(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            U = galpha(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert an_norm(bracket(basis_Z(), U)) == 0.0

    def test_b_u_half(self):
        U = galpha([1, 2j])
        assert an_norm(bracket(basis_B(), U) - 1.0 * U) < 1e-15  # sqrt(-c)/2 = 1

    def test_jacobi_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            X, Y, Z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
            cyc = (
                bracket(X, bracket(Y, Z))
                + bracket(Y, bracket(Z, X))
                + bracket(Z, bracket(X, Y))
            )
            assert an_norm(cyc) < 1e-10


class TestLeviCivita:
    def test_nabla_b_b_vanishes(self):
        assert an_norm(levi_civita(basis_B(), basis_B())) == 0.0

    def test_nabla_z_z(self):
        out = levi_civita(basis_Z(), basis_Z())
        assert an_norm(out - 2.0 * basis_B()) < 1e-15

    def test_nabla_u_ju(self):
        # oracle: only the <JU, V> Z term survives with V = JU
        U = galpha([1])
        out = levi_civita(U, an_J(U))
        assert an_norm(out - basis_Z()) < 1e-15

    def test_torsion_free_and_metric(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            X, Y, W = rand_vec(rng), rand_vec(rng), rand_vec(rng)
            torsion = levi_civita(X, Y) - levi_civita(Y, X) - bracket(X, Y)
            assert an_norm(torsion) < 1e-10
            compat = an_inner(levi_civita(X, Y), W) + an_inner(Y, levi_civita(X, W))
            assert abs(compat) < 1e-10


class TestCurvature:
    def test_holomorphic_sectional(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rand_vec(rng)
            X = (1.0 / an_norm(X)) * X
            val = an_inner(curvature_tensor(X, an_J(X), an_J(X)), X)
            assert abs(val - C) < 1e-10

    def test_orthogonal_sectional(self):
        # X = B, Y in g_alpha: JX = Z is orthogonal to Y
        X, Y = basis_B(), galpha([1])
        assert abs(an_inner(an_J(X), Y)) == 0.0
        val = an_inner(curvature_tensor(X, Y, Y), X)
        assert abs(val - C / 4) < 1e-12

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        X, Z = rand_vec(rng), rand_vec(rng)
        assert an_norm(curvature_tensor(X, X, Z)) < 1e-12

    def test_matches_connection(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            X, Y, Z = rand_vec(rng), rand_vec(rng), rand_vec(rng)
            R1 = curvature_tensor(X, Y, Z)
            R2 = (
                levi_civita(X, levi_civita(Y, Z))
                - levi_civita(Y, levi_civita(X, Z))
                - levi_civita(bracket(X, Y), Z)
            )
            assert an_norm(R1 - R2) < 1e-9


class TestGroupProduct:
    def test_identity(self):
        rng = np.random.default_rng(6)
        o = ANPoint.origin(3, C)
        h = ANPoint(rand_vec(rng))
        out = group_product(o, h)
        assert an_norm(out.coords - h.coords) < 1e-14
        out = group_product(h, o)
        assert an_norm(out.coords - h.coords) < 1e-14

    def test_heisenberg_pair(self):
        g = ANPoint(galpha([1]))
        h = ANPoint(galpha([1j]))
        out = group_product(g, h).coords
        assert out.a == 0.0
        assert np.allclose(out.U, [1 + 1j, 0])
        assert abs(out.x - 1.0) < 1e-14

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p1, p2, p3 = (ANPoint(rand_vec(rng)) for _ in range(3))
            left = group_product(group_product(p1, p2), p3).coords
            right = group_product(p1, group_product(p2, p3)).coords
            assert an_norm(left - right) < 1e-10

    def test_inverse(self):
        rng = np.random.default_rng(8)
        p = ANPoint(rand_vec(rng))
        assert an_norm(group_product(p, ANPoint(-p.coords)).coords) < 1e-14


class TestBuildW:
    def test_hyperplane_gives_ruled_hypersurface(self):
        for n in (2, 3, 4):
            w = random_subspace(n - 1, 2 * (n - 1) - 1, seed=n)
            W = build_w(w, n, C)
            assert W.k == 1
            assert W.tangent_dim == 2 * n - 1

    def test_complex_normal_space_is_totally_geodesic(self):
        # w^perp complex: P vanishes, so the second fundamental form is zero
        n = 3
        w = subspace_from_blocks(2, [(0.0, 2)])  # w = C e_1 in C^2
        W = build_w(w, n, C)
        assert W.k == 2
        frame = W.tangent_frame()
        for X in frame:
            for Y in frame:
                assert an_norm(second_fundamental_form(W, X, Y)) == 0.0

    def test_generic_line_in_c2(self):
        w = random_subspace(2, 1, seed=5)
        W = build_w(w, 3, C)
        assert W.k == 3
        assert W.tangent_dim == 3

    def test_rejects_full_galpha(self):
        w = random_subspace(2, 4, seed=1)
        with pytest.raises(WNotProper):
            build_w(w, 3, C)

    def test_frame_orthonormal(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            m = n - 1
            k = int(rng.integers(1, 2 * m + 1))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            frame = W.tangent_frame() + W.normal_frame()
            G = np.array([[an_inner(X, Y) for Y in frame] for X in frame])
            assert np.abs(G - np.eye(len(frame))).max() < 1e-10


# w in C^4 (n = 5) with its expected rank of P w_perp, the number of
# nonzero Kahler angles of w_perp
FRAME_CASES = {
    "generic": (random_subspace(4, 5, seed=21), 3),
    "complex": (unitary_conjugate(subspace_from_blocks(4, [(0.0, 4)]), 22), 0),
    "totally_real": (unitary_conjugate(subspace_from_blocks(4, [(np.pi / 2, 3)]), 23), 3),
    "zero": (RealSubspace(4, np.zeros((0, 8))), 0),
    "hyperplane": (random_subspace(4, 7, seed=24), 1),
}


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
class TestFrameSplitting:
    """The defining properties of the frames of build_w."""

    def frames(self, name):
        w, _ = FRAME_CASES[name]
        return w, build_w(w, 5, C)

    def test_c_part_and_p_perp_split_w(self, name):
        w, W = self.frames(name)
        F = np.vstack([W.c_part_basis, W.p_perp_basis])
        assert F.shape == w.basis.shape
        assert np.abs(F @ F.T - np.eye(len(F))).max(initial=0.0) < 1e-12
        assert np.abs(F.T @ F - w.basis.T @ w.basis).max() < 1e-12

    def test_c_part_is_complex(self, name):
        _, W = self.frames(name)
        Q = W.c_part_basis
        JQ = apply_J(Q)
        assert np.abs(JQ - JQ @ Q.T @ Q).max(initial=0.0) < 1e-12

    def test_c_part_orthogonal_to_j_w_perp(self, name):
        _, W = self.frames(name)
        assert np.abs(W.c_part_basis @ apply_J(W.w_perp_basis).T).max(initial=0.0) < 1e-12

    def test_spans_match_row_by_row_oracle(self, name):
        w, W = self.frames(name)
        old = w_frame_oracles.build_w(w, 5, C)
        for a, b in ((W.p_perp_basis, old.p_perp_basis), (W.c_part_basis, old.c_part_basis)):
            assert a.shape == b.shape
            assert np.abs(a.T @ a - b.T @ b).max() < 1e-12

    def test_p_perp_rank_counts_nonzero_kahler_angles(self, name):
        _, W = self.frames(name)
        profile, _, _ = kahler_profile(W.w.perp)
        nonzero = sum(mult for angle, mult in profile.entries if angle > ANGLE_TOL)
        assert len(W.p_perp_basis) == nonzero == FRAME_CASES[name][1]


class TestSecondFundamentalForm:
    def test_b_direction_is_trivial(self):
        rng = np.random.default_rng(10)
        w = random_subspace(2, 1, seed=11)
        W = build_w(w, 3, C)
        B = basis_B()
        for Y in W.tangent_frame():
            assert an_norm(second_fundamental_form(W, B, Y)) == 0.0

    def test_totally_real_formula(self):
        # w spanned by {i e_1, e_2, i e_2}: complement is span{e_1}, angle pi/2
        m = 2
        rows = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        w = RealSubspace(m, rows)
        W = build_w(w, 3, C)
        xi = W.normal_frame()[0]
        assert abs(abs(xi.U[0]) - 1.0) < 1e-12  # xi = +-e_1
        Pxi = an_J(xi)  # P xi = J xi for a totally real normal direction
        out = second_fundamental_form(W, basis_Z(), Pxi)
        assert an_norm(out - xi) < 1e-12

    def test_not_tangent_rejected(self):
        w = random_subspace(2, 1, seed=13)
        W = build_w(w, 3, C)
        xi = W.normal_frame()[0]
        with pytest.raises(NotTangent):
            second_fundamental_form(W, xi, basis_Z())

    def test_minimality_exact(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = n - 1
            k = int(rng.integers(1, 2 * m + 1))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            for xi in W.normal_frame():
                A = shape_operator(W, xi)
                assert np.trace(A) == 0.0
                assert np.abs(A - A.T).max() == 0.0

    def test_gauss_codazzi_ricci_residuals(self):
        from isoparam.solvable_model import fundamental_equation_residuals

        rng = np.random.default_rng(23)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            m = n - 1
            k = int(rng.integers(1, 2 * m + 1))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            gauss, codazzi, ricci = fundamental_equation_residuals(W)
            assert gauss < 1e-10
            assert codazzi < 1e-10
            assert ricci < 1e-10


class TestHorocycle:
    def test_t_zero_fixes_point(self):
        rng = np.random.default_rng(15)
        p = ANPoint(rand_vec(rng))
        U = galpha([1])
        q = horocycle_point(p, U, 0.0)
        assert an_norm(q.coords - p.coords) < 1e-14

    def test_initial_acceleration(self):
        # oracle: left-trivialized velocity v(t) by central differences of
        # Log(p(t)^-1 p(t+h)), acceleration = v'(0) + nabla_v v
        n, h = 3, 1e-5
        U = galpha([np.sqrt(0.5), np.sqrt(0.5) * 1j])
        o = ANPoint.origin(n, C)

        def vel(t):
            p = horocycle_point(o, U, t)
            q = horocycle_point(o, U, t + h)
            step = group_product(ANPoint(-p.coords), q).coords
            return (1.0 / h) * step

        v0 = vel(0.0)
        vdot = (1.0 / h) * (vel(h) - vel(0.0))
        accel = vdot + levi_civita(v0, v0)
        target = np.sqrt(-C) / 2 * basis_B()
        assert an_norm(accel - target) < 50 * h  # O(h) one-sided differences

    def test_membership_for_directions_in_w(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = n - 1
            kw = int(rng.integers(1, 2 * m))
            w = random_subspace(m, kw, int(rng.integers(2**31)))
            W = build_w(w, n, C)
            coefs = rng.standard_normal(kw)
            row = coefs @ w.basis
            row /= np.linalg.norm(row)
            U = to_anvector(row)
            p = ANPoint.origin(n, C)
            for _ in range(4):
                p = horocycle_point(p, U, float(rng.uniform(-2, 2)))
                assert contains_point(p, W, 1e-9)


class TestMembership:
    def test_origin(self):
        w = random_subspace(2, 2, seed=17)
        W = build_w(w, 3, C)
        assert contains_point(ANPoint.origin(3, C), W)

    def test_normal_exponential_leaves(self):
        w = random_subspace(2, 2, seed=18)
        W = build_w(w, 3, C)
        xi = W.normal_frame()[0]
        assert not contains_point(ANPoint(xi), W, 1e-9)

    def test_word_closure(self):
        rng = np.random.default_rng(19)
        n = 4
        m = n - 1
        w = random_subspace(m, 3, seed=20)
        W = build_w(w, n, C)
        p = ANPoint.origin(n, C)
        for _ in range(200):
            a, x = 0.2 * rng.standard_normal(2)
            coefs = 0.3 * rng.standard_normal(3)
            row = coefs @ w.basis
            p = group_product(p, ANPoint(ANVector(a, row[0::2] + 1j * row[1::2], x, C)))
        assert contains_point(p, W, 1e-9)


class TestTensorOracles:
    """The tensor-derived group model against the hand-written formulas."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bilinear_maps_match_formulas(self, n):
        rng = np.random.default_rng(30 + n)
        for c in (C, -1.0):
            for _ in range(20):
                X, Y, Z = (rand_vec(rng, n, c) for _ in range(3))
                assert an_norm(bracket(X, Y) - oracle.bracket(X, Y)) < 1e-12
                assert an_norm(levi_civita(X, Y) - oracle.levi_civita(X, Y)) < 1e-12
                gap = curvature_tensor(X, Y, Z) - oracle.curvature_tensor(X, Y, Z)
                assert an_norm(gap) < 1e-12
                assert an_norm(an_J(X) - oracle.an_J(X)) == 0.0
                assert abs(an_inner(X, Y) - oracle.an_inner(X, Y)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_second_fundamental_form_matches_formula(self, n):
        rng = np.random.default_rng(40 + n)
        m = n - 1
        for _ in range(5):
            k = int(rng.integers(1, 2 * m + 1))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            frame = W.tangent_frame()
            X, Y = (
                sum((rng.standard_normal() * E for E in frame), 0.0 * frame[0]) for _ in range(2)
            )
            gap = second_fundamental_form(W, X, Y) - oracle.second_fundamental_form(W, X, Y)
            assert an_norm(gap) < 1e-12
            for xi in W.normal_frame():
                A = shape_operator(W, xi)
                ref = np.array(
                    [
                        [an_inner(oracle.second_fundamental_form(W, E, F), xi) for F in frame]
                        for E in frame
                    ]
                )
                assert np.abs(A - ref).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exact_identities_agree_with_sampled_equations(self, n):
        rng = np.random.default_rng(50 + n)
        m = n - 1
        for _ in range(3):
            k = int(rng.integers(1, 2 * m + 1))
            W = build_w(random_subspace(m, 2 * m - k, int(rng.integers(2**31))), n, C)
            assert max(sm.fundamental_equation_residuals(W)) < 1e-12
            assert max(oracle.sampled_fundamental_residuals(W, samples=4, seed=n)) < 1e-10

    def test_exact_identities_detect_a_wrong_second_fundamental_form(self, monkeypatch):
        W = build_w(random_subspace(2, 3, seed=4), 3, C)  # a real hyperplane: P w_perp = J w_perp
        assert max(sm.fundamental_equation_residuals(W)) < 1e-12
        coupling = sm._zp_coupling
        monkeypatch.setattr(sm, "_zp_coupling", lambda Wspec: 2.0 * coupling(Wspec))
        gauss, _, _ = sm.fundamental_equation_residuals(W)
        assert gauss > 0.1
