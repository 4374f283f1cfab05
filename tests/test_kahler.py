"""Tests for real subspaces of complex space and their Kahler angles."""

import kahler_oracles as oracle
import numpy as np
import pytest

from isoparam import kahler_angle as ka
from isoparam import (
    DimensionMismatch,
    KahlerProfile,
    RealSubspace,
    VectorNotInSubspace,
    apply_J,
    build_w,
    classify,
    complement,
    complex_structure,
    congruence_invariant,
    congruent,
    kahler_profile,
    pf_split,
    random_subspace,
    subspace_from_blocks,
    unitary_conjugate,
)
from isoparam.verification import RunConfig, _kahler_draws, _suite_kahler

PI2 = np.pi / 2


def unit(m, coord, imag=False):
    v = np.zeros(2 * m)
    v[2 * coord + (1 if imag else 0)] = 1.0
    return v


def complex_line(m=2):
    """C e_1 inside C^m: basis {e_1, i e_1}."""
    return RealSubspace(m, np.array([unit(m, 0), unit(m, 0, imag=True)]))


def totally_real_plane(m=2):
    """span_R{e_1, e_2}."""
    return RealSubspace(m, np.array([unit(m, 0), unit(m, 1)]))


def angle_plane(phi, m=2):
    """span_R{e_1, cos(phi) i e_1 + sin(phi) i e_2}: constant angle phi."""
    b2 = np.cos(phi) * unit(m, 0, imag=True) + np.sin(phi) * unit(m, 1, imag=True)
    return RealSubspace(m, np.array([unit(m, 0), b2]))


def j_matrix(m):
    """Reference matrix of J, one 2x2 rotation block per complex coordinate."""
    J = np.zeros((2 * m, 2 * m))
    for j in range(m):
        J[2 * j, 2 * j + 1] = -1.0
        J[2 * j + 1, 2 * j] = 1.0
    return J


class TestApplyJ:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_matches_matrix_product(self, m):
        rng = np.random.default_rng(m)
        J = j_matrix(m)
        assert np.array_equal(complex_structure(m), J)
        v = rng.standard_normal(2 * m)
        rows = rng.standard_normal((5, 2 * m))
        assert apply_J(v).tobytes() == (J @ v).tobytes()
        assert apply_J(rows).tobytes() == (rows @ J.T).tobytes()
        assert apply_J(rows[:, None, :]).shape == (5, 1, 2 * m)

    def test_squares_to_minus_identity(self):
        v = np.random.default_rng(0).standard_normal((4, 6))
        assert np.array_equal(apply_J(apply_J(v)), -v)

    def test_no_negative_zero(self):
        for v in (np.zeros(4), -np.zeros(4), np.array([0.0, -0.0, -0.0, 0.0])):
            out = apply_J(v)
            assert not np.signbit(out).any()
            assert not np.signbit(apply_J(out)).any()


class TestPfSplit:
    def test_complex_line_angle_zero(self):
        W = complex_line()
        F, P = pf_split(W, unit(2, 0))
        assert np.allclose(F, unit(2, 0, imag=True), atol=1e-12)
        assert np.abs(P).max() < 1e-12

    def test_totally_real_angle_pi2(self):
        W = totally_real_plane()
        F, P = pf_split(W, unit(2, 0))
        assert np.abs(F).max() < 1e-12
        assert np.allclose(P, unit(2, 0, imag=True), atol=1e-12)

    def test_pi_third_plane(self):
        # oracle: J e_1 = i e_1 projects onto the two basis vectors with
        # coefficients (0, cos(pi/3)), so |F| = 1/2
        W = angle_plane(np.pi / 3)
        xi = unit(2, 0)
        proj = np.array([W.basis[0] @ unit(2, 0, imag=True), W.basis[1] @ unit(2, 0, imag=True)])
        assert np.allclose(proj, [0.0, 0.5], atol=1e-12)
        F, P = pf_split(W, xi)
        assert abs(np.linalg.norm(F) - 0.5) < 1e-12
        assert np.allclose(F + P, complex_structure(2) @ xi, atol=1e-12)

    def test_split_norms(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 2 * m + 1))
            W = random_subspace(m, k, int(rng.integers(2**31)))
            coef = rng.standard_normal(k)
            xi = coef @ W.basis
            F, P = pf_split(W, xi)
            norm2 = np.linalg.norm(xi) ** 2
            assert abs(np.linalg.norm(F) ** 2 + np.linalg.norm(P) ** 2 - norm2) < 1e-10

    def test_rejects_outside_vector(self):
        with pytest.raises(VectorNotInSubspace):
            pf_split(complex_line(), unit(2, 1))


class TestProfile:
    def test_complex_line(self):
        profile, _, _ = kahler_profile(complex_line())
        assert profile.entries == ((0.0, 2),)

    def test_totally_real(self):
        profile, _, _ = kahler_profile(totally_real_plane())
        assert profile.entries == ((PI2, 2),)

    def test_pi_third_brute_force(self):
        # oracle: |F xi|^2 over a dense grid of unit xi is constantly
        # cos^2(pi/3) = 1/4
        W = angle_plane(np.pi / 3)
        J = complex_structure(2)
        for theta in np.linspace(0, 2 * np.pi, 100):
            xi = np.cos(theta) * W.basis[0] + np.sin(theta) * W.basis[1]
            F = W.project(J @ xi)
            assert abs(F @ F - 0.25) < 1e-12
        profile, _, _ = kahler_profile(W)
        assert len(profile.entries) == 1
        angle, mult = profile.entries[0]
        assert mult == 2 and abs(angle - np.pi / 3) < 1e-12

    def test_mixed_block_profile(self):
        # C e_1 + span{e_2} in C^3; oracle: F on the basis (e_1, i e_1, e_2)
        # is the block-diagonal matrix [[0,-1,0],[1,0,0],[0,0,0]]
        m = 3
        W = RealSubspace(m, np.array([unit(m, 0), unit(m, 0, imag=True), unit(m, 1)]))
        J = complex_structure(m)
        F_matrix = np.array([[b1 @ W.project(J @ b2) for b2 in W.basis] for b1 in W.basis])
        assert np.allclose(F_matrix, [[0, -1, 0], [1, 0, 0], [0, 0, 0]], atol=1e-14)
        profile, vectors, decomposition = kahler_profile(W)
        assert profile.entries == ((PI2, 1), (0.0, 2))
        assert sum(mult for _, mult in profile.entries) == 3
        # blocks are complex-orthogonal
        J = complex_structure(m)
        (a1, block1), (a2, block2) = decomposition[0], decomposition[-1]
        for x in block1:
            for y in block2:
                assert abs(x @ y) < 1e-10
                assert abs(x @ (J @ y)) < 1e-10

    def test_principal_vectors_diagonalize(self):
        rng = np.random.default_rng(5)
        J4 = complex_structure(4)
        for _ in range(20):
            W = random_subspace(4, int(rng.integers(1, 9)), int(rng.integers(2**31)))
            profile, vectors, _ = kahler_profile(W)
            # <F xi_i, F xi_j> = cos^2(phi_i) delta_ij
            F = np.array([W.project(J4 @ v) for v in vectors])
            G = F @ F.T
            off = G - np.diag(np.diag(G))
            assert np.abs(off).max() < 1e-9
            cos2 = np.concatenate([[np.cos(a) ** 2] * mm for a, mm in profile.entries])
            assert np.allclose(np.sort(np.diag(G)), np.sort(cos2), atol=1e-9)


class TestCongruence:
    def test_unitary_images_share_profile(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(0, 2 * m + 1))
            W = random_subspace(m, k, int(rng.integers(2**31)))
            assert congruent(W, unitary_conjugate(W, int(rng.integers(2**31))))

    def test_hyperplane_complement_is_real_line(self):
        for m in (2, 3, 4):
            W = random_subspace(m, 2 * m - 1, seed=m)
            assert congruence_invariant(complement(W)).entries == ((PI2, 1),)

    def test_distinct_profiles_not_congruent(self):
        assert not congruent(complex_line(), totally_real_plane())
        assert congruence_invariant(complex_line()).entries == ((0.0, 2),)
        assert congruence_invariant(totally_real_plane()).entries == ((PI2, 2),)


class TestRandomSubspace:
    def test_full_space_is_complex(self):
        W = random_subspace(2, 4, seed=123)
        profile, _, _ = kahler_profile(W)
        assert profile.entries == ((0.0, 4),)

    def test_two_plane_has_single_angle(self):
        # every 2-plane in C^2 has equal principal angles: F is skew on a
        # 2-dimensional space
        W = random_subspace(2, 2, seed=7)
        profile, _, _ = kahler_profile(W)
        assert len(profile.entries) == 1
        assert profile.entries[0][1] == 2

    def test_reproducible(self):
        a = random_subspace(3, 4, seed=42)
        b = random_subspace(3, 4, seed=42)
        assert np.array_equal(a.basis, b.basis)

    @pytest.mark.parametrize("seed", [-3, 1.5, "7", None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            random_subspace(2, 1, seed)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            unitary_conjugate(complex_line(), seed)


class TestComplement:
    def test_complement_of_complex_line(self):
        W = complex_line()
        C = complement(W)
        profile, _, _ = kahler_profile(C)
        assert profile.entries == ((0.0, 2),)
        assert np.abs(W.basis @ C.basis.T).max() < 1e-12

    def test_complement_of_totally_real(self):
        C = complement(totally_real_plane())
        profile, _, _ = kahler_profile(C)
        assert profile.entries == ((PI2, 2),)

    def test_three_dim_complement_is_real_line(self):
        m = 2
        W = RealSubspace(m, np.array([unit(m, 0), unit(m, 0, imag=True), unit(m, 1)]))
        profile, _, _ = kahler_profile(complement(W))
        assert profile.entries == ((PI2, 1),)

    def test_nonzero_angles_match(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(0, 2 * m + 1))
            W = random_subspace(m, k, int(rng.integers(2**31)))
            p1 = congruence_invariant(W).nonzero_entries()
            p2 = congruence_invariant(complement(W)).nonzero_entries()
            assert len(p1) == len(p2)
            for (a1, m1), (a2, m2) in zip(p1, p2):
                assert m1 == m2
                assert abs(a1 - a2) < 1e-8

    @pytest.fixture
    def svd_count(self, monkeypatch):
        calls = []
        rows = ka._complement_rows
        monkeypatch.setattr(ka, "_complement_rows", lambda *a: calls.append(1) or rows(*a))
        return calls

    def test_one_complement_per_w_tube_op(self, svd_count):
        # build_w and classify on one w share the complement w computed
        n, c = 6, -4.0
        w = random_subspace(n - 1, 6, seed=5)
        W = build_w(w, n, c)
        classify(n, c, 0.7, w=w)
        assert len(svd_count) == 1
        assert W.w_perp_basis.tobytes() == complement(w).basis.tobytes()
        assert complement(w) is complement(w)

    def test_complement_is_kept_per_instance_only(self, svd_count):
        w = random_subspace(3, 2, seed=8)
        twin = RealSubspace(3, w.basis)
        complement(w)
        complement(w)
        assert len(svd_count) == 1
        assert complement(twin).basis.tobytes() == complement(w).basis.tobytes()
        assert len(svd_count) == 2


class TestInvariants:
    def test_f_skew_and_f_squared(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 2 * m + 1))
            W = random_subspace(m, k, int(rng.integers(2**31)))
            J = complex_structure(m)
            B = W.basis
            K = B @ J.T @ B.T
            assert np.abs(K + K.T).max() < 1e-10
            _, _, decomposition = kahler_profile(W)
            for angle, block in decomposition:
                for xi in block:
                    F, _ = pf_split(W, xi)
                    F2 = W.project(J @ F)
                    assert np.abs(F2 + np.cos(angle) ** 2 * xi).max() < 1e-9

    def test_multiplicity_parity(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(0, 2 * m + 1))
            profile = congruence_invariant(random_subspace(m, k, int(rng.integers(2**31))))
            for angle, mult in profile.entries:
                if angle < PI2 - 1e-7:
                    assert mult % 2 == 0

    def test_profile_type_rejects_odd_interior_multiplicity(self):
        with pytest.raises(ValueError):
            KahlerProfile(((0.3, 1),))

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -0.1, 2.0])
    def test_profile_type_rejects_angle_outside_range(self, angle):
        with pytest.raises(ValueError):
            KahlerProfile(((angle, 2),))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_subspace_rejects_non_finite_basis(self, bad):
        with pytest.raises(ValueError):
            RealSubspace(2, [[bad, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("basis", [5.0, np.zeros((1, 4, 4)), np.zeros((0, 0, 0))])
    def test_subspace_basis_is_a_vector_or_matrix(self, basis):
        with pytest.raises(DimensionMismatch):
            RealSubspace(2, basis)


class TestBlockConstruction:
    def test_witness_profiles(self):
        cases = [
            [(0.0, 2)],
            [(PI2, 3)],
            [(np.pi / 3, 2)],
            [(0.0, 2), (PI2, 1)],
            [(0.0, 2), (np.pi / 5, 2), (PI2, 1)],
        ]
        for blocks in cases:
            m = sum({True: mult, False: mult // 2}[angle > 1e-9] if angle < PI2 - 1e-9 else mult for angle, mult in blocks)
            W = subspace_from_blocks(m + 1, blocks)
            profile, _, _ = kahler_profile(W)
            expect = KahlerProfile(tuple(blocks))
            assert profile.matches(expect, angle_tol=1e-9)

    def test_json_round_trip(self):
        W = random_subspace(3, 4, seed=3)
        W2 = RealSubspace.from_json(W.to_json())
        assert W2.ambient_cdim == 3
        assert np.allclose(W.basis, W2.basis)


def same_profile(got, want):
    """Bit-for-bit equality of two (profile, vectors, decomposition) triples."""
    (p1, v1, d1), (p2, v2, d2) = got, want
    return (
        p1.entries == p2.entries
        and np.array_equal(v1, v2)
        and len(d1) == len(d2)
        and all(a1 == a2 and np.array_equal(b1, b2) for (a1, b1), (a2, b2) in zip(d1, d2))
    )


class TestStackedKernels:
    # k = 0, a line, the full space C^m, m = 1, and a generic shape
    SHAPES = [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (3, 2), (3, 6), (4, 5)]

    @pytest.mark.parametrize("m,k", SHAPES)
    def test_scalar_api_is_one_element_of_the_stack(self, m, k):
        seeds = [11, 12, 13, 14]
        B = ka.random_bases(m, k, seeds)
        assert B.shape == (len(seeds), k, 2 * m)
        images = ka.unitary_images(B, [s + 1 for s in seeds])
        comps = ka._complement_rows(B, 2 * m)
        assert images.shape == B.shape and comps.shape == (len(seeds), 2 * m - k, 2 * m)
        profiles = ka.kahler_profiles(B)
        assert len(profiles) == len(seeds)
        for i, seed in enumerate(seeds):
            W = random_subspace(m, k, seed)
            assert np.array_equal(W.basis, B[i])
            assert np.array_equal(unitary_conjugate(W, seed + 1).basis, images[i])
            assert np.array_equal(complement(W).basis, comps[i])
            assert same_profile(kahler_profile(W), profiles[i])
            # and both equal the one-subspace-at-a-time oracle
            Wo = oracle.random_subspace(m, k, seed)
            assert np.array_equal(Wo.basis, B[i])
            assert np.array_equal(oracle.unitary_conjugate(Wo, seed + 1).basis, images[i])
            assert np.array_equal(oracle.complement(Wo).basis, comps[i])
            assert same_profile(oracle.kahler_profile(Wo), profiles[i])

    def test_mixed_groups_match_the_oracle_per_trial(self):
        # the suite's grouping: trials drawn in order, run as one stack per
        # (m, k), scattered back to their trial
        draws, groups = _kahler_draws(np.random.default_rng(4), 120, 0)
        assert len(groups) > 10
        for (m, k), (idx, seeds) in groups.items():
            B = ka.random_bases(m, k, seeds)
            conj = ka.kahler_profiles(ka.unitary_images(B, [s + 1 for s in seeds]))
            comp = ka.kahler_profiles(ka._complement_rows(B, 2 * m))
            for t, seed, got_conj, got_comp in zip(idx, seeds, conj, comp):
                assert draws[t] == {"m": m, "k": k, "seed": seed}
                W = oracle.random_subspace(m, k, seed)
                assert same_profile(got_conj, oracle.kahler_profile(oracle.unitary_conjugate(W, seed + 1)))
                assert same_profile(got_comp, oracle.kahler_profile(oracle.complement(W)))

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 19, 42, 101, 2024])
    def test_suite_equals_per_trial_oracle(self, seed):
        config = RunConfig(seed=seed)
        assert _suite_kahler(config) == oracle.suite_kahler(config)
